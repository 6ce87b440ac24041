"""Operator commands: exit codes, determinism, end-to-end discovery."""

import json
import os
import signal
import socket
import ssl
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import sopal.cli
from sopal.cli import build_parser, main
from sopal.client import HttpServerHandle, ServerError
from sopal.crypto import new_capability
from sopal.graph import SocialGraph
from sopal.server import MockOsnConnector, SopalHttpServer
from sopal.psi import DEFAULT_FP_TARGET
from sopal.store import DEFAULT_TTL_S, CapabilityStore

from helpers import adjacency_from_edges, self_signed_cert


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("A C\nC B\nB D\n")
    return path


GROUND = adjacency_from_edges([("A", "C"), ("C", "B"), ("B", "D")])


@pytest.fixture
def live_server():
    connector = MockOsnConnector(GROUND)
    store = CapabilityStore(SocialGraph(), connector)
    server = SopalHttpServer(store, connector, insecure_plaintext=True)
    server.start()
    host, port = server.address
    yield store, f"{host}:{port}"
    server.stop()


@pytest.fixture
def tls_server(tmp_path):
    """A started TLS server with a self-signed certificate; yields (store,
    certificate path, https URL)."""
    cert, key = self_signed_cert(tmp_path)
    connector = MockOsnConnector(GROUND)
    store = CapabilityStore(SocialGraph(), connector)
    with SopalHttpServer(store, connector, tls_cert=cert, tls_key=key) as server:
        yield store, cert, server.url


class TestSimulate:
    def test_writes_deterministic_csv(self, tmp_path, graph_file, capsys):
        out1 = tmp_path / "one.csv"
        out2 = tmp_path / "two.csv"
        argv = [
            "simulate",
            "--graph", str(graph_file),
            "--seed", "3",
            "--fractions", "1.0",
            "--lengths", "2",
            "--reps", "2",
            "--pairs", "5",
        ]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().startswith("fraction,length,ersatz,")

    def test_stdout_when_no_out(self, graph_file, capsys):
        argv = [
            "simulate", "--graph", str(graph_file),
            "--fractions", "1.0", "--lengths", "2", "--reps", "1", "--pairs", "5",
        ]
        assert main(argv) == 0
        assert "fraction,length" in capsys.readouterr().out

    def test_missing_graph_file_exit_code(self, tmp_path, capsys):
        code = main(["simulate", "--graph", str(tmp_path / "missing.txt")])
        assert code == 3

    def test_malformed_config_exit_code(self, graph_file, capsys):
        code = main(
            ["simulate", "--graph", str(graph_file), "--fractions", "2.5"]
        )
        assert code == 5

    def test_zero_pairs_exit_code(self, graph_file, capsys):
        assert main(["simulate", "--graph", str(graph_file), "--pairs", "0"]) == 5
        assert "at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    def test_unusable_out_path_fails_before_the_run(
        self, tmp_path, graph_file, monkeypatch, capsys, where
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the simulation ran before --out was opened")

        monkeypatch.setattr(sopal.cli, "run_coverage", refuse)
        out = tmp_path / "nodir" / "c.csv" if where == "missing-directory" else tmp_path
        assert main(["simulate", "--graph", str(graph_file), "--out", str(out)]) == 5
        assert f"cannot write output file {out}" in capsys.readouterr().err


class TestEnroll:
    def test_empty_membership_is_noop(self, tmp_path, capsys):
        members = tmp_path / "members.txt"
        members.write_text("# nobody\n")
        assert main(["enroll", "--members", str(members)]) == 0
        assert "nothing to do" in capsys.readouterr().out

    def test_enrolls_against_server(self, tmp_path, live_server, capsys):
        store, addr = live_server
        members = tmp_path / "members.txt"
        members.write_text("A\nB\n")
        assert main(["enroll", "--members", str(members), "--addr", addr]) == 0
        assert store.record_of("A").kind == "member"
        assert store.record_of("B").kind == "member"

    def test_unreachable_server_exit_code(self, tmp_path, capsys):
        members = tmp_path / "members.txt"
        members.write_text("A\n")
        code = main(["enroll", "--members", str(members), "--addr", "127.0.0.1:9"])
        assert code == 4

    def test_loadprobe_unreachable_server_exit_code(self, capsys):
        args = ["loadprobe", "--uid", "A", "--rates", "1", "--duration", "1"]
        assert main(args + ["--addr", "127.0.0.1:9"]) == 4
        assert "unreachable" in capsys.readouterr().err

    def test_non_http_server_exit_code(self, tmp_path, capsys):
        members = tmp_path / "members.txt"
        members.write_text("A\n")
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def answer_garbage():
                conn, _ = listener.accept()
                with conn:
                    conn.recv(4096)
                    conn.sendall(b"not http\r\n\r\n")

            peer = threading.Thread(target=answer_garbage)
            peer.start()
            addr = "127.0.0.1:%d" % listener.getsockname()[1]
            assert main(["enroll", "--members", str(members), "--addr", addr]) == 4
            peer.join(timeout=10)
            assert not peer.is_alive()
        assert "unreachable" in capsys.readouterr().err

    def test_unknown_user_exit_code(self, tmp_path, live_server, capsys):
        _, addr = live_server
        members = tmp_path / "members.txt"
        members.write_text("nobody\n")
        assert main(["enroll", "--members", str(members), "--addr", addr]) == 6


class TestDiscover:
    def test_end_to_end_prints_distance_and_common_friend(self, live_server, capsys):
        _, addr = live_server
        assert main(["discover", "A", "B", "--addr", addr]) == 0
        out = capsys.readouterr().out
        assert "A: Dist=2" in out
        assert "B: Dist=2" in out
        assert "common_friends=C" in out

    def test_undiscoverable_pair_prints_none(self, live_server, capsys):
        _, addr = live_server
        # only A and D enroll, so the middle edge C-B has no member
        # endpoint and the server cannot attest the A-C-B-D path
        assert main(["discover", "A", "D", "--addr", addr]) == 0
        out = capsys.readouterr().out
        assert "A: Dist=none" in out
        assert "D: Dist=none" in out

    def test_enrolled_interior_makes_pair_discoverable(self, live_server, capsys):
        store, addr = live_server
        store.upload_capability("B", new_capability())
        assert main(["discover", "A", "D", "--addr", addr]) == 0
        out = capsys.readouterr().out
        assert "A: Dist=3" in out
        assert "D: Dist=3" in out

    @pytest.mark.parametrize(
        "option, message",
        [
            pytest.param(["--fp-target", "0"], "false-positive target", id="0"),
            pytest.param(["--fp-target", "1"], "false-positive target", id="1"),
            pytest.param(["--dmax", "-1"], "d_max must be at least 0", id="dmax-1"),
        ],
    )
    def test_fp_target_outside_unit_interval_changes_nothing(
        self, live_server, option, message, capsys
    ):
        store, addr = live_server
        assert main(["discover", "A", "B", "--addr", addr, *option]) == 5
        assert message in capsys.readouterr().err
        assert store.record_of("A") is None and store.record_of("B") is None


class TestLoadProbe:
    def test_probe_against_live_server(self, live_server, tmp_path, capsys):
        store, addr = live_server
        store.upload_capability("A", new_capability())
        out = tmp_path / "report.txt"
        code = main(
            [
                "loadprobe",
                "--addr", addr,
                "--uid", "A",
                "--rates", "2",
                "--duration", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "baseline latency" in text
        assert "saturation knee" in text


class TestLoadProbeArguments:
    def test_reports_the_whole_seconds_it_ran(self, live_server, capsys):
        store, addr = live_server
        store.upload_capability("A", new_capability())
        args = ["loadprobe", "--addr", addr, "--uid", "A", "--rates", "2"]
        assert main(args + ["--duration", "0.4"]) == 0
        assert "duration per rate: 1.0 s" in capsys.readouterr().out

    def test_unknown_user_exit_code(self, live_server, capsys):
        _, addr = live_server
        args = ["loadprobe", "--addr", addr, "--rates", "1", "--duration", "1"]
        assert main(args + ["--uid", "nobody"]) == 6
        assert "authentication failed" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    def test_unusable_out_path_exit_code(self, tmp_path, capsys, where):
        # nothing listens on the discard port, so a probe that ran first
        # would exit 4 for an unreachable server
        args = ["loadprobe", "--addr", "127.0.0.1:9", "--uid", "A", "--rates", "1"]
        out = tmp_path / "nodir" / "r.txt" if where == "missing-directory" else tmp_path
        assert main(args + ["--duration", "1", "--out", str(out)]) == 5
        assert f"cannot write output file {out}" in capsys.readouterr().err

    def test_rate_below_one_exit_code(self, live_server, capsys):
        _, addr = live_server
        args = ["loadprobe", "--addr", addr, "--uid", "A", "--duration", "1"]
        assert main(args + ["--rates", "0"]) == 5
        assert "at least 1" in capsys.readouterr().err

    def test_negative_dmax_exit_code(self, capsys):
        # nothing listens on the discard port, so a probe that sent a
        # request would exit 4 for an unreachable server
        args = ["loadprobe", "--addr", "127.0.0.1:9", "--uid", "A", "--rates", "1"]
        assert main(args + ["--duration", "1", "--dmax", "-1"]) == 5
        assert "dmax must be at least 0" in capsys.readouterr().err


class TestClientAddresses:
    def client_commands(self, tmp_path, addr):
        members = tmp_path / "members.txt"
        members.write_text("A\nB\n")
        return [
            ["enroll", "--members", str(members), "--addr", addr],
            ["discover", "A", "B", "--addr", addr],
            ["loadprobe", "--addr", addr, "--uid", "A", "--rates", "2", "--duration", "1"],
        ]

    def test_unsupported_scheme_exit_code(self, tmp_path, capsys):
        for argv in self.client_commands(tmp_path, "ftp://127.0.0.1:1"):
            assert main(argv) == 5, argv
        assert "http(s)://" in capsys.readouterr().err

    def test_bare_addresses_mean_plaintext_http(self):
        assert sopal.cli._addr_url("h:80") == "http://h:80"
        assert sopal.cli._addr_url("::1:80") == "http://[::1]:80"
        assert sopal.cli._addr_url("[::1]:80") == "http://[::1]:80"
        assert sopal.cli._addr_url("https://h/p") == "https://h/p"

    def test_user_info_exit_code(self, tmp_path, capsys):
        for argv in self.client_commands(tmp_path, "http://u@127.0.0.1:1"):
            assert main(argv) == 5, argv
        assert "http(s)://" in capsys.readouterr().err

    def test_unexpected_status_exit_code(self, live_server, tmp_path, capsys):
        _, addr = live_server
        for argv in self.client_commands(tmp_path, f"http://{addr}/nothing"):
            assert main(argv) == 4, argv
            assert "server returned 404" in capsys.readouterr().err

    def test_untrusted_tls_server_exit_code(self, tls_server, tmp_path, capsys):
        store, _, url = tls_server
        for argv in self.client_commands(tmp_path, url):
            assert main(argv) == 4, argv
            assert "CERTIFICATE_VERIFY_FAILED" in capsys.readouterr().err
        assert store.record_count() == 0

    def test_trusted_tls_server(self, tls_server, tmp_path, monkeypatch, capsys):
        store, cert, url = tls_server
        assert url.startswith("https://")
        monkeypatch.setattr(
            ssl,
            "_create_default_https_context",
            lambda: ssl.create_default_context(cafile=cert),
        )
        enroll, discover, probe = self.client_commands(tmp_path, url)
        assert main(enroll) == 0
        assert store.record_of("A").kind == "member"
        assert store.record_of("B").kind == "member"
        assert main(discover) == 0
        out = capsys.readouterr().out
        assert "A: Dist=2" in out and "common_friends=C" in out
        assert main(probe) == 0
        report = capsys.readouterr().out.splitlines()
        assert report[3].split()[:4] == ["2", "2", "2", "0"]


class HtmlEverywhere(BaseHTTPRequestHandler):
    """Answers every request with 200 and a body that is not a download."""

    protocol_version = "HTTP/1.1"
    body = b"<html></html>"

    def log_message(self, fmt, *args):
        pass

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        self.send_response(200)
        self.send_header("Content-Length", str(len(self.body)))
        self.end_headers()
        self.wfile.write(self.body)

    do_GET = do_POST


class TestErrorClasses:
    """Each failure exits with its class's code, whichever command meets it."""

    @pytest.mark.parametrize(
        "command", ["serve --graph", "serve --members", "enroll --members", "simulate --graph"]
    )
    def test_a_directory_as_input_is_bad_configuration(
        self, tmp_path, graph_file, command, capsys
    ):
        name, flag = command.split()
        argv = [name, flag, str(tmp_path)]
        if name == "serve":
            argv += ["--addr", "127.0.0.1:0", "--insecure-plaintext"]
            if flag == "--members":
                argv += ["--graph", str(graph_file)]
        assert main(argv) == 5
        err = capsys.readouterr().err
        assert "bad configuration" in err and "unreachable" not in err

    def test_unreadable_local_file_is_bad_configuration(self, tmp_path, monkeypatch, capsys):
        def refuse(path):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(sopal.cli, "load_membership", refuse)
        assert main(["enroll", "--members", str(tmp_path / "members.txt")]) == 5
        assert "Permission denied" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param(b"<html></html>", id="html"),
            # parses, but carries a run above the requested d_max of 1
            pytest.param(
                b'{"format_version":2,"r_h":[[3,"%s"]],"r_u":[]}' % (b"ab" * 32),
                id="degree-out-of-range",
            ),
        ],
    )
    def test_malformed_download_body_is_a_server_failure(self, body, monkeypatch, capsys):
        monkeypatch.setattr(HtmlEverywhere, "body", body)
        with ThreadingHTTPServer(("127.0.0.1", 0), HtmlEverywhere) as httpd:
            thread = threading.Thread(target=httpd.serve_forever, args=(0.05,))
            thread.start()
            try:
                addr = "127.0.0.1:%d" % httpd.server_address[1]
                assert main(["discover", "A", "B", "--addr", addr]) == 4
            finally:
                httpd.shutdown()
                thread.join(timeout=10)
        err = capsys.readouterr().err
        assert "server unreachable: malformed download" in err

    def test_huge_reply_length_is_a_server_failure(self, tmp_path, capsys):
        members = tmp_path / "members.txt"
        members.write_text("A\n")
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def answer_huge_length():
                conn, _ = listener.accept()
                with conn:
                    conn.recv(4096)
                    conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: " + b"9" * 30 + b"\r\n\r\n")

            peer = threading.Thread(target=answer_huge_length)
            peer.start()
            addr = "127.0.0.1:%d" % listener.getsockname()[1]
            assert main(["enroll", "--members", str(members), "--addr", addr]) == 4
            peer.join(timeout=10)
            assert not peer.is_alive()
        err = capsys.readouterr().err
        assert "server unreachable" in err and "Traceback" not in err

    def test_silent_server_times_out_as_a_server_failure(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            host, port = listener.getsockname()
            handle = HttpServerHandle(f"http://{host}:{port}", timeout_s=0.2)
            with pytest.raises(ServerError) as raised:
                handle.download("mock:A", 1)
        assert isinstance(raised.value.__cause__, TimeoutError)


class TestServeParser:
    def test_requires_graph(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve"])
        assert exc.value.code == 2

    def test_bad_addr_exit_code(self, graph_file, capsys):
        assert main(["serve", "--graph", str(graph_file), "--addr", "nope"]) == 5

    def test_negative_dmax_exit_code(self, graph_file, capsys):
        argv = ["serve", "--graph", str(graph_file), "--addr", "127.0.0.1:0"]
        assert main(argv + ["--insecure-plaintext", "--dmax", "-1"]) == 5
        assert "d_max must be at least 0" in capsys.readouterr().err

    def test_plaintext_refused_without_flag(self, graph_file, capsys):
        code = main(["serve", "--graph", str(graph_file), "--addr", "127.0.0.1:0"])
        assert code == 5
        assert "TLS" in capsys.readouterr().err

    def test_busy_port_exit_code(self, graph_file, capsys):
        with socket.create_server(("127.0.0.1", 0)) as holder:
            addr = f"127.0.0.1:{holder.getsockname()[1]}"
            argv = ["serve", "--graph", str(graph_file), "--addr", addr]
            code = main(argv + ["--insecure-plaintext"])
        assert code == 5
        err = capsys.readouterr().err
        assert f"cannot listen on {addr}:" in err
        assert "unreachable" not in err

    def test_missing_certificate_exit_code(self, graph_file, tmp_path, capsys):
        missing = str(tmp_path / "absent.pem")
        argv = ["serve", "--graph", str(graph_file), "--addr", "127.0.0.1:0"]
        assert main(argv + ["--tls-cert", missing, "--tls-key", missing]) == 3

    def test_missing_members_file_exit_code_with_state(self, graph_file, tmp_path, capsys):
        argv = ["serve", "--graph", str(graph_file), "--addr", "127.0.0.1:0"]
        argv += ["--insecure-plaintext", "--members", str(tmp_path / "absent.txt")]
        assert main(argv + ["--state", str(tmp_path / "state.json")]) == 3

    @pytest.mark.parametrize(
        "extra, code",
        [
            (["--insecure-plaintext", "--dmax", "-1"], 5),
            (["--tls-cert", "absent.pem", "--tls-key", "absent.pem"], 3),
            (["--insecure-plaintext", "--members", "absent.txt"], 3),
        ],
        ids=["negative-dmax", "missing-certificate", "missing-members"],
    )
    def test_refused_arguments_write_no_state_file(
        self, graph_file, tmp_path, monkeypatch, capsys, extra, code
    ):
        monkeypatch.chdir(tmp_path)
        state = tmp_path / "state.json"
        argv = ["serve", "--graph", str(graph_file), "--addr", "127.0.0.1:0"]
        assert main(argv + ["--state", str(state), *extra]) == code
        assert not state.exists()

    def test_unusable_state_path_closes_the_bound_server(
        self, graph_file, tmp_path, monkeypatch, capsys
    ):
        servers = []

        class RecordedServer(SopalHttpServer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                servers.append(self)

        monkeypatch.setattr(sopal.cli, "SopalHttpServer", RecordedServer)
        state = tmp_path / "nodir" / "state.json"
        argv = ["serve", "--graph", str(graph_file), "--addr", "127.0.0.1:0"]
        assert main(argv + ["--insecure-plaintext", "--state", str(state)]) == 5
        assert f"cannot use state file {state}" in capsys.readouterr().err
        assert [server.socket.fileno() for server in servers] == [-1]

    def test_defaults_come_from_the_library_constants(self, monkeypatch):
        parser = build_parser()
        assert parser.parse_args(["serve", "--graph", "g"]).ttl_hours * 3600.0 == DEFAULT_TTL_S
        assert parser.parse_args(["discover", "A", "B"]).fp_target == DEFAULT_FP_TARGET
        monkeypatch.setattr(sopal.cli, "DEFAULT_TTL_S", 7200.0)
        monkeypatch.setattr(sopal.cli, "DEFAULT_FP_TARGET", 0.25)
        parser = build_parser()
        assert parser.parse_args(["serve", "--graph", "g"]).ttl_hours == 2.0
        assert parser.parse_args(["discover", "A", "B"]).fp_target == 0.25


class TestServeExpiry:
    def test_sweep_drops_stale_friends_and_rotates_ersatz(
        self, tmp_path, monkeypatch, capsys
    ):
        graph = tmp_path / "graph.txt"
        graph.write_text("A B\nA E\n")
        handlers = {}
        monkeypatch.setattr(
            sopal.cli.signal, "signal", lambda signum, handler: handlers.update({signum: handler})
        )
        monkeypatch.setattr(sopal.cli, "EXPIRY_SWEEP_S", 0.05)
        codes = []
        argv = [
            "serve", "--graph", str(graph), "--addr", "127.0.0.1:0",
            "--insecure-plaintext", "--ttl-hours", str(1.0 / 3600),
        ]
        server = threading.Thread(target=lambda: codes.append(main(argv)), daemon=True)
        server.start()
        try:
            deadline = time.time() + 10
            out = ""
            while not (handlers and "serving on " in out) and time.time() < deadline:
                time.sleep(0.01)
                out += capsys.readouterr().out
            url = out.split("serving on ")[1].split()[0]
            handle = HttpServerHandle(url)
            handle.upload("mock:B", new_capability())
            handle.upload("mock:A", new_capability())
            first = dict(handle.download("mock:A", 1).r_u)
            assert set(first) == {"B", "E"}
            # both records live one second; a sweep marks B stale, which
            # drops it from A's view, and gives ersatz E a fresh value
            view = first
            while time.time() < deadline and ("B" in view or view["E"] == first["E"]):
                time.sleep(0.05)
                view = dict(handle.download("mock:A", 1).r_u)
            handle.close()
            assert set(view) == {"E"}
            assert view["E"] != first["E"]
        finally:
            if signal.SIGTERM in handlers:
                handlers[signal.SIGTERM](signal.SIGTERM, None)
            server.join(timeout=10)
        assert not server.is_alive()
        assert codes == [0]


def start_serve(graph_file, *extra):
    """Start ``sopal serve`` in a subprocess; returns it and its URL."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "sopal.cli",
            "serve",
            "--graph", str(graph_file),
            "--addr", "127.0.0.1:0",
            "--insecure-plaintext",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.time() + 10
    url = None
    while time.time() < deadline and url is None:
        line = proc.stdout.readline()
        if not line:
            break
        if line.startswith("serving on "):
            url = line.split()[2]
    return proc, url


def stop_serve(proc) -> None:
    proc.send_signal(signal.SIGTERM)
    proc.communicate(timeout=15)


def download_body(url, uid) -> bytes:
    req = urllib.request.Request(
        f"{url}/v1/capabilities?dmax=1", headers={"Authorization": f"Bearer mock:{uid}"}
    )
    with urllib.request.urlopen(req, timeout=5) as resp:
        return resp.read()


class TestServeProcess:
    def test_serves_preenrolls_and_snapshots_on_sigterm(self, tmp_path, graph_file):
        members = tmp_path / "members.txt"
        members.write_text("A\nB\n")
        snapshot = tmp_path / "snap.json"
        proc, url = start_serve(graph_file, "--members", str(members), "--state", str(snapshot))
        try:
            assert url, "server never announced its address"
            with urllib.request.urlopen(f"{url}/v1/health", timeout=5) as resp:
                health = json.load(resp)
            assert health["status"] == "ok"
            assert health["records"] >= 2  # A and B pre-enrolled
        finally:
            stop_serve(proc)
        assert proc.returncode == 0
        body = json.loads(snapshot.read_text())
        assert body["format_version"] == 3
        assert {r["id"] for r in body["records"]} >= {"A", "B"}

    def test_restart_from_state_serves_the_same_download(self, tmp_path, graph_file):
        members = tmp_path / "members.txt"
        members.write_text("A\nB\n")
        state = tmp_path / "state.json"
        proc, url = start_serve(graph_file, "--members", str(members), "--state", str(state))
        try:
            assert url, "server never announced its address"
            before = download_body(url, "A")
        finally:
            stop_serve(proc)
        assert proc.returncode == 0
        # no --members this time: every record comes from the state file,
        # and the new TTL applies only to records made from now on
        proc, url = start_serve(graph_file, "--state", str(state), "--ttl-hours", "2")
        try:
            assert url, "restarted server never announced its address"
            assert download_body(url, "A") == before
        finally:
            stop_serve(proc)
        assert proc.returncode == 0
        body = json.loads(state.read_text())
        assert body["default_ttl_s"] == 7200.0
        assert {r["ttl_s"] for r in body["records"]} == {48 * 3600.0}

    def test_malformed_state_file_exit_code(self, tmp_path, graph_file):
        state = tmp_path / "state.json"
        state.write_text("{not json")
        argv = ["serve", "--graph", str(graph_file), "--addr", "127.0.0.1:0"]
        argv += ["--insecure-plaintext", "--state", str(state)]
        proc = subprocess.run(
            [sys.executable, "-m", "sopal.cli", *argv], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 5
        assert "bad configuration" in proc.stderr
        assert "serving on" not in proc.stdout
        assert state.read_text() == "{not json"

    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    def test_unusable_state_path_exit_code(self, tmp_path, graph_file, where):
        state = tmp_path / "nodir" / "s.json" if where == "missing-directory" else tmp_path
        argv = ["serve", "--graph", str(graph_file), "--addr", "127.0.0.1:0"]
        argv += ["--insecure-plaintext", "--state", str(state)]
        proc = subprocess.run(
            [sys.executable, "-m", "sopal.cli", *argv], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 5
        assert f"cannot use state file {state}" in proc.stderr
        assert "serving on" not in proc.stdout


class TestTlsProcess:
    def test_ssl_cert_file_makes_the_cli_trust_the_server(self, tls_server, tmp_path):
        store, cert, url = tls_server
        members = tmp_path / "members.txt"
        members.write_text("A\n")
        argv = [sys.executable, "-m", "sopal.cli", "enroll", "--members", str(members)]
        argv += ["--addr", url]
        env = {k: v for k, v in os.environ.items() if not k.startswith("SSL_CERT_")}
        untrusted = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert untrusted.returncode == 4, untrusted.stderr
        assert "CERTIFICATE_VERIFY_FAILED" in untrusted.stderr
        env["SSL_CERT_FILE"] = cert
        trusted = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert trusted.returncode == 0, trusted.stderr
        assert store.record_of("A").kind == "member"
