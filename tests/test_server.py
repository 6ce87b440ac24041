"""HTTP endpoints, persistent connections, authentication, and the load
probe."""

import contextlib
import http.client
import json
import os
import re
import socket
import ssl
import statistics
import string
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sopal.client
from sopal.client import HttpServerHandle, load_probe
from sopal.crypto import new_capability
from sopal.graph import SocialGraph
from sopal.server import (
    IDLE_TIMEOUT_S,
    MAX_BODY_BYTES,
    MAX_HEADER_LINES,
    MAX_LINE_BYTES,
    ConnectorError,
    MockOsnConnector,
    SopalHttpServer,
    _Handler,
)
from sopal.store import AuthError, CapabilityStore, NotEnrolledError, ServerError

from helpers import (
    adjacency_from_edges,
    assert_anonymous_runs,
    no_resource_warnings,
    self_signed_cert,
)


GROUND = adjacency_from_edges(
    [("A", "B"), ("A", "C"), ("B", "C"), ("C", "D"), ("D", "E")]
)


@pytest.fixture(scope="module")
def world():
    connector = MockOsnConnector(GROUND)
    store = CapabilityStore(SocialGraph(), connector)
    server = SopalHttpServer(store, connector, d_max=2, insecure_plaintext=True)
    server.start()
    yield store, connector, server
    server.stop()


def request(server, method, path, token=None, body=None):
    headers = {}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    req = urllib.request.Request(
        f"{server.url}{path}", data=body, headers=headers, method=method
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


@pytest.fixture
def fresh_server():
    """A started plaintext server of its own, with A enrolled."""
    connector = MockOsnConnector(GROUND)
    store = CapabilityStore(SocialGraph(), connector)
    store.upload_capability("A", new_capability())
    server = SopalHttpServer(store, connector, d_max=2, insecure_plaintext=True)
    server.start()
    yield server
    server.stop()


def exchange(conn, method, path, token=None, body=None):
    headers = {"Authorization": f"Bearer {token}"} if token else {}
    conn.request(method, path, body=body, headers=headers)
    resp = conn.getresponse()
    return resp.status, resp.read()


@contextlib.contextmanager
def raw_connection(server):
    """A socket to ``server`` and a binary file that reads from it.  Reads
    time out before the server's idle close, which would pass for a close
    after the reply."""
    with socket.create_connection(server.address, timeout=IDLE_TIMEOUT_S / 2) as sock:
        with sock.makefile("rb") as reader:
            yield sock, reader


def read_reply(reader):
    """One reply read without http.client: (status, headers keyed by
    lower-cased name, body), or None when the connection closed first."""
    status_line = reader.readline()
    if not status_line:
        return None
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", 0)))
    return int(status_line.split()[1]), headers, body


def raw_request(start, *fields, end=b"\r\n"):
    """A request's bytes: its request line and field lines, then ``end``
    (the blank line and any body)."""
    return "".join(f"{line}\r\n" for line in (start, *fields)).encode("latin-1") + end


DOWNLOAD = ("GET /v1/capabilities?dmax=1 HTTP/1.1", "Host: sopal", "Authorization: Bearer mock:A")


def upload(uid, *fields, cap=None):
    """An upload request for ``uid`` with ``fields``, the hex body last."""
    body = (cap or new_capability()).hex().encode()
    start = ("POST /v1/capability HTTP/1.1", "Host: sopal", f"Authorization: Bearer mock:{uid}")
    return raw_request(*start, *fields, end=b"\r\n" + body)


def assert_refused_and_closed(reader, code):
    status, headers, body = read_reply(reader)
    assert (status, headers["connection"]) == (code, "close")
    assert headers["content-type"] == "application/json"
    assert set(json.loads(body)) == {"error"}
    assert reader.read(1) == b""


class TestConnector:
    def test_mock_token_resolves_known_user(self):
        connector = MockOsnConnector(GROUND)
        assert connector.authenticate("mock:A") == "A"

    def test_mock_token_for_unknown_user_rejected(self):
        connector = MockOsnConnector(GROUND)
        with pytest.raises(AuthError):
            connector.authenticate("mock:nobody")

    def test_one_auth_error_class_for_server_and_client(self):
        assert AuthError is sopal.client.AuthError

    def test_friends_of_unknown_user(self):
        connector = MockOsnConnector(GROUND)
        assert connector.friends_of("A") == ["B", "C"]
        with pytest.raises(ConnectorError):
            connector.friends_of("nobody")


class TestEndpoints:
    def test_health(self, world):
        _, _, server = world
        status, body = request(server, "GET", "/v1/health")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_upload_then_download(self, world):
        store, _, server = world
        cap = new_capability()
        status, _ = request(
            server, "POST", "/v1/capability", token="mock:A", body=cap.hex().encode()
        )
        assert status == 200
        assert store.record_of("A").cap == cap
        status, body = request(server, "GET", "/v1/capabilities?dmax=1", token="mock:A")
        assert status == 200
        parsed = json.loads(body)
        assert {e["id"] for e in parsed["r_u"]} == {"B", "C"}

    def test_bad_token_rejected_upload_no_side_effect(self, world):
        store, _, server = world
        count = store.record_count()
        status, _ = request(
            server,
            "POST",
            "/v1/capability",
            token="mock:nobody",
            body=new_capability().hex().encode(),
        )
        assert status == 401
        assert store.record_count() == count

    def test_missing_token_rejected(self, world):
        _, _, server = world
        status, body = request(server, "GET", "/v1/capabilities")
        assert status == 401

    def test_malformed_capability_rejected(self, world):
        _, _, server = world
        status, body = request(
            server, "POST", "/v1/capability", token="mock:A", body=b"zz-not-hex"
        )
        assert status == 400
        status, body = request(
            server, "POST", "/v1/capability", token="mock:A", body=b"aabb"
        )
        assert status == 400
        assert "bits" in json.loads(body)["error"]

    def test_ersatz_user_cannot_download(self, world):
        _, _, server = world
        # E exists in the OSN and as an ersatz record, but never enrolled
        status, body = request(server, "GET", "/v1/capabilities?dmax=1", token="mock:E")
        assert status == 403
        assert json.loads(body)["error"] == "not-enrolled"

    def test_download_includes_ersatz_friends(self, world):
        store, _, server = world
        # D never uploaded; A's view still carries a capability for D by
        # way of the ersatz record created when C enrolled
        request(
            server,
            "POST",
            "/v1/capability",
            token="mock:C",
            body=new_capability().hex().encode(),
        )
        status, body = request(server, "GET", "/v1/capabilities?dmax=1", token="mock:C")
        parsed = json.loads(body)
        assert {e["id"] for e in parsed["r_u"]} == {"A", "B", "D"}

    def test_dmax_clamped_to_server_limit(self, world):
        _, _, server = world
        _, body_big = request(server, "GET", "/v1/capabilities?dmax=99", token="mock:A")
        _, body_two = request(server, "GET", "/v1/capabilities?dmax=2", token="mock:A")
        assert body_big == body_two

    def test_dmax_must_be_integer(self, world):
        _, _, server = world
        status, _ = request(server, "GET", "/v1/capabilities?dmax=x", token="mock:A")
        assert status == 400

    @pytest.mark.parametrize(
        "dmax", ["-1", "1_0", "+1", "", pytest.param("1" * 5000, id="5000-digits")]
    )
    def test_dmax_must_be_ascii_digits(self, world, dmax):
        _, _, server = world
        status, body = request(server, "GET", f"/v1/capabilities?dmax={dmax}", token="mock:A")
        assert status == 400
        assert json.loads(body) == {"error": "dmax must be a non-negative integer"}

    def test_unknown_route_404(self, world):
        _, _, server = world
        assert request(server, "GET", "/v1/nothing", token="mock:A")[0] == 404
        assert request(server, "POST", "/v1/nothing", token="mock:A")[0] == 404

    def test_repeated_download_byte_identical(self, world):
        _, _, server = world
        first = request(server, "GET", "/v1/capabilities?dmax=2", token="mock:A")[1]
        second = request(server, "GET", "/v1/capabilities?dmax=2", token="mock:A")[1]
        assert first == second

    def test_higher_order_entries_carry_no_ids(self, world):
        _, _, server = world
        _, body = request(server, "GET", "/v1/capabilities?dmax=2", token="mock:A")
        parsed = json.loads(body)
        assert parsed["r_h"], "expected higher-order entries"
        assert_anonymous_runs(parsed)

    def test_token_scopes_to_its_own_uid(self, world):
        store, _, server = world
        # the API carries no uid parameter at all: what a token reads is
        # exactly the store's view for the token's uid, nothing else
        _, body = request(server, "GET", "/v1/capabilities?dmax=1", token="mock:A")
        assert json.loads(body) == json.loads(store.distribute("A", 1).to_json())
        cap = new_capability()
        request(server, "POST", "/v1/capability", token="mock:B", body=cap.hex().encode())
        assert store.record_of("B").cap == cap
        assert store.record_of("A").cap != cap


    def test_token_without_the_mock_prefix_rejected(self, world):
        _, _, server = world
        status, body = request(server, "GET", "/v1/capabilities", token="oauth:A")
        assert status == 401
        assert json.loads(body) == {"error": "unknown token"}

    def test_connector_failure_answers_502_and_stores_nothing(self):
        class FailingConnector(MockOsnConnector):
            def friends_of(self, uid):
                raise ConnectorError("OSN unavailable")

        connector = FailingConnector(GROUND)
        store = CapabilityStore(SocialGraph(), connector)
        with SopalHttpServer(store, connector, insecure_plaintext=True) as server:
            body = new_capability().hex().encode()
            status, body = request(server, "POST", "/v1/capability", token="mock:A", body=body)
        assert status == 502
        assert json.loads(body) == {"error": "connector failure: OSN unavailable"}
        assert store.record_count() == 0


class TestPersistentConnections:
    def test_requests_one_after_another_share_one_connection(self, fresh_server, connects):
        handle = HttpServerHandle(fresh_server.url)
        for _ in range(5):
            assert [fid for fid, _ in handle.download("mock:A", 1).r_u] == ["B", "C"]
        handle.upload("mock:A", new_capability())
        assert len(connects) == 1
        with no_resource_warnings():
            # from five threads, run one after another
            for _ in range(5):
                t = threading.Thread(target=handle.download, args=("mock:A", 1))
                t.start()
                t.join(timeout=10)
                assert not t.is_alive()
            assert len(connects) == 1
            handle.close()
        assert [conn.sock for conn in connects] == [None]

    def test_close_closes_the_connections_of_ended_pool_workers(self, fresh_server, connects):
        handle = HttpServerHandle(fresh_server.url)
        with no_resource_warnings():
            with ThreadPoolExecutor(3) as pool:
                downloads = [pool.submit(handle.download, "mock:A", 1) for _ in range(9)]
            assert all(d.result().r_u for d in downloads)
            handle.close()
        assert 1 <= len(connects) <= 3
        assert [conn.sock for conn in connects] == [None] * len(connects)

    def test_racing_first_requests_close_each_ended_connection_once(self, fresh_server, connects):
        # Each wave's requests race to take and put back the connections
        # that the last wave left idle.
        handle = HttpServerHandle(fresh_server.url)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with no_resource_warnings():
                for _ in range(8):
                    with ThreadPoolExecutor(8) as pool:
                        downloads = [pool.submit(handle.download, "mock:A", 1) for _ in range(16)]
                    assert all(d.result().r_u for d in downloads)
                handle.close()
        finally:
            sys.setswitchinterval(interval)
        assert [conn.sock for conn in connects] == [None] * len(connects)

    def test_kept_open_replies_do_not_wait_for_delayed_acks(self, fresh_server, connects):
        # Headers and body in two segments with Nagle on stall each reply
        # on a kept-open connection until the client's delayed ACK (~40 ms).
        conn = http.client.HTTPConnection(*fresh_server.address, timeout=10)
        times = []
        for _ in range(20):
            start = time.perf_counter()
            status, _ = exchange(conn, "GET", "/v1/capabilities?dmax=1", "mock:A")
            times.append(time.perf_counter() - start)
            assert status == 200
        conn.close()
        assert len(connects) == 1
        assert statistics.median(times) < 0.02

    def test_idle_closed_connection_is_retried_once(self, fresh_server, connects, monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        handle = HttpServerHandle(fresh_server.url)
        handle.download("mock:A", 1)
        time.sleep(0.6)
        assert [fid for fid, _ in handle.download("mock:A", 1).r_u] == ["B", "C"]
        handle.close()
        assert len(connects) == 2

    def test_stop_closes_open_connections(self, fresh_server):
        handle = HttpServerHandle(fresh_server.url)
        handle.download("mock:A", 1)
        start = time.perf_counter()
        fresh_server.stop()
        assert time.perf_counter() - start < 1.0
        with pytest.raises(ServerError) as raised:
            handle.download("mock:A", 1)
        assert isinstance(raised.value.__cause__, ConnectionError)

    @pytest.mark.parametrize("connections", [1, 16])
    def test_stop_waits_for_the_handler_threads(
        self, fresh_server, monkeypatch, connects, connections
    ):
        finish = _Handler.finish

        def slow_finish(handler):
            time.sleep(0.2)
            finish(handler)

        monkeypatch.setattr(_Handler, "finish", slow_finish)
        before = set(threading.enumerate())
        downloaded = threading.Barrier(connections + 1)
        stopped = threading.Event()

        def client():
            # A handle of its own, so no client takes another's idle connection.
            handle = HttpServerHandle(fresh_server.url)
            handle.download("mock:A", 1)
            downloaded.wait(timeout=10)
            stopped.wait(timeout=10)
            handle.close()

        clients = [threading.Thread(target=client) for _ in range(connections)]
        for t in clients:
            t.start()
        downloaded.wait(timeout=10)
        assert len(connects) == connections
        start = time.perf_counter()
        fresh_server.stop()
        elapsed = time.perf_counter() - start
        left = [t for t in threading.enumerate() if t not in before and t not in clients]
        stopped.set()
        for t in clients:
            t.join(timeout=10)
            assert not t.is_alive()
        assert elapsed < 1.0
        assert left == []

    def test_error_statuses_on_a_reused_connection(self, fresh_server, connects):
        handle = HttpServerHandle(fresh_server.url)
        handle.download("mock:A", 1)
        with pytest.raises(AuthError, match="authentication failed"):
            handle.download("mock:nobody", 1)
        with pytest.raises(NotEnrolledError):
            handle.download("mock:E", 1)
        with pytest.raises(RuntimeError, match="404"):
            handle._request("GET", "/v1/nothing", "mock:A")
        assert [fid for fid, _ in handle.download("mock:A", 1).r_u] == ["B", "C"]
        handle.close()
        assert len(connects) == 1

    @pytest.mark.parametrize(
        "path, token, code",
        [("/v1/capability", "mock:nobody", 401), ("/v1/nothing", "mock:A", 404)],
    )
    def test_refused_post_body_is_not_read_as_a_request(self, fresh_server, path, token, code):
        conn = http.client.HTTPConnection(*fresh_server.address, timeout=10)
        body = new_capability().hex().encode()
        assert exchange(conn, "POST", path, token, body)[0] == code
        assert exchange(conn, "GET", "/v1/health")[0] == 200
        conn.close()

    @pytest.mark.parametrize(
        "length_header, code",
        [(f"Content-Length: {MAX_BODY_BYTES + 1}\r\n", 413), ("", 400)],
    )
    def test_unread_post_body_closes_the_connection(self, fresh_server, length_header, code):
        with socket.create_connection(fresh_server.address, timeout=10) as sock:
            sock.sendall(
                b"POST /v1/capability HTTP/1.1\r\nHost: sopal\r\n"
                b"Authorization: Bearer mock:A\r\n" + length_header.encode() + b"\r\n"
            )
            resp = http.client.HTTPResponse(sock)
            resp.begin()
            resp.read()
            assert resp.status == code
            assert resp.getheader("Connection") == "close"
            assert sock.recv(1) == b""

    @pytest.mark.parametrize("declared", ["9" * 5000, "0" * 5000 + str(MAX_BODY_BYTES + 1)])
    def test_overlong_content_length_answers_413(self, fresh_server, capsys, declared):
        # more digits than int() converts: refused on the digit count alone
        with socket.create_connection(fresh_server.address, timeout=10) as sock:
            sock.sendall(
                b"POST /v1/capability HTTP/1.1\r\nHost: sopal\r\n"
                b"Content-Length: " + declared.encode() + b"\r\n\r\n"
            )
            resp = http.client.HTTPResponse(sock)
            resp.begin()
            resp.read()
            assert (resp.version, resp.status) == (11, 413)
            assert resp.getheader("Connection") == "close"
        assert "Traceback" not in capsys.readouterr().err

    def test_https_url_gets_verified_tls(self, tmp_path, connects, monkeypatch):
        cert, key = self_signed_cert(tmp_path)
        connector = MockOsnConnector(GROUND)
        store = CapabilityStore(SocialGraph(), connector)
        store.upload_capability("A", new_capability())
        with SopalHttpServer(store, connector, tls_cert=cert, tls_key=key) as server:
            assert server.url.startswith("https://")
            with pytest.raises(ServerError) as raised:
                HttpServerHandle(server.url).download("mock:A", 1)
            assert isinstance(raised.value.__cause__, ssl.SSLCertVerificationError)
            monkeypatch.setattr(
                ssl,
                "_create_default_https_context",
                lambda: ssl.create_default_context(cafile=cert),
            )
            handle = HttpServerHandle(server.url)
            for _ in range(3):
                assert [fid for fid, _ in handle.download("mock:A", 1).r_u] == ["B", "C"]
            handle.close()
        assert len(connects) == 2

    def test_silent_client_does_not_stall_the_tls_handshake(self, tmp_path, monkeypatch):
        cert, key = self_signed_cert(tmp_path)
        connector = MockOsnConnector(GROUND)
        store = CapabilityStore(SocialGraph(), connector)
        store.upload_capability("A", new_capability())
        monkeypatch.setattr(
            ssl,
            "_create_default_https_context",
            lambda: ssl.create_default_context(cafile=cert),
        )
        with SopalHttpServer(store, connector, tls_cert=cert, tls_key=key) as server:
            # accepted first, and never sends its ClientHello
            with socket.create_connection(server.address):
                handle = HttpServerHandle(server.url, timeout_s=3)
                assert [fid for fid, _ in handle.download("mock:A", 1).r_u] == ["B", "C"]
                handle.close()


class TestRequestFraming:
    """The server's own one-pass read of a request's framing (RFC 9112),
    driven over raw sockets."""

    # RFC 9110 token names, but those the server reads other than Connection,
    # which leaves a one-request connection's reply as it is
    field_name = st.text(
        "!#$%&'*+-.^_`|~" + string.digits + string.ascii_letters, min_size=1, max_size=12
    ).filter(
        lambda name: name.lower()
        not in {"authorization", "content-length", "transfer-encoding", "expect", "host"}
    )
    visible = "".join(map(chr, range(0x20, 0x7F)))  # with SP, which values may hold
    field_value = st.text(visible, max_size=30)
    extra_fields = st.lists(st.builds("{}: {}".format, field_name, field_value), max_size=12)
    whitespace = st.text(" \t", min_size=1, max_size=3)
    bad_line = st.one_of(
        st.text(visible.replace(":", ""), min_size=1, max_size=30),
        st.builds("{}{}: {}".format, field_name, whitespace, field_value),
        st.builds("{}{}".format, whitespace, field_value),
    )

    @staticmethod
    def records(server):
        return [server.store.record_of(uid) for uid in sorted(GROUND)]

    @pytest.mark.parametrize("uid", ["A", "E"])
    def test_differing_content_lengths_are_refused_and_close(self, fresh_server, uid):
        before = self.records(fresh_server)
        with raw_connection(fresh_server) as (sock, reader):
            sock.sendall(upload(uid, "Content-Length: 64", "Content-Length: 0"))
            assert_refused_and_closed(reader, 400)
        assert self.records(fresh_server) == before
        assert request(fresh_server, "GET", "/v1/capabilities?dmax=1", token="mock:A")[0] == 200

    def test_a_body_cut_short_is_refused_and_changes_nothing(self, fresh_server):
        before = self.records(fresh_server)
        with raw_connection(fresh_server) as (sock, reader):
            sock.sendall(upload("A", "Content-Length: 65"))  # one byte more than sent
            sock.shutdown(socket.SHUT_WR)
            assert_refused_and_closed(reader, 400)
        assert self.records(fresh_server) == before

    @pytest.mark.parametrize("lengths", [("64", "64"), ("64, 64",), ("64 , 64", "64")])
    def test_repeated_equal_content_lengths_are_accepted(self, fresh_server, lengths):
        cap = new_capability()
        with raw_connection(fresh_server) as (sock, reader):
            sock.sendall(upload("A", *(f"Content-Length: {n}" for n in lengths), cap=cap))
            assert read_reply(reader)[0] == 200
        assert fresh_server.store.record_of("A").cap == cap

    def test_chunked_post_is_refused_and_closes(self, fresh_server):
        before = self.records(fresh_server)
        with raw_connection(fresh_server) as (sock, reader):
            head = upload("E", "Transfer-Encoding: chunked")[:-64]
            sock.sendall(head + b"40\r\n" + new_capability().hex().encode() + b"\r\n0\r\n\r\n")
            assert_refused_and_closed(reader, 501)
        assert self.records(fresh_server) == before

    @pytest.mark.parametrize(
        "fields",
        [
            pytest.param(["X-Fill: v"] * (MAX_HEADER_LINES - 2), id="100-lines"),
            pytest.param(["X-Long: " + "a" * (MAX_LINE_BYTES - 10)], id="65536-byte-line"),
        ],
    )
    def test_header_section_at_its_bounds_is_read(self, fresh_server, fields):
        with raw_connection(fresh_server) as (sock, reader):
            sock.sendall(raw_request(*DOWNLOAD, *fields))
            assert read_reply(reader)[0] == 200

    @pytest.mark.parametrize(
        "fields, code",
        [
            pytest.param(["X-Fill: v"] * (MAX_HEADER_LINES - 1), 431, id="101-lines"),
            pytest.param(["X-Long: " + "a" * (MAX_LINE_BYTES - 9)], 431, id="65537-byte-line"),
            *(
                pytest.param([line], 400, id=repr(line))
                for line in ["X-Spaced : v", "X-Tabbed\t: v", " folded", "\tfolded", "no colon"]
            ),
        ],
    )
    def test_refused_header_section_closes(self, fresh_server, fields, code):
        with raw_connection(fresh_server) as (sock, reader):
            sock.sendall(raw_request(*DOWNLOAD, *fields))
            assert_refused_and_closed(reader, code)

    @pytest.mark.parametrize(
        "start, code",
        [
            ("garbage", 400),
            ("GET /v1/health", 400),  # HTTP/0.9
            ("GET /v1/health HTTP/1", 400),
            ("GET  /v1/health HTTP/1.1", 400),
            ("GET /v1/health HTTP/2.0", 505),
            ("GET /v1/health HTTP/0.9", 505),
            pytest.param(f"GET /{'a' * 70_000} HTTP/1.1", 414, id="70000-byte-line"),
        ],
    )
    def test_malformed_request_line_is_refused_and_closes(self, fresh_server, start, code):
        with raw_connection(fresh_server) as (sock, reader):
            sock.sendall(raw_request(start))
            assert_refused_and_closed(reader, code)

    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH"])
    def test_other_methods_answer_501_and_close(self, fresh_server, method):
        before = self.records(fresh_server)
        with raw_connection(fresh_server) as (sock, reader):
            sock.sendall(upload("A", "Content-Length: 64").replace(b"POST", method.encode(), 1))
            assert_refused_and_closed(reader, 501)
        assert self.records(fresh_server) == before

    @pytest.mark.parametrize(
        "start, code",
        [
            pytest.param("HEAD /v1/health HTTP/1.1", 501, id="1.1-501"),
            pytest.param("HEAD /v1/health HTTP/2.0", 505, id="2.0-505"),
        ],
    )
    def test_head_answers_501_without_a_body(self, fresh_server, start, code):
        with raw_connection(fresh_server) as (sock, reader):
            sock.sendall(raw_request(start, "Host: sopal"))
            status_line = reader.readline()
            head = reader.read()
        assert status_line.startswith(b"HTTP/1.1 %d " % code)
        assert b"\r\nContent-Type: application/json\r\n" in head
        assert b"\r\nConnection: close\r\n" in head
        assert head.endswith(b"\r\n\r\n")

    @pytest.mark.parametrize(
        "start, hosts",
        [
            pytest.param(DOWNLOAD[0], [], id="1.1-without-host"),
            pytest.param(DOWNLOAD[0], ["Host: sopal", "Host: sopal"], id="1.1-two-hosts"),
            pytest.param(DOWNLOAD[0].replace("1.1", "1.0"), ["Host: a", "Host: b"], id="1.0-two"),
        ],
    )
    def test_a_missing_or_repeated_host_is_refused_and_closes(self, fresh_server, start, hosts):
        with raw_connection(fresh_server) as (sock, reader):
            sock.sendall(raw_request(start, *hosts, "Authorization: Bearer mock:A"))
            assert_refused_and_closed(reader, 400)

    def test_http10_needs_no_host(self, fresh_server):
        with raw_connection(fresh_server) as (sock, reader):
            sock.sendall(raw_request("GET /v1/health HTTP/1.0"))
            assert read_reply(reader)[0] == 200

    def test_framing_is_refused_before_a_missing_host(self, fresh_server):
        with raw_connection(fresh_server) as (sock, reader):
            # no Host field, as in CI's one-liner
            start = "POST /v1/capability HTTP/1.1"
            sock.sendall(raw_request(start, "Content-Length: " + "9" * 5000))
            assert_refused_and_closed(reader, 413)

    def test_each_reply_is_one_write(self, fresh_server, monkeypatch):
        writes = []
        setup = _Handler.setup

        def recording_setup(handler):
            setup(handler)
            write = handler.wfile.write
            handler.wfile.write = lambda data: (writes.append(bytes(data)), write(data))[1]

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        cap = new_capability()
        expecting = upload("A", "Content-Length: 64", "Expect: 100-continue", cap=cap)
        with raw_connection(fresh_server) as (sock, reader):
            sock.sendall(expecting[:-64])
            assert read_reply(reader)[0] == 100
            sock.sendall(expecting[-64:])
            sock.sendall(raw_request(*DOWNLOAD))
            sock.sendall(raw_request("GET /v1/nothing HTTP/1.1", "Host: sopal"))
            sock.sendall(raw_request("PUT /v1/capability HTTP/1.1", "Host: sopal"))
            replies = [read_reply(reader) for _ in range(4)]
            assert reader.read(1) == b""
        assert [status for status, _, _ in replies] == [200, 200, 404, 501]
        assert writes[0] == b"HTTP/1.1 100 Continue\r\n\r\n"
        assert len(writes) == 5
        for write, (_, headers, body) in zip(writes[1:], replies):
            head, _, rest = write.partition(b"\r\n\r\n")
            assert rest == body and int(headers["content-length"]) == len(body)

    @pytest.mark.parametrize("name", ["authorization", "AUTHORIZATION", "aUtHoRiZaTiOn"])
    def test_field_names_are_case_insensitive(self, fresh_server, name):
        start, host, _ = DOWNLOAD
        with raw_connection(fresh_server) as (sock, reader):
            sock.sendall(raw_request(start, host, f"{name}: Bearer mock:A"))
            status, _, body = read_reply(reader)
        assert status == 200
        assert [e["id"] for e in json.loads(body)["r_u"]] == ["B", "C"]

    @pytest.mark.parametrize(
        "version, fields, stays_open",
        [
            ("HTTP/1.0", [], False),
            ("HTTP/1.0", ["Connection: keep-alive"], True),
            ("HTTP/1.1", [], True),
            ("HTTP/1.1", ["Connection: close"], False),
        ],
    )
    def test_keep_alive_rules(self, fresh_server, version, fields, stays_open):
        start = DOWNLOAD[0].replace("HTTP/1.1", version)
        with raw_connection(fresh_server) as (sock, reader):
            sock.sendall(raw_request(start, *DOWNLOAD[1:], *fields))
            assert read_reply(reader)[0] == 200
            if stays_open:
                sock.sendall(raw_request(start, *DOWNLOAD[1:], *fields))
                assert read_reply(reader)[0] == 200
            else:
                assert reader.read(1) == b""

    def test_a_get_body_is_not_read_as_the_next_request(self, fresh_server):
        with raw_connection(fresh_server) as (sock, reader):
            sock.sendall(raw_request(*DOWNLOAD, "Content-Length: 5", end=b"\r\nhello"))
            status, _, body = read_reply(reader)
            sock.sendall(raw_request(*DOWNLOAD))
            assert read_reply(reader)[::2] == (status, body)
        assert status == 200

    def test_expect_100_continue_is_answered_before_the_body_is_read(self, fresh_server):
        cap = new_capability()
        request_bytes = upload("A", "Content-Length: 64", "Expect: 100-continue", cap=cap)
        head, body = request_bytes[:-64], request_bytes[-64:]
        with raw_connection(fresh_server) as (sock, reader):
            sock.sendall(head)
            assert read_reply(reader) == (100, {}, b"")
            sock.sendall(body)
            assert read_reply(reader)[0] == 200
        assert fresh_server.store.record_of("A").cap == cap

    def test_no_request_goes_through_the_email_parser(self, fresh_server, monkeypatch):
        # http.server parses request heads, and http.client's getresponse
        # reply heads, by calling http.client.parse_headers
        def email_parse(*args, **kwargs):
            raise AssertionError("http.client.parse_headers called")

        monkeypatch.setattr(http.client, "parse_headers", email_parse)
        cap = new_capability()
        with raw_connection(fresh_server) as (sock, reader):
            sock.sendall(upload("A", "Content-Length: 64", cap=cap))
            assert read_reply(reader)[0] == 200
            sock.sendall(raw_request(*DOWNLOAD))
            assert read_reply(reader)[0] == 200
        assert fresh_server.store.record_of("A").cap == cap
        handle = HttpServerHandle(fresh_server.url)
        cap = new_capability()
        handle.upload("mock:A", cap)
        assert [fid for fid, _ in handle.download("mock:A", 1).r_u] == ["B", "C"]
        handle.close()
        assert fresh_server.store.record_of("A").cap == cap

    @settings(
        max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(extra=extra_fields)
    def test_extra_fields_leave_a_download_as_it_is(self, fresh_server, extra):
        replies = []
        for fields in ([], extra):
            with raw_connection(fresh_server) as (sock, reader):
                sock.sendall(raw_request(*DOWNLOAD, *fields))
                status, _, body = read_reply(reader)
                replies.append((status, body))
        assert replies[0][0] == 200
        assert replies[1] == replies[0]

    @settings(
        max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(extra=extra_fields, bad=bad_line, data=st.data())
    def test_a_malformed_line_anywhere_is_refused_and_closes(self, fresh_server, extra, bad, data):
        at = data.draw(st.integers(0, len(extra)), label="at")
        fields = [*extra[:at], bad, *extra[at:]]
        with raw_connection(fresh_server) as (sock, reader):
            sock.sendall(raw_request(*DOWNLOAD, *fields))
            assert_refused_and_closed(reader, 400)

    # The parts of a request the property test below may make odd.  None
    # holds a space where a request line has none, and no body holds one
    # at all, so no line but the first parses as a request line.
    method = st.sampled_from(["GET", "POST", "HEAD", "get", "post", "PUT", "BREW", ""])
    dmax = st.one_of(
        st.integers(-3, 10**6).map(str),
        st.text(visible.replace(" ", "").replace("&", ""), max_size=6),
        st.just("9" * 5000),
    )
    query = st.lists(
        st.one_of(st.builds("dmax={}".format, dmax), st.sampled_from(["", "dmax", "x=1"])),
        max_size=3,
    ).map("&".join)
    target = st.builds(
        "{}{}".format,
        st.sampled_from(
            ["/v1/capabilities", "/v1/capability", "/v1/health", "/", "*", "/v1/health/",
             "/" + "a" * 70_000]
        ),
        st.one_of(st.just(""), st.builds("?{}".format, query)),
    )
    version = st.sampled_from(
        ["HTTP/1.0", "HTTP/2.0", "HTTP/0.9", "HTTP/1.2", "HTTP/1", "http/1.1", ""]
    )
    authorization = st.sampled_from(
        ["Bearer mock:A", "Bearer mock:B", "Bearer mock:E", "Bearer mock:Z", "Bearer mock:",
         "Bearer", "bearer mock:A", "Basic bW9jazpB", "Bearer  mock:A\t", "Bearer mock:\xe9"]
    ).map("Authorization: {}".format)
    request_field = st.sampled_from(
        ["Host: sopal", "Transfer-Encoding: chunked", "Transfer-Encoding: identity",
         "Expect: 100-continue", "Expect: 100-Continue", "Expect: nothing",
         "Connection: close", "Connection: keep-alive", "X-Odd: \xff"]
    )
    odd_length = st.sampled_from(
        ["", "-1", "+64", "0x40", "64, 64", "64,65", "6 4", "\xb2", "9" * 5000, "0" * 5000 + "64"]
    )
    body = st.binary(max_size=80).map(lambda data: data.replace(b" ", b""))
    PARTS = ["method", "target", "version", "hosts", "authorization", "fields", "length", "body"]
    REPLY_CODES = {100, 200, 400, 401, 403, 404, 413, 414, 431, 501, 502, 505}

    @classmethod
    def replies(cls, received, head):
        """The status codes of the replies ``received`` holds, each with a
        known code and framed by its Content-Length, except that the first
        final reply has no body when ``head``."""
        codes = []
        while received:
            section, blank, received = received.partition(b"\r\n\r\n")
            assert blank, section
            status_line, *lines = section.decode("latin-1").split("\r\n")
            status = re.fullmatch(r"HTTP/1\.1 (\d{3}) \S.*", status_line)
            assert status and int(status[1]) in cls.REPLY_CODES, status_line
            codes.append(int(status[1]))
            if codes[-1] != 100:
                fields = dict(line.lower().split(": ", 1) for line in lines)
                length = 0 if head else int(fields["content-length"])
                assert len(received) >= length
                received, head = received[length:], False
        return codes

    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        usual=st.sampled_from(
            ["GET /v1/capabilities?dmax=1", "GET /v1/health", "POST /v1/capability",
             "HEAD /v1/health"]
        ),
        odd=st.tuples(st.sampled_from([0, 1, 1, 2, 3]), st.permutations(PARTS)).map(
            lambda drawn: drawn[1][: drawn[0]]
        ),
        data=st.data(),
    )
    def test_any_request_gets_framed_replies_and_changes_nothing_else(
        self, fresh_server, monkeypatch, usual, odd, data
    ):
        """A usual request with up to three of its parts made odd."""

        def part(name, value, strategy):
            return data.draw(strategy, label=name) if name in odd else value

        method, target = usual.split()
        method = part("method", method, self.method)
        target = part("target", target, self.target)
        start = f"{method} {target} {part('version', 'HTTP/1.1', self.version)}"
        hosts = part("hosts", 1, st.sampled_from([0, 2]))
        auth = part("authorization", [DOWNLOAD[2]], st.lists(self.authorization, max_size=2))
        extra = part(
            "fields",
            [],
            st.one_of(
                st.lists(self.request_field, min_size=1, max_size=4),
                st.just(["X-Fill: 1"] * MAX_HEADER_LINES),
            ),
        )
        body = new_capability().hex().encode() if usual.startswith("POST") else b""
        body = part("body", body, self.body)
        lengths = part(
            "length",
            [len(body)] if body else [],
            st.lists(
                st.one_of(self.odd_length, st.integers(0, len(body) + 8).map(str)),
                min_size=1,
                max_size=2,
            )
            | st.just([]),
        )
        fields = [
            *["Host: sopal"] * hosts, *auth, *(f"Content-Length: {n}" for n in lengths), *extra
        ]

        monkeypatch.setattr(_Handler, "timeout", 0.2)
        errors = []
        monkeypatch.setattr(
            fresh_server, "handle_error", lambda request, address: errors.append(address)
        )

        def download():
            with raw_connection(fresh_server) as (sock, reader):
                sock.sendall(raw_request(*DOWNLOAD))
                return read_reply(reader)[::2]  # status and body

        records, before = self.records(fresh_server), download()
        with socket.create_connection(fresh_server.address, timeout=IDLE_TIMEOUT_S / 2) as sock:
            with contextlib.suppress(OSError):  # the server may refuse and close mid-send
                sock.sendall(raw_request(start, *fields, end=b"\r\n" + body))
                sock.shutdown(socket.SHUT_WR)
            received = bytearray()
            with contextlib.suppress(ConnectionResetError):  # a close with bytes unread
                while chunk := sock.recv(65536):
                    received += chunk
        head = len(start) + 2 <= MAX_LINE_BYTES and re.fullmatch(r"HEAD \S+ HTTP/\d\.\d", start)
        codes = self.replies(bytes(received), head)
        deadline = time.monotonic() + 1.0
        while fresh_server._open and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not fresh_server._open
        assert errors == []
        assert before[0] == 200
        if not (method == "POST" and 200 in codes):
            assert self.records(fresh_server) == records
            assert download() == before


class TestServerUrl:
    @pytest.mark.parametrize(
        "url",
        ["ftp://h:1", "h:80", "http://", "http://:80", "http://[]:80", "http://h:",
         "http://h:abc", "http://h:70000", "http://h:80?x", "http://u@host:80"],
    )
    def test_malformed_url_refused(self, url):
        with pytest.raises(ValueError, match=r"http\(s\)://host"):
            HttpServerHandle(url)

    # A looser reading of http(s)://host[:port][/prefix] than the handle's.
    SHAPE = re.compile(
        r"(https?)://([^\s/?#@\[\]:]+|\[[^\s/?#@\[\]]+\])(?::(\d+))?(/[^\s?#]*)?",
        re.IGNORECASE,
    )
    server_url = st.builds(
        "{}://{}{}{}".format,
        st.sampled_from(["http", "https", "HTTPS"]),
        st.sampled_from(["h", "example.org", "127.0.0.1", "[::1]"]),
        st.sampled_from(["", ":0", ":80", ":65535"]),
        st.sampled_from(["", "/", "/api/", "/a/b"]),
    )
    # a server URL with a few characters inserted somewhere
    edited_url = st.builds(
        lambda url, at, text: url[:at] + text + url[at:],
        server_url,
        st.integers(0, 30),
        st.sampled_from(["u@", "@", ":", ":1", "?x", "#", " ", "[", "]", "%", "//"])
        | st.text(max_size=3),
    )

    @settings(max_examples=200, deadline=None)
    @given(url=st.text(max_size=40) | server_url | edited_url)
    def test_accepted_urls_have_the_server_url_shape(self, url):
        try:
            handle = HttpServerHandle(url)
        except ValueError:
            return
        match = self.SHAPE.fullmatch(url.rstrip("/"))
        assert match is not None, url
        scheme, host, port, prefix = match.groups()
        conn = handle._new_connection()
        default_port = 443 if scheme.lower() == "https" else 80
        assert conn.host == host.strip("[]")
        assert conn.port == (default_port if port is None else int(port)) < 65536
        assert handle._path_prefix == (prefix or "")

    @pytest.mark.parametrize(
        "url, host, port, prefix",
        [
            ("http://127.0.0.1:8080", "127.0.0.1", 8080, ""),
            ("https://example.org/", "example.org", 443, ""),
            ("HTTP://h:81/api/", "h", 81, "/api"),
            ("http://[::1]:8080", "::1", 8080, ""),
            ("http://[::1]", "::1", 80, ""),
        ],
    )
    def test_host_port_and_path_prefix(self, url, host, port, prefix):
        handle = HttpServerHandle(url)
        conn = handle._new_connection()
        assert (conn.host, conn.port, handle._path_prefix) == (host, port, prefix)


class TestAccessLog:
    def test_debug_line_carries_request_line_and_status(self, fresh_server, caplog):
        with caplog.at_level("DEBUG", logger="sopal.server"):
            status, _ = request(fresh_server, "GET", "/v1/health")
        assert status == 200
        lines = [r for r in caplog.records if r.name == "sopal.server" and r.levelname == "DEBUG"]
        assert any('"GET /v1/health HTTP/1.1" 200' in r.getMessage() for r in lines)


class TestServerConfig:
    def test_refuses_plaintext_without_flag(self):
        connector = MockOsnConnector(GROUND)
        store = CapabilityStore(SocialGraph(), connector)
        with pytest.raises(ValueError, match="TLS"):
            SopalHttpServer(store, connector)

    def test_plaintext_mode_warns(self, caplog):
        connector = MockOsnConnector(GROUND)
        store = CapabilityStore(SocialGraph(), connector)
        with caplog.at_level("WARNING", logger="sopal.server"):
            server = SopalHttpServer(store, connector, insecure_plaintext=True)
        server.server_close()
        assert any("PLAINTEXT" in rec.message for rec in caplog.records)

    def test_stop_without_start_returns(self):
        connector = MockOsnConnector(GROUND)
        store = CapabilityStore(SocialGraph(), connector)
        server = SopalHttpServer(store, connector, insecure_plaintext=True)
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()

    def test_missing_certificate_leaves_no_bound_socket(self, tmp_path):
        connector = MockOsnConnector(GROUND)
        store = CapabilityStore(SocialGraph(), connector)
        with no_resource_warnings():
            with pytest.raises(FileNotFoundError):
                SopalHttpServer(store, connector, tls_cert=str(tmp_path / "missing.pem"))


class TestLoadProbe:
    def test_accounting_identity_and_baseline(self, world):
        store, _, server = world
        store.upload_capability("A", new_capability())
        report = load_probe(server.url, "mock:A", rates=[2], duration_s=2)
        assert report.baseline_latency_s > 0
        sample = report.samples[0]
        assert sample.sent == 4
        assert sample.sent == sample.received + sample.failed
        assert sample.failed == 0
        assert len(sample.latencies_s) == sample.received
        assert sum(sample.per_second_received) == sample.received
        assert "saturation knee" in report.to_text()


class TestLoadProbeClient:
    def test_sweep_reuses_connections(self, fresh_server, connects):
        report = load_probe(fresh_server.url, "mock:A", rates=[2], duration_s=2)
        sample = report.samples[0]
        assert (sample.sent, sample.failed) == (4, 0)
        # the baseline's one connection plus one per worker thread, of
        # which a burst of two needs two; one per request would be 9
        assert len(connects) <= 3

    def test_sweep_closes_every_workers_connection(self, fresh_server):
        with no_resource_warnings():
            report = load_probe(fresh_server.url, "mock:A", rates=[2, 3], duration_s=1)
        assert [(s.sent, s.received) for s in report.samples] == [(2, 2), (3, 3)]

    def test_rates_below_one_are_refused_before_any_request(self, fresh_server, connects):
        with pytest.raises(ValueError, match="at least 1"):
            load_probe(fresh_server.url, "mock:A", rates=[-1, 0])
        with pytest.raises(ValueError, match="at least 1"):
            load_probe(fresh_server.url, "mock:A", rates=[2, 0])
        assert connects == []

    def test_negative_dmax_is_refused_before_any_request(self, fresh_server, connects):
        with pytest.raises(ValueError, match="dmax must be at least 0"):
            load_probe(fresh_server.url, "mock:A", rates=[1], dmax=-1)
        assert connects == []

    @pytest.mark.parametrize(
        "token, error", [("mock:nobody", AuthError), ("mock:B", NotEnrolledError)]
    )
    def test_refused_baseline_closes_its_connection(self, fresh_server, token, error):
        with no_resource_warnings():
            with pytest.raises(error):
                load_probe(fresh_server.url, token, rates=[1])

    def test_refused_bodies_count_as_failed(self, fresh_server, monkeypatch):
        store = fresh_server.store
        real = store.distribute
        calls = []

        class Garbled:
            def to_json(self):
                return '{"version":2,"r_u":"nope"}'

        def distribute(uid, d_max):
            calls.append(uid)
            return real(uid, d_max) if len(calls) <= 5 else Garbled()

        monkeypatch.setattr(store, "distribute", distribute)
        report = load_probe(fresh_server.url, "mock:A", rates=[3], duration_s=1)
        sample = report.samples[0]
        assert (sample.sent, sample.received, sample.failed) == (3, 0, 3)
        assert len(calls) == 8


def test_server_and_cli_load_no_client_stack():
    """A fresh process that imports the server and the CLI, as ``sopal
    serve`` does, loads neither the client side nor ``cryptography``."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, sopal.server, sopal.cli; print(*sys.modules, sep='\\n')"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    loaded = set(proc.stdout.split())
    assert "sopal.server" in loaded
    assert not loaded & {"cryptography", "sopal.psi", "sopal.client"}
