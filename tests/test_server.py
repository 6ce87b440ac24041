"""HTTP endpoints, persistent connections, authentication, and the load
probe."""

import contextlib
import gc
import http.client
import json
import re
import socket
import ssl
import statistics
import threading
import time
import urllib.error
import urllib.request
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sopal.client import HttpServerHandle
from sopal.crypto import new_capability
from sopal.graph import SocialGraph
from sopal.server import (
    MAX_BODY_BYTES,
    AuthError,
    ConnectorError,
    MockOsnConnector,
    SopalHttpServer,
    _Handler,
    load_probe,
)
from sopal.store import CapabilityStore, NotEnrolledError

from helpers import adjacency_from_edges, assert_anonymous_runs, self_signed_cert


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


@pytest.fixture
def connects(monkeypatch):
    """Every HTTP(S) client connection that connected, in order."""
    calls = []
    original = http.client.HTTPConnection.connect

    def connect(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", connect)
    return calls


@contextlib.contextmanager
def no_resource_warnings():
    """Fail if a socket (or other resource) left unclosed in the block is
    finalised; earlier garbage is collected first, so it is not counted."""
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def exchange(conn, method, path, token=None, body=None):
    headers = {"Authorization": f"Bearer {token}"} if token else {}
    conn.request(method, path, body=body, headers=headers)
    resp = conn.getresponse()
    return resp.status, resp.read()


class TestConnector:
    def test_mock_token_resolves_known_user(self):
        connector = MockOsnConnector(GROUND)
        assert connector.authenticate("mock:A") == "A"

    def test_mock_token_for_unknown_user_rejected(self):
        connector = MockOsnConnector(GROUND)
        with pytest.raises(AuthError):
            connector.authenticate("mock:nobody")

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
    def test_one_connection_per_calling_thread(self, fresh_server, connects):
        handle = HttpServerHandle(fresh_server.url)
        for _ in range(5):
            assert [fid for fid, _ in handle.download("mock:A", 1).r_u] == ["B", "C"]
        handle.upload("mock:A", new_capability())
        assert len(connects) == 1

        def work():
            for _ in range(3):
                handle.download("mock:A", 1)
            handle.close()

        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        handle.close()
        assert len(connects) == 3

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
        with pytest.raises(ConnectionError):
            handle.download("mock:A", 1)

    def test_error_statuses_on_a_reused_connection(self, fresh_server, connects):
        handle = HttpServerHandle(fresh_server.url)
        handle.download("mock:A", 1)
        with pytest.raises(PermissionError, match="authentication failed"):
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

    def test_https_url_gets_verified_tls(self, tmp_path, connects, monkeypatch):
        cert, key = self_signed_cert(tmp_path)
        connector = MockOsnConnector(GROUND)
        store = CapabilityStore(SocialGraph(), connector)
        store.upload_capability("A", new_capability())
        with SopalHttpServer(store, connector, tls_cert=cert, tls_key=key) as server:
            assert server.url.startswith("https://")
            with pytest.raises(ssl.SSLCertVerificationError):
                HttpServerHandle(server.url).download("mock:A", 1)
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

    def test_rates_below_one_are_refused_before_any_request(self, fresh_server, connects):
        with pytest.raises(ValueError, match="at least 1"):
            load_probe(fresh_server.url, "mock:A", rates=[-1, 0])
        with pytest.raises(ValueError, match="at least 1"):
            load_probe(fresh_server.url, "mock:A", rates=[2, 0])
        assert connects == []

    @pytest.mark.parametrize(
        "token, error", [("mock:nobody", PermissionError), ("mock:B", NotEnrolledError)]
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
