"""The network face of the capability service.

A small threaded HTTP server exposes capability upload and download plus
a health check, authenticated by bearer tokens that a mock OSN connector
resolves to user ids.  Real OSN authentication is out of scope; the
connector is an ordinary object so another OSN plugin can replace it.

Routes:

* ``POST /v1/capability`` with the capability as lowercase hex in the body
* ``GET /v1/capabilities?dmax=N`` returning the distribution as JSON
  body format 2 (:meth:`DistributionResult.to_json`): the id-bearing
  entries one object each, the higher-order values as one hex run per
  stretch of equal degree
* ``GET /v1/health``

All routes take ``Authorization: Bearer <token>``.  The server runs over
TLS when given a certificate, loaded before the port is bound so that a
bad one leaves no socket open, or in loudly flagged plaintext test mode.
Connections are persistent HTTP/1.1: a client may send many requests on
one connection, which the server closes after ``IDLE_TIMEOUT_S`` without
a request.  A POST body must carry ``Content-Length`` and be at most
``MAX_BODY_BYTES`` long; the server reads it before answering, so an
error reply never leaves it to be parsed as the next request.

:func:`load_probe` is the matching measurement client: it fires bursts
of downloads per second at a running ``http`` or ``https`` server
through :class:`~sopal.client.HttpServerHandle` (one kept-open connection
per worker thread; a request the handle raises on counts as failed) and
reports per-second response counts, latency and the saturation knee.
The server adds no cost of its own; to see saturation at desk scale,
hand it a store whose ``distribute`` is slower, as demo 04 does.
"""

from __future__ import annotations

import contextlib
import json
import logging
import socket
import ssl
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping, Sequence

from sopal.client import HttpServerHandle
from sopal.store import CapabilityStore, NotEnrolledError

logger = logging.getLogger(__name__)

MOCK_TOKEN_PREFIX = "mock:"

# A kept-open connection with no request for this long is closed, so its
# handler thread does not outlive an idle client.
IDLE_TIMEOUT_S = 5.0
# Largest POST body read, well above the 64 hex digits of a capability.
# A longer body is refused with 413.
MAX_BODY_BYTES = 4096
# How often serve_forever checks for a shutdown request; stop() waits
# for at most one interval.
POLL_INTERVAL_S = 0.05
# How long the load probe waits for one response before counting it failed.
PROBE_TIMEOUT_S = 30.0
# Connections the kernel queues for the accept loop.  A burst beyond it
# is dropped and waits on the client's connect retries; 512 holds the
# load probe's largest burst.
LISTEN_BACKLOG = 512


class AuthError(Exception):
    """The presented token does not authenticate any OSN user."""


class ConnectorError(Exception):
    """The OSN connector could not serve the request."""


class MockOsnConnector:
    """Stand-in for a real OSN: authentication plus friend-list queries.

    Backed by a ground-truth adjacency (typically loaded from an edge-list
    file).  It accepts ``mock:<uid>`` bearer tokens for any known OSN user.
    """

    def __init__(self, adjacency: Mapping[str, set[str]]):
        self._adjacency = adjacency

    def authenticate(self, token: str) -> str:
        """Resolve a bearer token to a uid, or raise :class:`AuthError`."""
        if not token.startswith(MOCK_TOKEN_PREFIX):
            raise AuthError("unknown token")
        uid = token[len(MOCK_TOKEN_PREFIX) :]
        if uid not in self._adjacency:
            raise AuthError(f"mock token names unknown user {uid!r}")
        return uid

    def friends_of(self, uid: str) -> list[str]:
        """The user's complete OSN adjacency, as the OSN would report it."""
        if uid not in self._adjacency:
            raise ConnectorError(f"unknown OSN user {uid!r}")
        return sorted(self._adjacency[uid])


class _Handler(BaseHTTPRequestHandler):
    server_version = "sopal/0.1"
    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_S
    # A reply goes out as a header write and a body write.  With Nagle
    # on, the body then waits for the client's delayed ACK on a kept-open
    # connection, about 40 ms per request.
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):
        logger.debug("%s " + fmt, self.address_string(), *args)

    def _send_json(self, code: int, body: dict, *, close: bool = False) -> None:
        data = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
        self._send(code, data, close=close)

    def _send(self, code: int, data: bytes, *, close: bool = False) -> None:
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _authenticate(self) -> str | None:
        header = self.headers.get("Authorization", "")
        if not header.startswith("Bearer "):
            self._send_json(401, {"error": "missing bearer token"})
            return None
        try:
            return self.server.connector.authenticate(header[len("Bearer ") :].strip())
        except AuthError as exc:
            self._send_json(401, {"error": str(exc)})
            return None

    def do_GET(self):
        path, _, query = self.path.partition("?")
        if path == "/v1/health":
            self._send_json(200, {"status": "ok", "records": self.server.store.record_count()})
            return
        if path != "/v1/capabilities":
            self._send_json(404, {"error": "no such route"})
            return
        uid = self._authenticate()
        if uid is None:
            return
        d_max = self.server.d_max
        for part in query.split("&"):
            if part.startswith("dmax="):
                try:
                    d_max = int(part[len("dmax=") :])
                except ValueError:
                    self._send_json(400, {"error": "dmax must be an integer"})
                    return
        d_max = max(0, min(d_max, self.server.d_max))
        try:
            result = self.server.store.distribute(uid, d_max)
        except NotEnrolledError as exc:
            self._send_json(403, {"error": "not-enrolled", "detail": str(exc)})
            return
        self._send(200, result.to_json().encode("utf-8"))

    def _read_body(self) -> bytes | None:
        """The request body, or None after answering 400 or 413 and
        closing the connection, since the body stays unread."""
        declared = self.headers.get("Content-Length", "")
        if not (declared.isascii() and declared.isdigit()):
            self._send_json(400, {"error": "Content-Length required"}, close=True)
            return None
        length = int(declared)
        if length > MAX_BODY_BYTES:
            self._send_json(
                413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}, close=True
            )
            return None
        return self.rfile.read(length)

    def do_POST(self):
        body = self._read_body()
        if body is None:
            return
        if self.path.partition("?")[0] != "/v1/capability":
            self._send_json(404, {"error": "no such route"})
            return
        uid = self._authenticate()
        if uid is None:
            return
        try:
            cap = bytes.fromhex(body.decode("ascii").strip())
        except (ValueError, UnicodeDecodeError):
            self._send_json(400, {"error": "body must be the capability as hex"})
            return
        try:
            self.server.store.upload_capability(uid, cap)
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        except ConnectorError as exc:
            self._send_json(502, {"error": f"connector failure: {exc}"})
            return
        self._send_json(200, {"status": "ok"})


class SopalHttpServer(ThreadingHTTPServer):
    """Single-instance capability server, a ``ThreadingHTTPServer``
    whose handler reads ``store``, ``connector`` and ``d_max`` from it
    per request, so ``store`` may be replaced while it serves.

    Handles each connection on its own thread; the store's one lock
    serializes their reads and writes.  Connections stay open between
    requests until the client closes them, ``IDLE_TIMEOUT_S`` passes
    without a request, or :meth:`stop` closes them all.  ``with server:``
    starts and stops it.
    """

    daemon_threads = True
    request_queue_size = LISTEN_BACKLOG

    def __init__(
        self,
        store: CapabilityStore,
        connector: MockOsnConnector,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        d_max: int = 1,
        tls_cert: str | None = None,
        tls_key: str | None = None,
        insecure_plaintext: bool = False,
    ):
        if not tls_cert and not insecure_plaintext:
            raise ValueError(
                "refusing to start without TLS; pass insecure_plaintext=True for test use"
            )
        # Loaded before binding, so a bad certificate leaves no socket open.
        tls = None
        if tls_cert:
            tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            tls.load_cert_chain(tls_cert, tls_key)
        super().__init__((host, port), _Handler)
        self.store = store
        self.connector = connector
        self.d_max = d_max
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()
        self._serve_thread: threading.Thread | None = None
        if tls:
            # The handshake runs on the connection's handler thread, at its
            # first read, under the idle timeout; done at accept it would
            # let one silent client stall every other connection.
            self.socket = tls.wrap_socket(
                self.socket, server_side=True, do_handshake_on_connect=False
            )
        else:
            logger.warning(
                "serving PLAINTEXT HTTP on %s:%d; this mode is for tests only", *self.address
            )

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        scheme = "https" if isinstance(self.socket, ssl.SSLSocket) else "http"
        return f"{scheme}://{host}:{port}"

    def process_request(self, request, client_address):
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address):
        # A client that drops a kept-open connection or fails the TLS
        # handshake is routine, not a fault.
        if isinstance(sys.exc_info()[1], (ConnectionError, ssl.SSLError)):
            logger.debug("connection from %s dropped", client_address[0])
            return
        super().handle_error(request, client_address)

    def start(self) -> None:
        self._serve_thread = threading.Thread(
            target=self.serve_forever, args=(POLL_INTERVAL_S,), daemon=True
        )
        self._serve_thread.start()

    def stop(self) -> None:
        """Stop accepting and shut down every open connection, which ends
        its handler thread, so no client is answered after this returns."""
        if self._serve_thread:  # shutdown() would wait for a serve_forever never run
            self.shutdown()
            self._serve_thread.join(timeout=5)
            self._serve_thread = None
        with self._open_lock:
            live = list(self._open)
        for conn in live:
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
        self.server_close()

    # BaseServer's context manager only closes the socket.
    def __enter__(self) -> "SopalHttpServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# -- load probe -------------------------------------------------------------


@dataclass
class RateSample:
    """Measurements for one offered request rate."""

    rate: int
    sent: int
    received: int
    failed: int
    latencies_s: list[float] = field(default_factory=list)
    per_second_received: list[int] = field(default_factory=list)

    @property
    def median_latency_s(self) -> float:
        return statistics.median(self.latencies_s) if self.latencies_s else float("inf")

    @property
    def peak_responses_per_second(self) -> int:
        """Largest one-second completion count; the plateau indicator."""
        return max(self.per_second_received, default=0)


@dataclass
class LoadReport:
    """Sweep result: per-rate samples, the single-request baseline, the
    seconds each rate ran, and the saturation knee (first rate whose median
    latency exceeds five times the baseline)."""

    baseline_latency_s: float
    duration_s: float
    samples: list[RateSample]
    knee_rate: int | None

    def to_text(self) -> str:
        lines = [
            f"baseline latency: {self.baseline_latency_s * 1000:.1f} ms",
            f"duration per rate: {self.duration_s:.1f} s",
            "rate sent received failed peak_resp/s median_ms",
        ]
        for s in self.samples:
            lines.append(
                f"{s.rate:4d} {s.sent:4d} {s.received:8d} {s.failed:6d} "
                f"{s.peak_responses_per_second:11d} {s.median_latency_s * 1000:9.1f}"
            )
        knee = f"{self.knee_rate} req/s" if self.knee_rate is not None else "not reached"
        lines.append(f"saturation knee: {knee}")
        return "\n".join(lines)


def load_probe(
    base_url: str,
    token: str,
    rates: Sequence[int],
    duration_s: float = 5.0,
    *,
    dmax: int = 1,
) -> LoadReport:
    """Measure a running server with bursts of ``rate`` downloads per
    second for each rate in ``rates``, each rate for ``duration_s``
    rounded to whole seconds, at least one.

    Every request is accounted as received or failed, so
    ``sent == received + failed`` per sample.
    """
    if any(rate < 1 for rate in rates):
        raise ValueError(f"rates must be at least 1, got {list(rates)}")
    handle = HttpServerHandle(base_url, timeout_s=PROBE_TIMEOUT_S)

    def timed_download() -> tuple[float, float]:
        start = time.perf_counter()
        handle.download(token, dmax)
        end = time.perf_counter()
        return end - start, end

    try:
        baseline = statistics.median(timed_download()[0] for _ in range(5))
    finally:
        handle.close()

    seconds = max(1, round(duration_s))
    samples = []
    for rate in rates:
        sent = rate * seconds
        latencies: list[float] = []
        finish_times: list[float] = []
        failed = 0
        # A worker's connection closes when its thread ends with the pool.
        with ThreadPoolExecutor(max_workers=min(512, max(8, rate * 2))) as pool:
            futures = []
            start = time.perf_counter()
            for sec in range(seconds):
                for _ in range(rate):
                    futures.append(pool.submit(timed_download))
                next_tick = start + sec + 1
                pause = next_tick - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
            for fut in futures:
                try:
                    latency, finished_at = fut.result()
                except Exception:
                    failed += 1
                else:
                    latencies.append(latency)
                    finish_times.append(finished_at - start)
        per_second = [0] * (int(max(finish_times, default=0.0)) + 1)
        for t in finish_times:
            per_second[int(t)] += 1
        latencies.sort()
        samples.append(
            RateSample(
                rate=rate,
                sent=sent,
                received=len(latencies),
                failed=failed,
                latencies_s=latencies,
                per_second_received=per_second,
            )
        )

    knee = next((s.rate for s in samples if s.median_latency_s > 5 * baseline), None)
    return LoadReport(baseline, float(seconds), samples, knee)
