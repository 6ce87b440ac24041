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
* ``GET /v1/health``, the one route that needs no token

The other two take ``Authorization: Bearer <token>``.  The server runs over
TLS when given a certificate, loaded before the port is bound so that a
bad one leaves no socket open, or in loudly flagged plaintext test mode.
Connections are persistent HTTP/1.1: a client may send many requests on
one connection, which the server closes after ``IDLE_TIMEOUT_S`` without
a request.  Each connection's handler reads a request in one pass,
routes it and sends the whole reply, always JSON, in one write.  It
refuses what README's "Request framing" lists (RFC 9112: the request
line, ``MAX_HEADER_LINES`` and ``MAX_LINE_BYTES``, ``Content-Length``
up to ``MAX_BODY_BYTES``, one ``Host``, GET and POST only); a refusal
before the body is read closes the connection, so no unread body is
read as a request.

The server imports no client code, so a serving process loads neither
:mod:`sopal.client` nor the ``cryptography`` package;
:func:`sopal.client.load_probe` measures it from outside.
"""

from __future__ import annotations

import contextlib
import json
import logging
import re
import socket
import socketserver
import ssl
import threading
from email.utils import formatdate
from http import HTTPStatus
from typing import Mapping

from sopal.store import AuthError, CapabilityStore, NotEnrolledError

logger = logging.getLogger(__name__)

MOCK_TOKEN_PREFIX = "mock:"

# A kept-open connection with no request for this long is closed, so its
# handler thread does not outlive an idle client.
IDLE_TIMEOUT_S = 5.0
# Largest POST body read, well above the 64 hex digits of a capability.
# A longer body is refused with 413.
MAX_BODY_BYTES = 4096
# Python's HTTP server's bounds: 414 for a longer request line, 431 beyond.
MAX_HEADER_LINES = 100
MAX_LINE_BYTES = 65536
# RFC 9112's request line, and its field line: a token name, no obs-fold.
_REQUEST_LINE = re.compile(r"(\S+) (\S+) HTTP/(\d)\.(\d)")
_FIELD_LINE = re.compile(r"([!#$%&'*+.^_`|~0-9A-Za-z-]+):([\t\x20-\x7e\x80-\xff]*)\r?\n")
# How often serve_forever checks for a shutdown request; stop() waits
# for at most one interval.
POLL_INTERVAL_S = 0.05
# Connections the kernel queues for the accept loop.  A burst beyond it
# is dropped and waits on the client's connect retries; 512 holds the
# load probe's largest burst.
LISTEN_BACKLOG = 512


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


class _Refusal(Exception):
    """A reply other than 200: ``args`` are its status code and JSON body."""


def _json(body: dict) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


class _Handler(socketserver.StreamRequestHandler):
    """One connection: reads, routes and answers its requests in turn.
    Each route returns the 200 body or raises :class:`_Refusal`; other faults get a 500."""

    timeout = IDLE_TIMEOUT_S
    # One write per reply, yet TLS sends a record per 16 kB and a 100
    # Continue goes first; Nagle would hold the later short segment for
    # the client's delayed ACK of the earlier one, about 40 ms.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        # A dropped connection, a failed TLS handshake or an idle timeout is routine.
        with contextlib.suppress(ConnectionError, TimeoutError, ssl.SSLError):
            while line := self.rfile.readline(MAX_LINE_BYTES + 1):
                self.method, self.close_connection = None, True
                try:
                    code, body = 200, self._serve(line)
                except _Refusal as refusal:
                    code, body = refusal.args[0], _json(refusal.args[1])
                self._reply(code, body)
                if self.close_connection:
                    return

    def _serve(self, line: bytes) -> bytes:
        """Read the rest of the request that ``line`` starts and route it.
        ``close_connection`` stays True until the body is read, so a
        refusal before then closes the connection."""
        self.requestline = str(line, "iso-8859-1").rstrip("\r\n")
        if len(line) > MAX_LINE_BYTES:
            raise _Refusal(414, {"error": "request line too long"})
        request = _REQUEST_LINE.fullmatch(self.requestline)
        if request is None:
            raise _Refusal(400, {"error": "malformed request line"})
        self.method, http10 = request[1], request[4] == "0"
        if request[3] != "1":
            raise _Refusal(505, {"error": "only HTTP/1.x is served"})
        self.fields = fields = {}
        hosts = 0
        for count in range(MAX_HEADER_LINES + 1):
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if line in (b"\r\n", b"\n"):
                break
            if len(line) > MAX_LINE_BYTES or count == MAX_HEADER_LINES:
                raise _Refusal(431, {"error": "request header fields too large"})
            field = _FIELD_LINE.fullmatch(line.decode("iso-8859-1"))
            if field is None:
                raise _Refusal(400, {"error": "malformed header field"})
            name, value = field[1].lower(), field[2].strip(" \t")
            fields[name] = f"{fields[name]}, {value}" if name in fields else value
            hosts += name == "host"
        if "transfer-encoding" in fields:
            raise _Refusal(501, {"error": "Transfer-Encoding is not supported"})
        length = None
        if "content-length" in fields:
            value, *others = {v.strip(" \t") for v in fields["content-length"].split(",")}
            if others or not (value.isascii() and value.isdigit()):
                raise _Refusal(400, {"error": "Content-Length must be one decimal number"})
            # The digit count goes first: int() refuses more than 4300 digits.
            digits = value.lstrip("0") or "0"
            if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
                raise _Refusal(413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"})
            length = int(digits)
        if hosts > 1 or (hosts == 0 and not http10):  # RFC 9112 section 3.2
            raise _Refusal(400, {"error": "one Host field required"})
        if self.method not in ("GET", "POST"):
            raise _Refusal(501, {"error": f"method {self.method} is not served"})
        if self.method == "POST" and length is None:
            raise _Refusal(400, {"error": "Content-Length required"})
        if not http10 and fields.get("expect", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = self.rfile.read(length or 0)
        if len(body) < (length or 0):  # closed early: incomplete (RFC 9112 section 8)
            raise _Refusal(400, {"error": "body ended before its Content-Length"})
        connection = fields.get("connection", "").lower()
        self.close_connection = connection == "close" or (http10 and connection != "keep-alive")
        path, _, query = request[2].partition("?")
        route = self.routes.get((self.method, path))
        if route is None:
            raise _Refusal(404, {"error": "no such route"})
        try:
            return route(self, query, body)
        except _Refusal:
            raise
        except Exception:  # a fault in the route: log it here, tell the client nothing of it
            logger.exception('%s "%s" failed', self.client_address[0], self.requestline)
            raise _Refusal(500, {"error": "internal server error"}) from None

    def _reply(self, code: int, body: bytes) -> None:
        """Send the status line, fields and body (none to a HEAD) in one write."""
        logger.debug('%s "%s" %d', self.client_address[0], self.requestline, code)
        head = (
            f"HTTP/1.1 {code} {HTTPStatus(code).phrase}\r\nServer: sopal/0.1\r\n"
            f"Date: {formatdate(usegmt=True)}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            + ("Connection: close\r\n\r\n" if self.close_connection else "\r\n")
        )
        self.wfile.write(head.encode() + (b"" if self.method == "HEAD" else body))

    def _authenticate(self) -> str:
        header = self.fields.get("authorization", "")
        if not header.startswith("Bearer "):
            raise _Refusal(401, {"error": "missing bearer token"})
        try:
            return self.server.connector.authenticate(header[len("Bearer ") :].strip())
        except AuthError as exc:
            raise _Refusal(401, {"error": str(exc)}) from None

    def _health(self, query: str, body: bytes) -> bytes:
        return _json({"status": "ok", "records": self.server.store.record_count()})

    def _download(self, query: str, body: bytes) -> bytes:
        uid = self._authenticate()
        d_max = self.server.d_max
        for part in query.split("&"):
            if part.startswith("dmax="):
                asked = part[len("dmax=") :]
                try:
                    if not (asked.isascii() and asked.isdigit()):
                        raise ValueError(asked)
                    d_max = int(asked)
                except ValueError:  # also for more digits than int() reads
                    raise _Refusal(400, {"error": "dmax must be a non-negative integer"}) from None
        try:
            result = self.server.store.distribute(uid, min(d_max, self.server.d_max))
        except NotEnrolledError as exc:
            raise _Refusal(403, {"error": "not-enrolled", "detail": str(exc)}) from None
        return result.to_json().encode("utf-8")

    def _upload(self, query: str, body: bytes) -> bytes:
        uid = self._authenticate()
        try:
            cap = bytes.fromhex(body.decode("ascii").strip())
        except ValueError:  # UnicodeDecodeError included
            raise _Refusal(400, {"error": "body must be the capability as hex"}) from None
        try:
            self.server.store.upload_capability(uid, cap)
        except ValueError as exc:
            raise _Refusal(400, {"error": str(exc)}) from None
        except ConnectorError as exc:
            raise _Refusal(502, {"error": f"connector failure: {exc}"}) from None
        return _json({"status": "ok"})

    routes = {
        ("GET", "/v1/health"): _health,
        ("GET", "/v1/capabilities"): _download,
        ("POST", "/v1/capability"): _upload,
    }


class SopalHttpServer(socketserver.ThreadingTCPServer):
    """Single-instance capability server, a threaded TCP server whose
    handler reads ``store``, ``connector`` and ``d_max`` from it per
    request, so ``store`` may be replaced while it serves.

    Handles each connection on a thread that socketserver starts and
    joins; the store's one lock serializes their reads and writes.
    Connections stay open between requests until the client closes them,
    ``IDLE_TIMEOUT_S`` passes without a request, or :meth:`stop` closes
    them all.  The handler threads are not daemon threads, so a process
    that never calls :meth:`stop` waits at exit until its open connections
    close or go idle.  ``with server:`` starts and stops it.
    """

    allow_reuse_address = True
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
        if d_max < 0:
            raise ValueError(f"d_max must be at least 0, got {d_max}")
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

    # No lock: each use of _open is one set call, and process_request
    # never runs during stop(), since shutdown() waits for the serve loop.
    def process_request(self, request, client_address):
        self._open.add(request)  # before its thread runs, so stop() sees it
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        self._open.discard(request)
        super().shutdown_request(request)

    def start(self) -> None:
        self._serve_thread = threading.Thread(
            target=self.serve_forever, args=(POLL_INTERVAL_S,), daemon=True
        )
        self._serve_thread.start()

    def stop(self) -> None:
        """Stop accepting, shut down every open connection and wait, with no
        timeout, for its handler thread to end, so no client is answered
        after this returns; a handler ends once its current store or
        connector call returns."""
        if self._serve_thread:  # shutdown() would wait for a serve_forever never run
            self.shutdown()
            self._serve_thread.join(timeout=5)
            self._serve_thread = None
        for conn in self._open.copy():
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
        self.server_close()  # ThreadingMixIn's: joins every handler thread

    # BaseServer's context manager only closes the socket.
    def __enter__(self) -> "SopalHttpServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
