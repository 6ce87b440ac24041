"""Client-side discovery: input set construction, the discovery session
API, and path-length computation.

A client downloads its capability view from the server, expands every
received value along the hash chain up to the configured maximum degree,
adds its own capability, and keeps the result as one value→item map in
which each group of values received without ids shares one item.  Every
session runs the set-intersection protocol against a peer on the map's
values and looks its matches' items up in it.  Each matched item with
received degree ``i`` and item degree ``m`` witnesses a path of length
``i + m + 2`` through the item's owner; a match against the self item,
or against an id-bearing degree-0 entry whose id equals the peer's
claimed id, means the peers are direct friends (length 1).  The reported
distance is the minimum over all matches.  Common-friend identifiers are
revealed only for length-2 matches; anything longer stays anonymous.

The session surface is the four basic calls (``startSoPaLSession``,
``handleSoPaLMessage``, ``getResult``, ``endSoPaLSession``) plus the
advanced ``rejectSoPaLSession``, ``updateCapabilities`` and
``renewCapability``.  Frames are opaque byte strings, so any carrier
(socket, short-range link, file pipe) can relay them.
"""

from __future__ import annotations

import contextlib
import functools
import http.client
import json
import re
import threading
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import BinaryIO, Callable, NamedTuple

from sopal.crypto import hash_chain, new_capability
from sopal.psi import (
    DEFAULT_FP_TARGET,
    MSG_HELLO,
    PHASE_DONE,
    ProtocolError,
    PsiSession,
    make_reject,
)
from sopal.store import CapabilityStore, DistributionResult, NotEnrolledError


class SessionError(Exception):
    """A discovery session is missing, unfinished, or ended abnormally."""


class ServerError(RuntimeError):
    """A failure on the server's side: no connection, a TLS refusal, a
    timeout, a broken HTTP exchange, a status other than 2xx, 401 and
    403, or a malformed download body; ``__cause__`` holds the original."""


class AuthError(Exception):
    """The presented token does not authenticate any OSN user."""


class AnnotatedItem(NamedTuple):
    """The annotation of the input-set value that keys it: that value is
    the capability value at degree ``item_degree`` (m), derived from a
    value received at degree ``received_degree`` (i) by hashing ``m - i``
    times.  ``friend_id`` is set only for degree-0 entries that arrived
    with an id; the self item annotates the client's own capability.
    The values of one group without ids share one item object.
    """

    received_degree: int
    item_degree: int
    friend_id: str | None = None
    is_self: bool = False


_SELF_ITEM = AnnotatedItem(0, 0, None, True)


@dataclass(frozen=True)
class DistResult:
    """Outcome of one discovery run.

    ``dist`` is None when no path was found within range.  Common-friend
    ids are populated only when the distance is at most 2.
    """

    dist: int | None
    common_friend_ids: frozenset[str]
    match_count: int


def build_input_set(
    distribution: DistributionResult, own_cap: bytes, d_max: int
) -> dict[bytes, AnnotatedItem]:
    """Expand a download into the discovery input set: each value mapped
    to the item that annotates it.

    Every received entry of degree i yields values at degrees i..d_max,
    plus the own capability with the self item; a download without value
    collisions gives ``1 + sum(len(entries at degree i) * (d_max - i + 1))``
    values.  Only a faulty server can make two items share a value; the
    map then keeps the self item, else the shorter path, else the one
    received first.  Values come in groups, one per received degree
    (``r_u``, or one of the download's runs, taken as received) and item
    degree; a run's group of values all share one item.
    """
    # (path length, values, items) per group, in download order.
    groups = [(0, [own_cap], [_SELF_ITEM])]
    r_u = distribution.r_u
    ids = list(map(itemgetter(0), r_u))
    values = list(map(itemgetter(1), r_u))
    for m in range(d_max + 1):
        if m:
            values = list(map(hash_chain, values, repeat(1)))
        groups.append((m, values, list(map(AnnotatedItem, repeat(0), repeat(m), ids))))
    for degree, values in distribution.runs:
        if not 1 <= degree <= d_max:
            raise ValueError(f"received degree {degree} outside [1, {d_max}]")
        for m in range(degree, d_max + 1):
            if m > degree:
                values = list(map(hash_chain, values, repeat(1)))
            groups.append((degree + m, values, [AnnotatedItem(degree, m)] * len(values)))
    # A stable sort puts the shorter paths first and keeps download order
    # on ties; folded in reverse, the first item of a value overwrites
    # every later one.
    groups.sort(key=itemgetter(0))
    by_value: dict[bytes, AnnotatedItem] = {}
    for _, values, items in reversed(groups):
        by_value.update(zip(reversed(values), reversed(items)))
    return by_value


class LocalServerHandle:
    """In-process server access for tests and the simulator."""

    def __init__(self, store: CapabilityStore, connector):
        self._store = store
        self._connector = connector

    def upload(self, token: str, cap: bytes) -> None:
        self._store.upload_capability(self._connector.authenticate(token), cap)

    def download(self, token: str, d_max: int) -> DistributionResult:
        return self._store.distribute(self._connector.authenticate(token), d_max)


# A host name or IPv4 address, or an IPv6 address in brackets; no user
# info, query or fragment.  The prefix holds RFC 3986 path characters.
_SERVER_URL = re.compile(
    r"(?P<scheme>https?)://"
    r"(?P<netloc>(?:[a-z0-9._-]+|\[[0-9a-f:.]+\])(?::(?P<port>[0-9]{1,5}))?)"
    r"(?P<prefix>(?:/[a-z0-9._~!$&'()*+,;=:@%/-]*)?)",
    re.ASCII | re.IGNORECASE,
)


# The limits the server reads a request head by, applied to each reply.
_MAX_FIELD_LINES, _MAX_LINE_BYTES = 100, 65536
# The largest reply body read (64 MiB), psi's cap on a CHAL or RESP payload.
MAX_REPLY_BYTES = 2**26
_STATUS_LINE = re.compile(rb"HTTP/1\.[01] ([2-5][0-9]{2})(?: [^\r\n]*)?\r?\n")


def _read_reply(reader: BinaryIO) -> tuple[int, bool, bytes]:
    """(status, whether it closes the connection, body) of the next reply."""
    line = reader.readline(_MAX_LINE_BYTES + 1)
    if not line:
        raise ConnectionResetError("server closed the connection without a reply")
    status = _STATUS_LINE.fullmatch(line)
    if status is None:
        raise ValueError(f"malformed status line {line[:64]!r}")
    fields = []
    while (line := reader.readline(_MAX_LINE_BYTES + 1)) not in (b"\r\n", b"\n"):
        name, colon, value = line.partition(b":")
        if not colon or len(line) > _MAX_LINE_BYTES or len(fields) == _MAX_FIELD_LINES:
            raise ValueError("malformed reply fields")
        fields.append((name.strip().lower(), value.strip().lower()))
    lengths = [value for name, value in fields if name == b"content-length"]
    if len(lengths) != 1 or not lengths[0].isdigit() or b"transfer-encoding" in dict(fields):
        raise ValueError("reply not framed by one Content-Length")
    # The digit count goes first: read() fails on a length too large for an index.
    digits = lengths[0].lstrip(b"0") or b"0"
    if len(digits) > len(str(MAX_REPLY_BYTES)) or int(digits) > MAX_REPLY_BYTES:
        raise ValueError(f"reply body exceeds {MAX_REPLY_BYTES} bytes")
    body = reader.read(int(digits))
    if len(body) < int(digits):
        raise ValueError("reply body ended before its Content-Length")
    return int(status[1]), (b"connection", b"close") in fields, body


class HttpServerHandle:
    """Server access over HTTP, matching :mod:`sopal.server`'s routes.

    A request, from any thread, takes the most recently used idle HTTP/1.1
    connection, or connects, and puts it back after its reply, so requests
    one after another connect once and no more connections open than
    requests ever ran at once; :meth:`close` closes the idle ones.  A
    request goes out in one write; if a reused connection ends before a
    status line (the server's idle timeout, say), it is sent once more on
    a fresh one, which is safe because every route is idempotent.
    Reply framing: an ``HTTP/1.0`` or ``HTTP/1.1`` status line with a code
    from 200 to 599; at most 100 field lines of at most 65,536 bytes, each
    with a colon; exactly one all-digit ``Content-Length`` of at most
    ``MAX_REPLY_BYTES``, no ``Transfer-Encoding``, and the whole body.
    ``Connection: close`` closes the connection after the reply.
    ``https`` URLs get an ``HTTPSConnection`` with the default TLS context,
    which verifies the server's certificate against the system trust
    store, or against the file that ``SSL_CERT_FILE`` names.  A request
    raises :class:`AuthError` on a 401, ``NotEnrolledError`` on a 403 and
    :class:`ServerError`, which closes the connection, on any other
    failure, other framing included.
    """

    def __init__(self, base_url: str, *, timeout_s: float = 10.0):
        match = _SERVER_URL.fullmatch(base_url.rstrip("/"))
        if match is None or int(match["port"] or 0) > 65535:
            raise ValueError(f"server URL must be http(s)://host[:port], got {base_url!r}")
        secure = match["scheme"].lower() == "https"
        connection_class = http.client.HTTPSConnection if secure else http.client.HTTPConnection
        # http.client splits host[:port] itself, brackets included.
        self._new_connection = functools.partial(
            connection_class, match["netloc"], timeout=timeout_s
        )
        self._host_field = f"Host: {match['netloc']}\r\n"
        self._path_prefix = match["prefix"]
        self._idle: list[tuple[http.client.HTTPConnection, BinaryIO]] = []

    def close(self) -> None:
        """Close every idle connection, popping each, as requests may put
        theirs back meanwhile; one in flight is left for the next close."""
        with contextlib.suppress(IndexError):
            while True:
                for part in self._idle.pop():
                    part.close()

    def _request(self, method: str, path: str, token: str, body: bytes | None = None) -> bytes:
        if not token.isprintable():  # a line break would end the field
            raise ValueError("token holds a control character")
        head = f"{method} {self._path_prefix}{path} HTTP/1.1\r\n{self._host_field}"
        head += f"Authorization: Bearer {token}\r\n"
        if body is not None:
            head += f"Content-Length: {len(body)}\r\n"
        request = (head + "\r\n").encode("latin-1") + (body or b"")
        conn = reader = None
        with contextlib.suppress(IndexError):
            conn, reader = self._idle.pop()
        for retry in (conn is not None, False):
            try:
                if conn is None:
                    conn = self._new_connection()
                    conn.connect()
                    reader = conn.sock.makefile("rb")
                conn.sock.sendall(request)
                status, close, data = _read_reply(reader)
                break
            except BaseException as exc:
                # Popped above; the reader holds the socket open until closed too.
                for part in filter(None, (reader, conn)):
                    part.close()
                conn = reader = None
                if retry and isinstance(exc, (ConnectionResetError, BrokenPipeError)):
                    continue
                if isinstance(exc, (OSError, ValueError)):
                    raise ServerError(str(exc)) from exc
                raise
        if close:
            reader.close()
            conn.close()
        else:
            self._idle.append((conn, reader))
        if 200 <= status < 300:
            return data
        detail = ""
        try:
            detail = json.loads(data.decode("utf-8")).get("error", "")
        except (ValueError, AttributeError, RecursionError):
            pass
        if status == 401:
            raise AuthError(f"authentication failed: {detail}")
        if status == 403:
            raise NotEnrolledError(detail or "not enrolled")
        raise ServerError(f"server returned {status}: {detail}")

    def upload(self, token: str, cap: bytes) -> None:
        self._request("POST", "/v1/capability", token, cap.hex().encode("ascii"))

    def download(self, token: str, d_max: int) -> DistributionResult:
        data = self._request("GET", f"/v1/capabilities?dmax={d_max}", token)
        try:
            return DistributionResult.from_json(data.decode("utf-8"))
        except ValueError as exc:
            raise ServerError(f"malformed download: {exc}") from exc


class _ClientSession:
    """A live session's protocol state, which holds its input set; once it
    ends, only its outcome: the result, or the text :meth:`get_result` raises."""

    def __init__(self, psi: PsiSession):
        self.psi: PsiSession | None = psi
        self.outcome: DistResult | str | None = None


class DiscoveryClient:
    """One user's discovery endpoint.

    The input set is one value→item map, shared by all sessions, where
    a group of values without ids shares one item.  A refresh or renewal
    replaces the map under a lock and never mutates it, so each session
    keeps the map it started with and many may run at once.  The same
    lock makes opening a session atomic, so one device id never gets two.
    """

    def __init__(
        self,
        uid: str,
        server,
        *,
        token: str | None = None,
        d_max: int = 1,
        fp_target: float = DEFAULT_FP_TARGET,
    ):
        if not 0.0 < fp_target < 1.0:
            raise ValueError(f"false-positive target must lie in (0, 1), got {fp_target}")
        if d_max < 0:
            raise ValueError(f"d_max must be at least 0, got {d_max}")
        self.uid = uid
        self.d_max = d_max
        self._server = server
        self._token = token if token is not None else f"mock:{uid}"
        self._fp_target = fp_target
        self._own_cap: bytes | None = None
        self._items: dict[bytes, AnnotatedItem] = {}
        self._lock = threading.Lock()
        self._sessions: dict[str, _ClientSession] = {}

    # -- capability refresh ---------------------------------------------

    def renew_capability(self) -> None:
        """Generate a fresh capability, upload it, and rebuild the self item.

        A transport failure leaves the previous state intact.
        """
        cap = new_capability()
        self._server.upload(self._token, cap)
        with self._lock:
            self._own_cap = cap
            items = {v: it for v, it in self._items.items() if not it.is_self}
            self._items = items | {cap: _SELF_ITEM}

    def update_capabilities(self) -> None:
        """Re-download the distribution and rebuild the input set."""
        if self._own_cap is None:
            raise RuntimeError("renew_capability must run before update_capabilities")
        distribution = self._server.download(self._token, self.d_max)
        try:
            items = build_input_set(distribution, self._own_cap, self.d_max)
        except ValueError as exc:
            raise ServerError(f"malformed download: {exc}") from exc
        with self._lock:
            self._items = items

    def input_items(self) -> dict[bytes, AnnotatedItem]:
        """A copy of the input set: each value mapped to its item."""
        return dict(self._items)

    # -- session API -------------------------------------------------------

    def start_session(self, device_id: str) -> bytes:
        """Open a discovery session toward ``device_id``; returns the first frame."""
        psi, hello = PsiSession.start_initiator(self._items, self.uid, fp_target=self._fp_target)
        if self._open(device_id, psi).psi is not psi:
            raise SessionError(f"session with {device_id!r} already open")
        return hello

    def handle_message(self, device_id: str, data: bytes) -> tuple[bytes | None, bool]:
        """Feed one frame; only a HELLO opens a session.  Returns (reply or None, finished)."""
        session = self._sessions.get(device_id)
        if session is None or session.psi is None:
            if data[1:2] != bytes((MSG_HELLO,)):
                return None, True
            psi = PsiSession.start_responder(self._items, self.uid, fp_target=self._fp_target)
            session = self._open(device_id, psi)
        psi = session.psi
        try:
            reply, finished = psi.step(data)
        except ProtocolError:
            reply, finished = None, True
        if finished:
            session.outcome = self._outcome(device_id, psi)
            session.psi = None
        return reply, finished

    def get_result(self, device_id: str) -> DistResult:
        session = self._sessions.get(device_id)
        if session is None:
            raise SessionError(f"no session with {device_id!r}")
        if session.outcome is None:
            raise SessionError(f"session with {device_id!r} is active")
        if isinstance(session.outcome, str):
            raise SessionError(session.outcome)
        return session.outcome

    def end_session(self, device_id: str) -> bool:
        """Release all state for the session; True if one existed."""
        return self._sessions.pop(device_id, None) is not None

    def reject_session(self) -> bytes:
        """A frame telling a peer we will not run discovery."""
        return make_reject()

    # The session surface under its canonical method names.
    startSoPaLSession = start_session
    handleSoPaLMessage = handle_message
    getResult = get_result
    endSoPaLSession = end_session
    rejectSoPaLSession = reject_session
    updateCapabilities = update_capabilities
    renewCapability = renew_capability

    # -- internals -----------------------------------------------------------

    def _open(self, device_id: str, psi: PsiSession) -> _ClientSession:
        """The live session with ``device_id``, else a new one running
        ``psi``, which replaces a finished one."""
        with self._lock:
            session = self._sessions.get(device_id)
            if session is None or session.psi is None:
                session = self._sessions[device_id] = _ClientSession(psi)
            return session

    def _outcome(self, device_id: str, psi: PsiSession) -> DistResult | str:
        """A finished session's result, or the text that :meth:`get_result` raises."""
        if psi.phase != PHASE_DONE:
            detail = f": {psi.failure_reason}" if psi.failure_reason else ""
            return f"session with {device_id!r} is {psi.phase}{detail}"
        peer_id = psi.peer_claimed_id
        lengths = []
        common: set[str] = set()
        for value in psi.matched_values:
            item = psi.values[value]
            # Only the self item and r_u items have received degree 0; r_u items carry ids.
            direct = item.is_self or (
                item.received_degree == 0
                and item.item_degree == 0
                and item.friend_id == peer_id
            )
            length = 1 if direct else item.received_degree + item.item_degree + 2
            lengths.append(length)
            if length == 2:
                common.add(item.friend_id)
        dist = min(lengths) if lengths else None
        return DistResult(
            dist=dist, common_friend_ids=frozenset(common), match_count=len(lengths)
        )

    # -- transports ------------------------------------------------------------

    def run_discovery(
        self,
        device_id: str,
        send: Callable[[bytes], None],
        recv: Callable[[], bytes],
        *,
        initiate: bool,
    ) -> DistResult:
        """Drive a whole session over a byte-frame transport."""
        if initiate:
            send(self.start_session(device_id))
        while True:
            reply, finished = self.handle_message(device_id, recv())
            if reply is not None:
                send(reply)
            if finished:
                return self.get_result(device_id)


def run_discovery_pair(a: DiscoveryClient, b: DiscoveryClient) -> tuple[DistResult, DistResult]:
    """Run one full discovery between two in-process clients.

    ``a`` initiates; returns both end results."""
    frame, sender, receiver = a.start_session(b.uid), a, b
    while frame is not None:
        frame, _ = receiver.handle_message(sender.uid, frame)
        sender, receiver = receiver, sender
    return a.get_result(b.uid), b.get_result(a.uid)
