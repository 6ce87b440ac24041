"""Two-party private set intersection over an encrypted framed transport.

The protocol runs between an initiator and a responder:

1. Hello exchange.  Each side sends its role, a fresh X25519 public key,
   its claimed OSN identifier and the Bloom filter parameters it intends
   to use, then derives the shared session key.  Both public keys,
   initiator first, form the session binding.
2. The initiator inserts its items into a salted Bloom filter whose
   keyed hash absorbs the binding before each item, so a filter captured
   in one session matches nothing in another, and sends it, encrypted.
3. The responder answers with challenge tags for its items that hit the
   filter, sorted by byte value.  An item's challenge tag is the first
   32 bytes of the keyed digest that sets or probes its filter bits, so
   each side hashes each item once.  The order is a function of the tag
   set alone, so it hides the order of the input set and reveals
   nothing the receiver does not already see.
4. The initiator returns response tags,
   ``SHA-256("chal1" || binding || item)`` sorted the same way, for the
   challenges that match the digests of its own items.  This removes
   Bloom filter false positives, and both sides finish holding the exact
   intersection.

Wire envelope (bit-exact): 1 version byte, 1 message-type byte, a
16-byte session id, a 4-byte big-endian payload length, then the
payload.  The Hello and Reject payloads travel in the clear; everything
after the Hello exchange is AEAD ciphertext under the session key with a
per-message counter nonce, with the envelope header authenticated as
associated data.
"""

from __future__ import annotations

import hashlib
import secrets
import struct
from typing import Iterable

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from sopal.crypto import (
    BF_HEADER_BYTES,
    BF_MAX_GAMMA,
    DIGEST_BYTES,
    BloomFilter,
    bf_hash_count,
    bf_optimal_size,
    establish_session,
)

WIRE_VERSION = 3

MSG_HELLO = 1
MSG_BF = 2
MSG_CHAL = 3
MSG_RESP = 4
MSG_REJECT = 5

ROLE_INITIATOR = 1
ROLE_RESPONDER = 2

SESSION_ID_BYTES = 16
HEADER_LEN = 22
TAG_BYTES = DIGEST_BYTES

DEFAULT_FP_TARGET = 0.001
# Bound on the filter size a peer may declare, against hostile memory blowup.
DEFAULT_BETA_CAP = 2**24
_MAX_PAYLOAD = 2**26
_MAX_ID_BYTES = 65535
# AEAD tag appended to every encrypted payload.
_AEAD_TAG_BYTES = 16
# The largest payload each message type's format allows, checked against
# the declared length before anything is read or authenticated.  The BF
# limit fits a filter of DEFAULT_BETA_CAP bits, the largest a peer's hello
# may declare.
_MAX_PAYLOAD_BY_TYPE = {
    MSG_HELLO: 1 + 32 + 2 + _MAX_ID_BYTES + 5,
    MSG_BF: _AEAD_TAG_BYTES + BF_HEADER_BYTES + DEFAULT_BETA_CAP // 8,
    MSG_CHAL: _MAX_PAYLOAD,
    MSG_RESP: _MAX_PAYLOAD,
    MSG_REJECT: 0,
}

_HEADER = struct.Struct(">BB16sI")

_TAG1_LABEL = b"chal1"

PHASE_HELLO = "hello"
PHASE_BF_SENT = "bf_sent"
PHASE_BF_AWAITED = "bf_awaited"
PHASE_CHALLENGED = "challenged"
PHASE_DONE = "done"
PHASE_FAILED = "failed"
PHASE_REJECTED = "rejected"

_TERMINAL = (PHASE_DONE, PHASE_FAILED, PHASE_REJECTED)


class ProtocolError(Exception):
    """A frame could not be processed; the session has moved to failed."""


def build_frame(msg_type: int, session_id: bytes, payload: bytes) -> bytes:
    if len(session_id) != SESSION_ID_BYTES:
        raise ValueError(f"session id must be {SESSION_ID_BYTES} bytes")
    return _HEADER.pack(WIRE_VERSION, msg_type, session_id, len(payload)) + payload


def parse_frame(data: bytes) -> tuple[int, bytes, bytes]:
    """Split a frame into (message type, session id, payload)."""
    if len(data) < HEADER_LEN:
        raise ProtocolError("frame shorter than envelope header")
    version, msg_type, session_id, length = _HEADER.unpack_from(data)
    if version != WIRE_VERSION:
        raise ProtocolError(f"unsupported wire version {version}")
    _check_declared_length(msg_type, length)
    if len(data) != HEADER_LEN + length:
        raise ProtocolError("frame length does not match declared payload length")
    return msg_type, session_id, data[HEADER_LEN:]


def _check_declared_length(msg_type: int, length: int) -> None:
    limit = _MAX_PAYLOAD_BY_TYPE.get(msg_type)
    if limit is None:
        raise ProtocolError(f"unknown message type {msg_type}")
    if length > limit:
        raise ProtocolError(
            f"declared payload length {length} exceeds the {limit}-byte limit "
            f"for message type {msg_type}"
        )


def make_reject(session_id: bytes | None = None) -> bytes:
    """Build a Reject frame telling the peer we will not run discovery."""
    return build_frame(MSG_REJECT, session_id or bytes(SESSION_ID_BYTES), b"")


def _pack_hello(role: int, public: bytes, claimed_id: str, beta: int, gamma: int) -> bytes:
    encoded = claimed_id.encode("utf-8")
    if len(encoded) > _MAX_ID_BYTES:
        raise ValueError("claimed identifier too long")
    return (
        bytes([role])
        + public
        + len(encoded).to_bytes(2, "big")
        + encoded
        + beta.to_bytes(4, "big")
        + bytes([gamma])
    )


def _unpack_hello(payload: bytes) -> tuple[int, bytes, str, int, int]:
    if len(payload) < 1 + 32 + 2 + 4 + 1:
        raise ProtocolError("hello payload truncated")
    role = payload[0]
    public = payload[1:33]
    id_len = int.from_bytes(payload[33:35], "big")
    if len(payload) != 35 + id_len + 5:
        raise ProtocolError("hello payload length mismatch")
    try:
        claimed_id = payload[35 : 35 + id_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError("claimed identifier is not valid UTF-8") from exc
    beta = int.from_bytes(payload[35 + id_len : 39 + id_len], "big")
    gamma = payload[39 + id_len]
    return role, public, claimed_id, beta, gamma


def _pack_tags(tags: list[bytes]) -> bytes:
    return len(tags).to_bytes(4, "big") + b"".join(tags)


def _unpack_tags(payload: bytes) -> set[bytes]:
    if len(payload) < 4:
        raise ProtocolError("tag list truncated")
    count = int.from_bytes(payload[:4], "big")
    if len(payload) != 4 + count * TAG_BYTES:
        raise ProtocolError("tag list length mismatch")
    return {payload[4 + i * TAG_BYTES : 4 + (i + 1) * TAG_BYTES] for i in range(count)}


class PsiSession:
    """One endpoint of a discovery transcript, driven message by message.

    Construct with :meth:`start_initiator` or :meth:`start_responder`,
    then feed every inbound frame to :meth:`step`, sending whatever it
    returns.  Phase transitions are monotone along the fixed flow: any
    out-of-order, malformed or unauthenticated frame moves the session to
    the failed phase and raises :class:`ProtocolError`.  A Reject frame
    terminates cleanly at any point.

    A session is single-threaded state; run concurrent discoveries with
    independent sessions.
    """

    def __init__(
        self,
        role: int,
        values: Iterable[bytes],
        claimed_id: str,
        *,
        fp_target: float = DEFAULT_FP_TARGET,
    ):
        self.role = role
        self.phase = PHASE_HELLO
        # A fresh X25519 key per session; only its public half leaves.
        self._private_key = X25519PrivateKey.generate()
        self.public_key = self._private_key.public_key().public_bytes_raw()
        self.claimed_id = claimed_id
        self.failure_reason: str | None = None
        self.peer_claimed_id: str | None = None
        self._aead: ChaCha20Poly1305 | None = None

        self._values = list(values)
        if not set(map(type, self._values)) <= {bytes}:
            raise TypeError("PSI input values must be bytes")
        # Both public keys, initiator first, once the hellos are exchanged,
        # and the response-tag hash state that has absorbed them.
        self._binding = b""
        self._tag1_prefix = hashlib.sha256(_TAG1_LABEL)
        self._digests: list[bytes] = []
        self._candidates: dict[bytes, bytes] = {}
        self._intersection: set[bytes] | None = None

        alpha = len(self._values)
        self.declared_beta = bf_optimal_size(alpha, fp_target)
        self.declared_gamma = bf_hash_count(alpha, self.declared_beta)
        self.peer_beta: int | None = None
        self.peer_gamma: int | None = None

        self.session_id = (
            secrets.token_bytes(SESSION_ID_BYTES) if role == ROLE_INITIATOR else b""
        )
        self._send_counter = 0
        self._recv_counter = 0

    # -- construction ---------------------------------------------------

    @classmethod
    def start_initiator(
        cls, values: Iterable[bytes], claimed_id: str, **kwargs
    ) -> tuple["PsiSession", bytes]:
        """Create the initiating endpoint; returns the session and its Hello frame."""
        session = cls(ROLE_INITIATOR, values, claimed_id, **kwargs)
        hello = build_frame(MSG_HELLO, session.session_id, session._own_hello())
        return session, hello

    @classmethod
    def start_responder(
        cls, values: Iterable[bytes], claimed_id: str, **kwargs
    ) -> "PsiSession":
        """Create the responding endpoint; it speaks only via :meth:`step`."""
        return cls(ROLE_RESPONDER, values, claimed_id, **kwargs)

    def _own_hello(self) -> bytes:
        return _pack_hello(
            self.role,
            self.public_key,
            self.claimed_id,
            self.declared_beta,
            self.declared_gamma,
        )

    # -- results ----------------------------------------------------------

    @property
    def matched_values(self) -> frozenset[bytes]:
        """The final intersection: the input values both sides hold."""
        if self._intersection is None:
            raise ProtocolError("session has not completed")
        return frozenset(self._intersection)

    # -- state machine ----------------------------------------------------

    def step(self, data: bytes) -> tuple[bytes | None, bool]:
        """Process one inbound frame.

        Returns (outbound frame or None, done flag).  Raises
        :class:`ProtocolError` and parks the session in the failed phase
        when the frame cannot be processed.
        """
        if self.phase in _TERMINAL:
            raise ProtocolError(f"session already terminated ({self.phase})")
        try:
            msg_type, session_id, payload = parse_frame(data)
            if msg_type == MSG_REJECT:
                self.phase = PHASE_REJECTED
                self._intersection = set()
                return None, True
            if self.role == ROLE_RESPONDER and self.phase == PHASE_HELLO:
                self.session_id = session_id
            elif session_id != self.session_id:
                raise ProtocolError("frame carries a different session id")
            return self._dispatch(msg_type, payload)
        except ProtocolError as exc:
            self._fail(str(exc))
            raise

    def _dispatch(self, msg_type: int, payload: bytes) -> tuple[bytes | None, bool]:
        key = (self.role, self.phase, msg_type)
        if key == (ROLE_RESPONDER, PHASE_HELLO, MSG_HELLO):
            return self._on_initiator_hello(payload)
        if key == (ROLE_INITIATOR, PHASE_HELLO, MSG_HELLO):
            return self._on_responder_hello(payload)
        if key == (ROLE_RESPONDER, PHASE_BF_AWAITED, MSG_BF):
            return self._on_filter(payload)
        if key == (ROLE_INITIATOR, PHASE_BF_SENT, MSG_CHAL):
            return self._on_challenge(payload)
        if key == (ROLE_RESPONDER, PHASE_CHALLENGED, MSG_RESP):
            return self._on_response(payload)
        raise ProtocolError(
            f"message type {msg_type} not valid in phase {self.phase} for role {self.role}"
        )

    def _fail(self, reason: str) -> None:
        if self.phase != PHASE_FAILED:
            self.phase = PHASE_FAILED
            self.failure_reason = reason

    def _accept_peer_hello(self, payload: bytes, expected_role: int) -> None:
        role, public, claimed_id, beta, gamma = _unpack_hello(payload)
        if role != expected_role:
            raise ProtocolError(f"unexpected role byte {role} in hello")
        if beta > DEFAULT_BETA_CAP:
            raise ProtocolError(
                f"peer declared an oversized filter ({beta} bits > cap {DEFAULT_BETA_CAP})"
            )
        if not 1 <= gamma <= BF_MAX_GAMMA:
            raise ProtocolError(f"peer declared {gamma} index functions, not 1 to {BF_MAX_GAMMA}")
        self.peer_claimed_id = claimed_id
        self.peer_beta = beta
        self.peer_gamma = gamma
        own = self.public_key
        binding = public + own if self.role == ROLE_RESPONDER else own + public
        try:
            key = establish_session(self._private_key, public, binding)
        except ValueError as exc:
            raise ProtocolError(f"key agreement failed: {exc}") from exc
        self._aead = ChaCha20Poly1305(key)
        self._binding = binding
        self._tag1_prefix.update(binding)

    def _on_initiator_hello(self, payload: bytes) -> tuple[bytes, bool]:
        self._accept_peer_hello(payload, ROLE_INITIATOR)
        self.phase = PHASE_BF_AWAITED
        return build_frame(MSG_HELLO, self.session_id, self._own_hello()), False

    def _on_responder_hello(self, payload: bytes) -> tuple[bytes, bool]:
        self._accept_peer_hello(payload, ROLE_RESPONDER)
        bf = BloomFilter(self.declared_beta, self.declared_gamma, context=self._binding)
        self._digests = bf.insert_all(self._values)
        self.phase = PHASE_BF_SENT
        return self._seal(MSG_BF, bf.to_bytes()), False

    def _on_filter(self, ciphertext: bytes) -> tuple[bytes, bool]:
        plaintext = self._open(MSG_BF, ciphertext)
        try:
            bf = BloomFilter.from_bytes(plaintext, context=self._binding)
        except ValueError as exc:
            raise ProtocolError(f"malformed filter: {exc}") from exc
        if bf.beta != self.peer_beta or bf.gamma != self.peer_gamma:
            raise ProtocolError("filter does not match the declared parameters")
        self._candidates = {d[:TAG_BYTES]: v for d, v in bf.probe_all(self._values)}
        self.phase = PHASE_CHALLENGED
        return self._seal(MSG_CHAL, _pack_tags(sorted(self._candidates))), False

    def _on_challenge(self, ciphertext: bytes) -> tuple[bytes, bool]:
        received = _unpack_tags(self._open(MSG_CHAL, ciphertext))
        matched = [v for v, d in zip(self._values, self._digests) if d[:TAG_BYTES] in received]
        self._intersection = set(matched)
        proof = sorted(map(self._tag1, matched))
        self.phase = PHASE_DONE
        return self._seal(MSG_RESP, _pack_tags(proof)), True

    def _on_response(self, ciphertext: bytes) -> tuple[None, bool]:
        received = _unpack_tags(self._open(MSG_RESP, ciphertext))
        self._intersection = {
            v for v in self._candidates.values() if self._tag1(v) in received
        }
        self.phase = PHASE_DONE
        return None, True

    def _tag1(self, value: bytes) -> bytes:
        hasher = self._tag1_prefix.copy()
        hasher.update(value)
        return hasher.digest()

    # -- encryption -------------------------------------------------------

    def _nonce(self, sender_role: int, counter: int) -> bytes:
        return bytes([sender_role]) + b"\x00\x00\x00" + counter.to_bytes(8, "big")

    def _aad(self, msg_type: int) -> bytes:
        return bytes([WIRE_VERSION, msg_type]) + self.session_id

    def _seal(self, msg_type: int, plaintext: bytes) -> bytes:
        assert self._aead is not None
        nonce = self._nonce(self.role, self._send_counter)
        self._send_counter += 1
        ciphertext = self._aead.encrypt(nonce, plaintext, self._aad(msg_type))
        return build_frame(msg_type, self.session_id, ciphertext)

    def _open(self, msg_type: int, ciphertext: bytes) -> bytes:
        assert self._aead is not None
        peer_role = ROLE_RESPONDER if self.role == ROLE_INITIATOR else ROLE_INITIATOR
        nonce = self._nonce(peer_role, self._recv_counter)
        try:
            plaintext = self._aead.decrypt(nonce, ciphertext, self._aad(msg_type))
        except InvalidTag as exc:
            raise ProtocolError("message failed to authenticate") from exc
        self._recv_counter += 1
        return plaintext


def recv_frame(sock) -> bytes:
    """Read exactly one frame from a stream socket."""
    header = _recv_exact(sock, HEADER_LEN)
    length = int.from_bytes(header[18:22], "big")
    _check_declared_length(header[1], length)
    return header + _recv_exact(sock, length)


def _recv_exact(sock, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
