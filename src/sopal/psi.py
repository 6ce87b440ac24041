"""Two-party private set intersection over an encrypted framed transport.

The protocol runs between an initiator and a responder:

1. Hello exchange.  Each side sends its role, a fresh X25519 public key
   and its claimed OSN identifier, then derives the shared session key.
   Both public keys, initiator first, form the session binding.
2. The initiator inserts its items into a salted Bloom filter whose
   keyed hash absorbs the binding before each item, so a filter captured
   in one session matches nothing in another, and sends it, encrypted.
   The filter's own header states its size and index-function count.
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
from operator import itemgetter
from typing import Collection

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from sopal.crypto import (
    BF_HEADER_BYTES,
    DEFAULT_FP_TARGET,
    DIGEST_BYTES,
    BloomFilter,
    bf_hash_count,
    bf_optimal_size,
)

WIRE_VERSION = 4

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

# The largest filter a peer may send, in bits, against hostile memory
# blowup.  Its one use is the BF frame's payload limit below.
DEFAULT_BETA_CAP = 2**24
_MAX_PAYLOAD = 2**26
_MAX_ID_BYTES = 65535
# AEAD tag appended to every encrypted payload.
_AEAD_TAG_BYTES = 16
# The largest payload each message type's format allows, checked against
# the declared length before the frame's length is compared or anything decrypted.
_MAX_PAYLOAD_BY_TYPE = {
    MSG_HELLO: 1 + 32 + 2 + _MAX_ID_BYTES,
    MSG_BF: _AEAD_TAG_BYTES + BF_HEADER_BYTES + DEFAULT_BETA_CAP // 8,
    MSG_CHAL: _MAX_PAYLOAD,
    MSG_RESP: _MAX_PAYLOAD,
    MSG_REJECT: 0,
}

_HEADER = struct.Struct(">BB16sI")
_TAG = struct.Struct(f"{TAG_BYTES}s")

_TAG1_LABEL = b"chal1"
# The session key's one-byte SHA-256 label, disjoint from the chain's 0x01
# (sopal.crypto) and from the first byte of _TAG1_LABEL.
_KDF_LABEL = b"\x03"

PHASE_ACTIVE = "active"
PHASE_DONE = "done"
PHASE_FAILED = "failed"
PHASE_REJECTED = "rejected"


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
    limit = _MAX_PAYLOAD_BY_TYPE.get(msg_type)
    if limit is None:
        raise ProtocolError(f"unknown message type {msg_type}")
    if length > limit:
        raise ProtocolError(
            f"declared payload length {length} exceeds the {limit}-byte limit "
            f"for message type {msg_type}"
        )
    if len(data) != HEADER_LEN + length:
        raise ProtocolError("frame length does not match declared payload length")
    return msg_type, session_id, data[HEADER_LEN:]


def make_reject(session_id: bytes | None = None) -> bytes:
    """Build a Reject frame telling the peer we will not run discovery."""
    return build_frame(MSG_REJECT, session_id or bytes(SESSION_ID_BYTES), b"")


def _pack_hello(role: int, public: bytes, claimed_id: str) -> bytes:
    encoded = claimed_id.encode("utf-8")
    if len(encoded) > _MAX_ID_BYTES:
        raise ValueError("claimed identifier too long")
    return bytes([role]) + public + len(encoded).to_bytes(2, "big") + encoded


def _unpack_hello(payload: bytes) -> tuple[int, bytes, str]:
    if len(payload) < 1 + 32 + 2:
        raise ProtocolError("hello payload truncated")
    role = payload[0]
    public = payload[1:33]
    id_len = int.from_bytes(payload[33:35], "big")
    if len(payload) != 35 + id_len:
        raise ProtocolError("hello payload length mismatch")
    try:
        claimed_id = payload[35:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError("claimed identifier is not valid UTF-8") from exc
    return role, public, claimed_id


def _pack_tags(tags: list[bytes]) -> bytes:
    return len(tags).to_bytes(4, "big") + b"".join(tags)


def _match_tags(payload: bytes, own: dict[bytes, bytes]) -> set[bytes]:
    """The values of ``own``, a map from tag to value, whose tags the tag
    list ``payload`` holds.  The tags are read in place, so a long list
    costs its receiver no more than its own bytes."""
    if len(payload) < 4:
        raise ProtocolError("tag list truncated")
    count = int.from_bytes(payload[:4], "big")
    if len(payload) != 4 + count * TAG_BYTES:
        raise ProtocolError("tag list length mismatch")
    tags = map(itemgetter(0), _TAG.iter_unpack(memoryview(payload)[4:]))
    return set(map(own.__getitem__, filter(own.__contains__, tags)))


def establish_session(private_key: X25519PrivateKey, peer_public: bytes, binding: bytes) -> bytes:
    """Run X25519 with the peer and derive the 32-byte symmetric session key.

    The key is ``SHA-256(0x03 || shared secret || binding)``.  The PSI's
    binding is both public keys, initiator first, so both endpoints
    derive the identical value and the key is bound to this pairing.

    Raises ValueError for malformed or degenerate peer public keys.
    """
    secret = private_key.exchange(X25519PublicKey.from_public_bytes(peer_public))
    if secret == bytes(len(secret)):
        raise ValueError("degenerate peer public key")
    return hashlib.sha256(_KDF_LABEL + secret + binding).digest()


class PsiSession:
    """One endpoint of a discovery transcript, driven message by message.

    Construct with :meth:`start_initiator` or :meth:`start_responder`,
    then feed every inbound frame to :meth:`step`, sending whatever it
    returns.  A running session is in the one active phase and waits for
    exactly one message type: the initiator for a Hello, then a
    Challenge; the responder for a Hello, then a Filter, then a Response.
    Any other type, or a malformed or unauthenticated frame, moves the
    session to the failed phase and raises :class:`ProtocolError`.  A
    Reject frame terminates cleanly at any point.

    A session is single-threaded state; run concurrent discoveries with
    independent sessions.  It iterates ``values`` as given, without a
    copy, so the collection must not change while the session runs.
    """

    def __init__(
        self,
        role: int,
        values: Collection[bytes],
        claimed_id: str,
        *,
        fp_target: float = DEFAULT_FP_TARGET,
    ):
        self.role = role
        self._peer_role = ROLE_RESPONDER if role == ROLE_INITIATOR else ROLE_INITIATOR
        self.phase = PHASE_ACTIVE
        # The one message type this session accepts next.
        self._expect = MSG_HELLO
        # A fresh X25519 key per session; only its public half leaves.
        self._private_key = X25519PrivateKey.generate()
        self.public_key = self._private_key.public_key().public_bytes_raw()
        self.claimed_id = claimed_id
        self.failure_reason: str | None = None
        self.peer_claimed_id: str | None = None
        self._aead: ChaCha20Poly1305 | None = None

        # len() first, so a one-shot iterator fails before anything consumes it.
        alpha = len(values)
        if not set(map(type, values)) <= {bytes}:
            raise TypeError("PSI input values must be bytes")
        self.values = values
        # Both public keys, initiator first, once the hellos are exchanged,
        # and the response-tag hash state that has absorbed them.
        self._binding = b""
        self._tag1_prefix = hashlib.sha256(_TAG1_LABEL)
        # The initiator's own challenge tags, each to its value.
        self._own_tags: dict[bytes, bytes] = {}
        self._candidates: dict[bytes, bytes] = {}
        self._intersection: set[bytes] | None = None

        # Sized here, so a bad fp_target fails at construction.
        self.filter_beta = bf_optimal_size(alpha, fp_target)
        self.filter_gamma = bf_hash_count(alpha, self.filter_beta)

        self.session_id = (
            secrets.token_bytes(SESSION_ID_BYTES) if role == ROLE_INITIATOR else b""
        )
        self._send_counter = 0
        self._recv_counter = 0

    # -- construction ---------------------------------------------------

    @classmethod
    def start_initiator(
        cls, values: Collection[bytes], claimed_id: str, **kwargs
    ) -> tuple["PsiSession", bytes]:
        """Create the initiating endpoint; returns the session and its Hello frame."""
        session = cls(ROLE_INITIATOR, values, claimed_id, **kwargs)
        hello = build_frame(MSG_HELLO, session.session_id, session._own_hello())
        return session, hello

    @classmethod
    def start_responder(
        cls, values: Collection[bytes], claimed_id: str, **kwargs
    ) -> "PsiSession":
        """Create the responding endpoint; it speaks only via :meth:`step`."""
        return cls(ROLE_RESPONDER, values, claimed_id, **kwargs)

    def _own_hello(self) -> bytes:
        return _pack_hello(self.role, self.public_key, self.claimed_id)

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
        if self.phase != PHASE_ACTIVE:
            raise ProtocolError(f"session already terminated ({self.phase})")
        try:
            msg_type, session_id, payload = parse_frame(data)
            if msg_type == MSG_REJECT:
                self.phase = PHASE_REJECTED
                self._intersection = set()
                return None, True
            if msg_type != self._expect:
                raise ProtocolError(f"unexpected message type {msg_type}")
            if self.role == ROLE_RESPONDER and msg_type == MSG_HELLO:
                self.session_id = session_id
            elif session_id != self.session_id:
                raise ProtocolError("frame carries a different session id")
            return self._HANDLERS[msg_type](self, payload)
        except ProtocolError as exc:
            self.phase = PHASE_FAILED
            self.failure_reason = str(exc)
            raise

    def _on_hello(self, payload: bytes) -> tuple[bytes, bool]:
        role, public, claimed_id = _unpack_hello(payload)
        if role != self._peer_role:
            raise ProtocolError(f"unexpected role byte {role} in hello")
        self.peer_claimed_id = claimed_id
        own = self.public_key
        binding = public + own if self.role == ROLE_RESPONDER else own + public
        try:
            key = establish_session(self._private_key, public, binding)
        except ValueError as exc:
            raise ProtocolError(f"key agreement failed: {exc}") from exc
        self._aead = ChaCha20Poly1305(key)
        self._binding = binding
        self._tag1_prefix.update(binding)
        if self.role == ROLE_RESPONDER:
            self._expect = MSG_BF
            return build_frame(MSG_HELLO, self.session_id, self._own_hello()), False
        bf = BloomFilter(self.filter_beta, self.filter_gamma, context=self._binding)
        digests = bf.insert_all(self.values)
        self._own_tags = dict(zip(map(itemgetter(slice(TAG_BYTES)), digests), self.values))
        self._expect = MSG_CHAL
        return self._seal(MSG_BF, bf.to_bytes()), False

    def _on_filter(self, ciphertext: bytes) -> tuple[bytes, bool]:
        plaintext = self._open(MSG_BF, ciphertext)
        try:
            bf = BloomFilter.from_bytes(plaintext, context=self._binding)
        except ValueError as exc:
            raise ProtocolError(f"malformed filter: {exc}") from exc
        self._candidates = {d[:TAG_BYTES]: v for d, v in bf.probe_all(self.values)}
        self._expect = MSG_RESP
        return self._seal(MSG_CHAL, _pack_tags(sorted(self._candidates))), False

    def _on_challenge(self, ciphertext: bytes) -> tuple[bytes, bool]:
        self._intersection = _match_tags(self._open(MSG_CHAL, ciphertext), self._own_tags)
        proof = sorted(map(self._tag1, self._intersection))
        self.phase = PHASE_DONE
        return self._seal(MSG_RESP, _pack_tags(proof)), True

    def _on_response(self, ciphertext: bytes) -> tuple[None, bool]:
        # At most one response tag per challenge sent, checked before decrypting.
        if len(ciphertext) > _AEAD_TAG_BYTES + 4 + TAG_BYTES * len(self._candidates):
            raise ProtocolError("response holds more tags than the challenges sent")
        own = {self._tag1(v): v for v in self._candidates.values()}
        self._intersection = _match_tags(self._open(MSG_RESP, ciphertext), own)
        self.phase = PHASE_DONE
        return None, True

    _HANDLERS = {
        MSG_HELLO: _on_hello,
        MSG_BF: _on_filter,
        MSG_CHAL: _on_challenge,
        MSG_RESP: _on_response,
    }

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
        nonce = self._nonce(self._peer_role, self._recv_counter)
        try:
            plaintext = self._aead.decrypt(nonce, ciphertext, self._aad(msg_type))
        except InvalidTag as exc:
            raise ProtocolError("message failed to authenticate") from exc
        self._recv_counter += 1
        return plaintext

