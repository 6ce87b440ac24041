"""Cryptographic building blocks: hash chains and salted Bloom filters.

A bearer capability is a fresh uniformly random byte string whose
possession proves an authentic friendship.  Higher-order values are
derived from it with a SHA-256 hash chain, so holding the k-fold hash
proves a social path without revealing the base value.  Bloom filters
carry capability sets compactly during discovery; each filter has one
fresh salt, and every item is hashed once with BLAKE2b keyed by it, all
of its bit positions and its discovery challenge tag coming from that
single digest.  Only :mod:`hashlib` is used here; the session key
agreement lives with the protocol in :mod:`sopal.psi`.

Chain steps hash under the one-byte SHA-256 label 0x01 and psi's session
key under 0x03, so chain values and derived keys never share an input.
"""

from __future__ import annotations

import hashlib
import math
import secrets
import struct
from typing import Iterable

CAPABILITY_BITS = 256
DIGEST_BYTES = 32
BF_SALT_BYTES = 16
BF_WIRE_VERSION = 4
# One BLAKE2b digest is at most 64 bytes: 16 positions of 32 bits each.
BF_MAX_GAMMA = 16

# Filter wire header: version, beta, gamma, salt.
BF_HEADER_BYTES = 1 + 4 + 1 + BF_SALT_BYTES

# The chain's one-byte domain separation label; psi's key label is 0x03.
_CHAIN_LABEL = b"\x01"
# The Bloom filter false-positive target a discovery session sizes for.
DEFAULT_FP_TARGET = 0.001

_LN2 = math.log(2)

# Filter cells (one byte, 0 or 1, per bit) to binary digits, and for
# each bit index i a table from a packed byte to its bit i as a cell.
_CELLS_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BIT_TO_CELL = [bytes((byte >> i) & 1 for byte in range(256)) for i in range(8)]


def new_capability() -> bytes:
    """Generate a fresh uniformly random :data:`CAPABILITY_BITS`-bit bearer
    capability."""
    return secrets.token_bytes(CAPABILITY_BITS // 8)


def hash_chain(x: bytes, i: int) -> bytes:
    """Apply the chain hash ``i`` times to ``x``.

    The zero-length chain is the identity, so ``hash_chain(x, 0) == x``
    and ``hash_chain(x, a + b) == hash_chain(hash_chain(x, b), a)`` for
    all non-negative ``a`` and ``b``.
    """
    if i < 0:
        raise ValueError("chain length must be non-negative")
    for _ in range(i):
        x = hashlib.sha256(_CHAIN_LABEL + x).digest()
    return x


def bf_optimal_size(alpha: int, p: float) -> int:
    """Bloom filter size in bits for ``alpha`` items at false-positive target ``p``.

    Computed as ``ceil((-log2 p) / ln 2) * alpha``.
    """
    if alpha < 0:
        raise ValueError("item count must be non-negative")
    if not 0.0 < p < 1.0:
        raise ValueError("false-positive target must lie in (0, 1)")
    return math.ceil(-math.log2(p) / _LN2) * alpha


def bf_hash_count(alpha: int, beta: int) -> int:
    """Index-function count that roughly minimises false positives.

    Uses the classic ``(beta / alpha) * ln 2`` rule, clamped to the
    :data:`BF_MAX_GAMMA` positions one filter digest supplies (the rule
    exceeds it only for false-positive targets below about 1.6e-5).
    """
    if alpha <= 0 or beta <= 0:
        return 1
    return min(BF_MAX_GAMMA, max(1, round(beta / alpha * _LN2)))


def bf_false_positive_estimate(alpha: int, beta: int, gamma: int) -> float:
    """Probability that a never-inserted item tests positive.

    Evaluates ``(1 - (1 - 1/beta)^(gamma * alpha))^gamma``.
    """
    if beta < 1:
        raise ValueError("filter size must be at least one bit")
    if gamma < 1:
        raise ValueError("index-function count must be at least one")
    if alpha < 0:
        raise ValueError("item count must be non-negative")
    return (1.0 - (1.0 - 1.0 / beta) ** (gamma * alpha)) ** gamma


class BloomFilter:
    """Bit-array set sketch with salted BLAKE2b index functions.

    Each filter carries one fresh random 16-byte salt, so bit positions
    are not comparable across filters and a transferred filter is only
    meaningful inside its own session.  An item is hashed once, as
    ``d = BLAKE2b(context || item, key=salt, digest_size=max(32, 4 * gamma))``
    (keyed BLAKE2b, RFC 7693); its ``gamma`` positions are the first
    ``gamma`` big-endian 32-bit words of ``d``, each taken ``mod beta``,
    and its first :data:`DIGEST_BYTES` bytes serve the PSI as the item's
    challenge tag.  :meth:`insert_all` and :meth:`probe_all` hand these
    digests back.  The positions are independent, so even small filters
    stay close to the false-positive rate that
    :func:`bf_false_positive_estimate` predicts; the modulo bias of a
    32-bit word is at most ``beta / 2**32`` per position, which is
    2**-8 at the largest size a peer accepts (``DEFAULT_BETA_CAP``,
    2**24 bits).  One digest supplies at most 16 words, so a ``gamma``
    above :data:`BF_MAX_GAMMA` is refused.  The filter never produces
    false negatives.

    ``context``, both session public keys in the PSI, binds the items
    to one use: it is absorbed into the keyed state once and never goes
    on the wire, so a filter parsed under another context matches
    nothing it holds.  Empty, ``d`` hashes the bare item.

    In memory the filter is its wire bits, :attr:`bits` (bit j in byte
    j // 8 under mask 1 << (j % 8), padding zero); :meth:`insert_all` and
    :meth:`probe_all` expand them to one byte per bit only while they run.

    A single instance is not safe for concurrent mutation.
    """

    def __init__(self, beta: int, gamma: int, salt: bytes | None = None, *, context: bytes = b""):
        if beta < 0:
            raise ValueError("filter size must be non-negative")
        if not 1 <= gamma <= BF_MAX_GAMMA:
            raise ValueError(f"index-function count must lie in [1, {BF_MAX_GAMMA}]")
        if salt is None:
            salt = secrets.token_bytes(BF_SALT_BYTES)
        if len(salt) != BF_SALT_BYTES:
            raise ValueError(f"salt must be {BF_SALT_BYTES} bytes")
        self.beta = beta
        self.gamma = gamma
        self.salt = bytes(salt)
        self.bits = bytearray((beta + 7) // 8)
        # Copying a keyed state costs about half of building one per item.
        digest_size = max(DIGEST_BYTES, 4 * gamma)
        self._hasher = hashlib.blake2b(context, key=self.salt, digest_size=digest_size)
        self._digest_words = digest_size // 4
        self._positions = struct.Struct(f">{gamma}I").unpack_from

    def insert(self, item: bytes) -> None:
        self.insert_all((item,))

    def insert_all(self, items: Iterable[bytes]) -> list[bytes]:
        """Insert every item: hash each one, then set all their positions.
        Returns the items' digests in input order."""
        copy = self._hasher.copy
        digests = []
        for item in items:
            hasher = copy()
            hasher.update(item)
            digests.append(hasher.digest())
        if not digests:
            return digests
        beta = self.beta
        if beta == 0:
            raise ValueError("cannot insert into a zero-size filter")
        cells = self._cells()
        # One code for all the words: a format repeated per digest would
        # leave struct's format cache a compiled copy, tens of kB, for
        # each input-set size.  Word i of each digest is words[i::stride].
        stride = self._digest_words
        words = struct.unpack(f">{len(digests) * stride}I", b"".join(digests))
        for i in range(self.gamma):
            for word in words[i::stride]:
                cells[word % beta] = 1
        # Reversed, the cells are the binary digits of a little-endian integer.
        digits = cells[::-1].translate(_CELLS_TO_DIGITS)
        self.bits[:] = int(digits, 2).to_bytes(len(self.bits), "little")
        return digests

    def probe_all(self, items: Iterable[bytes]) -> list[tuple[bytes, bytes]]:
        """The ``(digest, item)`` pairs of the items that test positive,
        in input order."""
        beta = self.beta
        if beta == 0:
            return []
        cells = self._cells()
        copy = self._hasher.copy
        positions = self._positions
        hits = []
        for item in items:
            hasher = copy()
            hasher.update(item)
            digest = hasher.digest()
            for word in positions(digest):
                if not cells[word % beta]:
                    break
            else:
                hits.append((digest, item))
        return hits

    def __contains__(self, item: bytes) -> bool:
        return bool(self.probe_all((item,)))

    def _cells(self) -> bytearray:
        """The bits one byte per bit, each 0 or 1, padding included."""
        bits = self.bits
        cells = bytearray(8 * len(bits))
        for i, table in enumerate(_BIT_TO_CELL):
            cells[i::8] = bits.translate(table)
        return cells

    def to_bytes(self) -> bytes:
        """Serialize: version byte, beta (4-byte big-endian), gamma (1 byte),
        the 16-byte salt, then :attr:`bits`."""
        return (
            bytes([BF_WIRE_VERSION])
            + self.beta.to_bytes(4, "big")
            + bytes([self.gamma])
            + self.salt
            + self.bits
        )

    @classmethod
    def from_bytes(cls, data: bytes, *, context: bytes = b"") -> "BloomFilter":
        """Parse :meth:`to_bytes` output for use under ``context``; raises
        ValueError for anything else, including filters of another wire
        version and filters with a padding bit set, so
        ``from_bytes(x).to_bytes() == x``."""
        if len(data) < BF_HEADER_BYTES:
            raise ValueError("truncated filter")
        if data[0] != BF_WIRE_VERSION:
            raise ValueError(f"unsupported filter version {data[0]}")
        beta = int.from_bytes(data[1:5], "big")
        gamma = data[5]
        if gamma < 1:
            raise ValueError("index-function count must be at least one")
        if len(data) != BF_HEADER_BYTES + (beta + 7) // 8:
            raise ValueError("filter length does not match declared parameters")
        if beta % 8 and data[-1] >> (beta % 8):
            raise ValueError("filter padding bits are set")
        bf = cls(beta, gamma, data[6:BF_HEADER_BYTES], context=context)
        bf.bits[:] = memoryview(data)[BF_HEADER_BYTES:]
        return bf
