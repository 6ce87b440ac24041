"""Capability records: storage, ersatz creation, distribution, expiry.

The store keeps one record per OSN id, flagged member or ersatz.  A
member upload attests the uploader's friend list to the social graph and
creates fresh ersatz records for every friend the store has never seen,
which is what lets two enrolled users discover a non-enrolled common
friend.  Distribution returns the friends' capabilities with ids, plus
anonymous higher-order values for nodes further out as one run of values
per degree.  A higher-order value is derived the first time a download
asks for it and memoised per degree; a write drops only the written id's
values, so the memo never outlives a capability.  It is never persisted.

Degree convention: with maximum degree ``d_max``, collection spans hop
layers 1 through ``d_max + 1``; layer ``i`` contributes values at degree
``i - 1``.  Ids appear only on layer-1 entries.

Persistence is a versioned JSON snapshot written atomically (temp file
then rename); the in-memory store is the source of truth in between.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Callable

from sopal.crypto import CAPABILITY_BITS, hash_chain, new_capability
from sopal.graph import SocialGraph

SNAPSHOT_VERSION = 3
DOWNLOAD_FORMAT = 2
_VALUE = struct.Struct(f"{CAPABILITY_BITS // 8}s")
DEFAULT_TTL_S = 48 * 3600.0

MEMBER = "member"
ERSATZ = "ersatz"


class NotEnrolledError(LookupError):
    """The id has no member record, so it cannot download capabilities."""


class AuthError(Exception):
    """The presented token does not authenticate any OSN user."""


class ServerError(RuntimeError):
    """A failure on the server's side: no connection, a TLS refusal, a
    timeout, a broken HTTP exchange, a status other than 2xx, 401 and
    403, or a malformed download body; ``__cause__`` holds the original."""


@dataclass(frozen=True, slots=True)
class CapRecord:
    """One stored (id, capability) pair; a write replaces the record."""

    uid: str
    cap: bytes
    kind: str
    created_at: float
    ttl_s: float
    stale: bool = False

    def expired(self, now: float) -> bool:
        return now - self.created_at > self.ttl_s


@dataclass(frozen=True)
class DistributionResult:
    """What one member downloads: id-bearing layer-1 entries ``r_u`` plus
    the anonymous values beyond as ``runs``, each ``(degree, values)`` with
    one or more values, held as the body carries them.  ``r_h`` is a view,
    not a second copy: the runs as ``(degree, value)`` pairs, for callers
    that count or compare values one by one."""

    r_u: tuple[tuple[str, bytes], ...]
    runs: tuple[tuple[int, tuple[bytes, ...]], ...]

    @property
    def r_h(self) -> tuple[tuple[int, bytes], ...]:
        return tuple((degree, value) for degree, values in self.runs for value in values)

    def total(self) -> int:
        return len(self.r_u) + sum(len(values) for _, values in self.runs)

    def to_json(self) -> str:
        """The download body: compact JSON with sorted keys, so
        ``format_version`` comes first, ``r_h`` before ``r_u`` and ``cap``
        before ``id``.  Raises ``ValueError`` for an empty run or a
        higher-order value that is not a capability's length."""
        size = CAPABILITY_BITS // 8
        runs = []
        for degree, values in self.runs:
            if set(map(len, values)) != {size}:
                raise ValueError(f"a run needs one or more values of {size} bytes")
            runs.append('[%d,"%s"]' % (degree, b"".join(values).hex()))
        dumps = json.dumps
        r_u = ",".join(
            '{"cap":"%s","id":%s}' % (cap.hex(), dumps(uid)) for uid, cap in self.r_u
        )
        body = '{"format_version":%d,"r_h":[%s],"r_u":[%s]}'
        return body % (DOWNLOAD_FORMAT, ",".join(runs), r_u)

    @classmethod
    def from_json(cls, text: str) -> "DistributionResult":
        """Parse a download body; raises only ``ValueError`` when it is
        malformed or of another format version."""
        size = CAPABILITY_BITS // 8
        try:
            body = json.loads(text)
            version = body["format_version"]
            if type(version) is not int or version != DOWNLOAD_FORMAT:
                raise ValueError(f"unsupported distribution format {version!r}")
            r_u = [(e["id"], e["cap"], bytes.fromhex(e["cap"])) for e in body["r_u"]]
            if any(type(u) is not str or len(d) != 2 * size or len(c) != size for u, d, c in r_u):
                raise ValueError("malformed distribution: bad r_u id or capability")
            runs = []
            for degree, digits in body["r_h"]:
                if type(degree) is not int:
                    raise ValueError("malformed distribution: degrees must be integers")
                raw = bytes.fromhex(digits)
                if not raw or len(raw) % size or 2 * len(raw) != len(digits):
                    raise ValueError(f"malformed distribution: run of {len(digits)} digits")
                runs.append((degree, tuple(map(itemgetter(0), _VALUE.iter_unpack(raw)))))
        except (KeyError, TypeError, RecursionError) as exc:
            raise ValueError(f"malformed distribution: {exc!r}") from None
        return cls(r_u=tuple((uid, cap) for uid, _, cap in r_u), runs=tuple(runs))


class CapabilityStore:
    """Persistent store of capability records plus the attested graph.

    One lock serializes every read and write of the records and the
    graph, so each call sees a consistent state.  Under the GIL a
    reader/writer split would give pure-Python readers no parallelism.
    Reading ``graph`` directly bypasses the lock.  A ``graph`` passed in
    must be empty, since each of its nodes must be a record.
    ``connector`` supplies authenticated friend lists; any object with a
    ``friends_of(uid)`` method works.
    """

    def __init__(
        self,
        graph: SocialGraph | None = None,
        connector=None,
        *,
        default_ttl_s: float = DEFAULT_TTL_S,
        clock: Callable[[], float] = time.time,
    ):
        if graph is not None and len(graph):
            raise ValueError("the store's graph must start empty")
        if not 0 < default_ttl_s < math.inf:
            raise ValueError(f"default_ttl_s must be positive and finite, got {default_ttl_s}")
        self.graph = graph if graph is not None else SocialGraph()
        self.connector = connector
        self.default_ttl_s = default_ttl_s
        self._clock = clock
        self._records: dict[str, CapRecord] = {}
        # _chains[k][uid]: hash_chain(cap, k), or b"" while the record is stale
        self._chains: dict[int, dict[str, bytes]] = {}
        self._lock = threading.Lock()

    # -- writes ----------------------------------------------------------

    def upload_capability(self, uid: str, cap: bytes) -> None:
        """Store ``uid``'s capability as a member record.

        Fetches the friend list from the connector first, so a connector
        failure leaves no partial state.  An existing ersatz record is
        overwritten in place, which upgrades the node transparently; a
        re-upload by an existing member just refreshes the value.
        """
        self._check_length(cap)
        if self.connector is None:
            raise RuntimeError("store has no OSN connector configured")
        friends = list(self.connector.friends_of(uid))
        now = self._clock()
        with self._lock:
            for friend in friends:
                if friend not in self._records:
                    self._put(self._new_ersatz(friend, now))
            self.graph.record_member(uid, friends)
            self._put(CapRecord(uid, cap, MEMBER, now, self.default_ttl_s))

    def expire_and_refresh(self) -> int:
        """Apply TTLs; returns how many records expired.

        Expired member records are marked stale and drop out of
        distribution until the member re-uploads.  Expired ersatz records
        get fresh random values, so their old values stop matching in any
        later discovery.
        """
        now = self._clock()
        count = 0
        with self._lock:
            for uid, rec in list(self._records.items()):
                if not rec.expired(now):
                    continue
                if rec.kind == MEMBER and not rec.stale:
                    self._put(replace(rec, stale=True))
                    count += 1
                elif rec.kind == ERSATZ:
                    self._put(self._new_ersatz(uid, now))
                    count += 1
        return count

    def _put(self, rec: CapRecord) -> None:
        """Store ``rec`` and drop its id's memoised values; needs the lock."""
        self._records[rec.uid] = rec
        for memo in self._chains.values():
            memo.pop(rec.uid, None)

    def _new_ersatz(self, uid: str, now: float) -> CapRecord:
        """A stand-in record with a fresh random value."""
        return CapRecord(uid, new_capability(), ERSATZ, now, self.default_ttl_s)

    @staticmethod
    def _check_length(cap: bytes) -> None:
        if len(cap) != CAPABILITY_BITS // 8:
            raise ValueError(f"capability must be {CAPABILITY_BITS} bits, got {len(cap) * 8}")

    # -- reads -----------------------------------------------------------

    def distribute(self, uid: str, d_max: int) -> DistributionResult:
        """The download for ``uid``: its friends' (id, capability) pairs,
        then each hop ring ``i`` up to ``d_max + 1`` as its degree ``i - 1``
        memo values.  ``r_u`` is sorted by id; ``runs`` has one run per
        degree with values, by ascending degree, each sorted by value."""
        if d_max < 0:
            raise ValueError("maximum degree must be non-negative")
        with self._lock:
            records = self._records
            rec = records.get(uid)
            if rec is None or rec.kind != MEMBER:
                raise NotEnrolledError(f"{uid!r} has no member record")
            rings = self.graph.hop_rings(uid, d_max + 1)
            r_u = [(f, r.cap) for ring in rings[1:2] for f in ring if not (r := records[f]).stale]
            buckets = [list(filter(None, map(self._chain(k, ring).get, ring)))
                       for k, ring in enumerate(rings[2:], 1)]
        r_u.sort()
        runs = tuple((degree, tuple(sorted(b))) for degree, b in enumerate(buckets, 1) if b)
        return DistributionResult(r_u=tuple(r_u), runs=runs)

    def _chain(self, degree: int, uids: set[str]) -> dict[str, bytes]:
        """The memo at ``degree``, filled for ``uids`` from the degrees below; needs the lock."""
        # Walk down while ids are missing, then hash upward: a download may outreach the stack.
        pending, records = [], self._records
        while degree and (missing := uids.difference(memo := self._chains.setdefault(degree, {}))):
            pending.append((memo, missing))
            degree, uids = degree - 1, missing
        base = memo if degree else {u: b"" if (r := records[u]).stale else r.cap for u in uids}
        for memo, missing in reversed(pending):
            for u in missing:
                memo[u] = hash_chain(base[u], 1) if base[u] else b""
            base = memo
        return base

    def record_of(self, uid: str) -> CapRecord | None:
        with self._lock:
            return self._records.get(uid)

    def record_count(self) -> int:
        with self._lock:
            return len(self._records)

    # -- persistence -------------------------------------------------------

    def save_snapshot(self, path) -> None:
        """Write a versioned JSON snapshot atomically (temp file + rename).

        Fields: ``format_version``; store config (``default_ttl_s``);
        ``records`` as objects with ``id``, ``cap``
        (lowercase hex), ``kind``, ``created_at``, ``ttl_s``, ``stale``;
        graph ``edges`` as ``[low, high]`` pairs.  The graph's nodes are
        the record ids.
        """
        with self._lock:
            body = {
                "format_version": SNAPSHOT_VERSION,
                "default_ttl_s": self.default_ttl_s,
                "records": [
                    {
                        "id": rec.uid,
                        "cap": rec.cap.hex(),
                        "kind": rec.kind,
                        "created_at": rec.created_at,
                        "ttl_s": rec.ttl_s,
                        "stale": rec.stale,
                    }
                    for rec in sorted(self._records.values(), key=lambda r: r.uid)
                ],
                "edges": [[u, v] for u, v in self.graph.edges()],
            }
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".snapshot-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(body, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load_snapshot(
        cls, path, connector=None, *, clock: Callable[[], float] = time.time
    ) -> "CapabilityStore":
        """Read a :meth:`save_snapshot` file; raises only ``ValueError``
        when it is malformed or inconsistent."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                body = json.load(fh)
                version = body.get("format_version")
            except (AttributeError, RecursionError) as exc:
                raise ValueError(f"malformed snapshot: {exc!r}") from None
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        try:
            store = cls(
                None,
                connector,
                default_ttl_s=_typed(body["default_ttl_s"], int, float),
                clock=clock,
            )
            for entry in _typed(body["records"], list):
                rec = CapRecord(
                    uid=_typed(entry["id"], str),
                    cap=bytes.fromhex(entry["cap"]),
                    kind=entry["kind"],
                    created_at=_typed(entry["created_at"], int, float),
                    ttl_s=_typed(entry["ttl_s"], int, float),
                    stale=_typed(entry["stale"], bool),
                )
                if rec.kind not in (MEMBER, ERSATZ):
                    raise ValueError(f"record {rec.uid!r} has unknown kind {rec.kind!r}")
                if not (0 < rec.ttl_s < math.inf and abs(rec.created_at) < math.inf):
                    raise ValueError(f"record {rec.uid!r} needs a finite created_at and ttl_s > 0")
                if rec.uid in store._records:
                    raise ValueError(f"record {rec.uid!r} is listed twice")
                store._check_length(rec.cap)
                store._records[rec.uid] = rec
            edges = [_typed(edge, list) for edge in _typed(body["edges"], list)]
            store.graph = SocialGraph.from_parts(store._records, edges)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed snapshot: {exc!r}") from None
        return store


def _typed(value, *types: type):
    """``value`` if its type is exactly one of ``types`` (so a boolean is
    not a number); raises TypeError otherwise."""
    if type(value) not in types:
        raise TypeError(f"expected {' or '.join(t.__name__ for t in types)}, got {value!r}")
    return value
