"""Independent reference implementations used as test oracles.

These are deliberately written from the public algorithm descriptions
(FIPS 180-4 for SHA-256, RFC 7748 for X25519, breadth-first hop
distances, the capability download and its input-set expansion, the
coverage procedure of ``sopal.sim.run_coverage`` computed the direct
way) and share no code with the package, so they can vouch for the
production code.  The one exception is :func:`model_protocol_equivalence`,
which runs the package's real store and clients to check its coverage
model against them.
"""

import random
import statistics

from sopal.client import run_discovery_pair
from sopal.sim import discoverable

from helpers import enrolled_world

# -- SHA-256 (FIPS 180-4) ----------------------------------------------------

_K = [
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
]

_H0 = [
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
]

_M32 = 0xFFFFFFFF


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & _M32


def pure_sha256(message: bytes) -> bytes:
    """SHA-256 computed from the FIPS 180-4 description."""
    length = len(message) * 8
    message += b"\x80"
    while len(message) % 64 != 56:
        message += b"\x00"
    message += length.to_bytes(8, "big")

    h = list(_H0)
    for off in range(0, len(message), 64):
        block = message[off : off + 64]
        w = [int.from_bytes(block[i : i + 4], "big") for i in range(0, 64, 4)]
        for t in range(16, 64):
            s0 = _rotr(w[t - 15], 7) ^ _rotr(w[t - 15], 18) ^ (w[t - 15] >> 3)
            s1 = _rotr(w[t - 2], 17) ^ _rotr(w[t - 2], 19) ^ (w[t - 2] >> 10)
            w.append((w[t - 16] + s0 + w[t - 7] + s1) & _M32)
        a, b, c, d, e, f, g, hh = h
        for t in range(64):
            big_s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g)
            t1 = (hh + big_s1 + ch + _K[t] + w[t]) & _M32
            big_s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            t2 = (big_s0 + maj) & _M32
            hh, g, f, e, d, c, b, a = g, f, e, (d + t1) & _M32, c, b, a, (t1 + t2) & _M32
        h = [(x + y) & _M32 for x, y in zip(h, [a, b, c, d, e, f, g, hh])]
    return b"".join(x.to_bytes(4, "big") for x in h)


# -- X25519 (RFC 7748) -------------------------------------------------------

_P = 2**255 - 19
_A24 = 121665


def _decode_scalar(k: bytes) -> int:
    b = bytearray(k)
    b[0] &= 248
    b[31] &= 127
    b[31] |= 64
    return int.from_bytes(b, "little")


def _decode_u(u: bytes) -> int:
    b = bytearray(u)
    b[31] &= 127
    return int.from_bytes(b, "little") % _P


def pure_x25519(k: bytes, u: bytes) -> bytes:
    """The X25519 function computed with the RFC 7748 Montgomery ladder."""
    scalar = _decode_scalar(k)
    x1 = _decode_u(u)
    x2, z2 = 1, 0
    x3, z3 = x1, 1
    swap = 0
    for t in reversed(range(255)):
        k_t = (scalar >> t) & 1
        swap ^= k_t
        if swap:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = k_t
        a = (x2 + z2) % _P
        aa = (a * a) % _P
        b = (x2 - z2) % _P
        bb = (b * b) % _P
        e = (aa - bb) % _P
        c = (x3 + z3) % _P
        d = (x3 - z3) % _P
        da = (d * a) % _P
        cb = (c * b) % _P
        x3 = pow(da + cb, 2, _P)
        z3 = (x1 * pow(da - cb, 2, _P)) % _P
        x2 = (aa * bb) % _P
        z2 = (e * (aa + _A24 * e)) % _P
    if swap:
        x2, x3 = x3, x2
        z2, z3 = z3, z2
    result = (x2 * pow(z2, _P - 2, _P)) % _P
    return result.to_bytes(32, "little")


def brute_intersection(xs, ys) -> set:
    """Exact set intersection, the oracle for the interactive protocol."""
    return set(xs) & set(ys)


# -- hop distances -----------------------------------------------------------


def bfs(adjacency, start, depth=None):
    """Hop distance from ``start`` of every node within ``depth`` hops, or
    of every reachable node when ``depth`` is None."""
    dist = {start: 0}
    frontier = [start]
    d = 0
    while frontier and d != depth:
        d += 1
        nxt = []
        for node in frontier:
            for nbr in adjacency.get(node, ()):
                if nbr not in dist:
                    dist[nbr] = d
                    nxt.append(nbr)
        frontier = nxt
    return dist


# -- capability distribution -------------------------------------------------


def reference_distribute(adjacency, live_caps, uid, d_max):
    """``CapabilityStore.distribute`` computed the direct way: a BFS over
    the attested ``adjacency`` out to ``d_max + 1`` hops, the layer-1
    nodes with their ids and capabilities, and each node ``i`` hops out
    as its capability hashed ``i - 1`` times with ``pure_sha256``.
    ``live_caps`` maps every node with a live (not stale) record to its
    capability; other nodes are left out.  Returns ``(r_u, r_h)``, both
    sorted.
    """
    r_u, r_h = [], []
    for node, hops in bfs(adjacency, uid, d_max + 1).items():
        cap = live_caps.get(node)
        if hops == 0 or cap is None:
            continue
        if hops == 1:
            r_u.append((node, cap))
            continue
        value = cap
        for _ in range(hops - 1):
            value = pure_sha256(b"\x01" + value)
        r_h.append((hops - 1, value))
    return tuple(sorted(r_u)), tuple(sorted(r_h))


def reference_input_set(r_u, r_h, own_cap, d_max):
    """``sopal.client.build_input_set`` computed the direct way: expand
    every entry item by item along the chain (``pure_sha256``), self item
    first, then ``r_u``, then ``r_h`` in download order, and keep the
    first item of each value unless a later one has a strictly shorter
    path.  Items are ``(value, received_degree, item_degree, friend_id,
    is_self)`` tuples, keyed by value.
    """
    items = [(own_cap, 0, 0, None, True)]
    for friend_id, value in r_u:
        for m in range(d_max + 1):
            items.append((value, 0, m, friend_id, False))
            value = pure_sha256(b"\x01" + value)
    for degree, value in r_h:
        if not 1 <= degree <= d_max:
            raise ValueError(f"received degree {degree} outside [1, {d_max}]")
        for m in range(degree, d_max + 1):
            items.append((value, degree, m, None, False))
            value = pure_sha256(b"\x01" + value)
    by_value = {}
    for item in items:
        kept = by_value.setdefault(item[0], item)
        if item[1] + item[2] < kept[1] + kept[2]:
            by_value[item[0]] = item
    return by_value


# -- coverage simulation -----------------------------------------------------

_SKIP_WARNING = "skipping cell (fraction=%.2f, length=%d, rep=%d): only %d qualifying pairs"


def _attested(ground, members, ersatz_on):
    """Edges listed under their lower endpoint, kept when they touch a
    member (ersatz on) or join two members (ersatz off); undirected."""
    known = {}
    for u, nbrs in ground.items():
        for v in nbrs:
            if ersatz_on:
                keep = u in members or v in members
            else:
                keep = u in members and v in members
            if u < v and keep:
                known.setdefault(u, set()).add(v)
                known.setdefault(v, set()).add(u)
    return known


def reference_run_coverage(config, adjacency):
    """The coverage procedure of a ``SimConfig`` on ``adjacency``, computed
    the direct way: a BFS from every member, a scan of every member pair
    into per-distance lists, and for each sampled pair a search for a
    third node within ``d_max + 1`` attested hops of both.

    Returns the CSV text, the skip warnings as the simulator logs them,
    and the size of every pair list drawn from.
    """
    nodes = sorted(adjacency)
    values, seen, warnings, pool_sizes = {}, {}, [], []
    for rep in range(config.repetitions):
        for fraction in config.member_fractions:
            rng = random.Random(f"{config.seed}/cov/{rep}/{fraction}")
            size = max(2, round(fraction * len(nodes)))
            members = sorted(rng.sample(nodes, min(size, len(nodes))))
            dist = {m: bfs(adjacency, m, max(config.path_lengths)) for m in members}
            buckets = {n: [] for n in config.path_lengths}
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    d = dist[u].get(v)
                    if d in buckets:
                        buckets[d].append((u, v))
            samples = {}
            for n in config.path_lengths:
                pool = buckets[n]
                pool_sizes.append(len(pool))
                if len(pool) < config.min_pairs:
                    warnings.append(_SKIP_WARNING % (fraction, n, rep, len(pool)))
                    continue
                if len(pool) > config.pairs_per_cell:
                    samples[n] = rng.sample(pool, config.pairs_per_cell)
                else:
                    samples[n] = pool
            for ersatz_on in config.ersatz_modes:
                known = _attested(adjacency, set(members), ersatz_on)
                near = {}
                for n, pairs in samples.items():
                    found = 0
                    for u, v in pairs:
                        for x in (u, v):
                            if x not in near:
                                near[x] = set(bfs(known, x, config.d_max + 1))
                        if v in adjacency.get(u, ()) or (near[u] & near[v]) - {u, v}:
                            found += 1
                    key = (fraction, n, ersatz_on)
                    values.setdefault(key, []).append(found / len(pairs))
                    seen[key] = seen.get(key, 0) + len(pairs)

    lines = ["fraction,length,ersatz,mean_coverage,std,pairs_sampled,seed"]
    for fraction in config.member_fractions:
        for n in config.path_lengths:
            for ersatz_on in config.ersatz_modes:
                got = values.get((fraction, n, ersatz_on))
                if got:
                    lines.append(
                        f"{fraction:.2f},{n},{'on' if ersatz_on else 'off'},"
                        f"{statistics.fmean(got):.6f},{statistics.pstdev(got):.6f},"
                        f"{seen[fraction, n, ersatz_on]},{config.seed}"
                    )
    return "\n".join(lines) + "\n", warnings, pool_sizes


# -- coverage model against the protocol ------------------------------------


def model_protocol_equivalence(ground, members, d_max, *, ersatz_on=True, max_pairs=None, seed=0):
    """Compare ``sopal.sim.discoverable`` with full protocol runs.

    Stands up a real store and real clients for every member with
    ``helpers.enrolled_world`` (with ``ersatz_on`` off, over an OSN that
    holds only the members), runs discovery over every (or a sampled
    subset of) member pair, and returns the number of pairs where
    (found, dist) disagrees at either endpoint.  Expected to be zero.
    """
    members = sorted(members)
    _, _, _, clients = enrolled_world(ground, members, d_max=d_max, ersatz=ersatz_on)

    pairs = [(u, v) for i, u in enumerate(members) for v in members[i + 1 :]]
    if max_pairs is not None and len(pairs) > max_pairs:
        pairs = random.Random(f"{seed}/equiv").sample(pairs, max_pairs)

    mismatches = 0
    member_set = set(members)
    for a, b in pairs:
        result_a, result_b = run_discovery_pair(clients[a], clients[b])
        clients[a].end_session(b)
        clients[b].end_session(a)
        expected = discoverable(ground, member_set, ersatz_on, d_max, a, b)
        got_a = (result_a.dist is not None, result_a.dist)
        got_b = (result_b.dist is not None, result_b.dist)
        if got_a != expected or got_b != expected:
            mismatches += 1
    return mismatches
