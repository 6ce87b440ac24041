"""Coverage simulation: how discovery degrades with partial enrollment.

The simulator samples a member set of a given fraction, samples member
pairs whose true shortest distance equals each target length, and
measures the fraction of pairs the system would discover, with and
without ersatz records.  ``discoverable`` is a closed-form model of a
full protocol run.

:func:`run_coverage` applies the same model to many pairs at once on
per-node reach bitmasks: one Python int per node and hop count whose bit
``j`` says that the ``j``-th node in string order is within that many
hops.  The attested graph never leaves that index space: an edge is
attestable, both ways, when it is listed under its lower endpoint, and a
member set keeps the attestable edges that touch a member (ersatz on) or
join two (ersatz off); the first attested level is then one AND per
node on the closed attestable neighbourhoods.  A sampled pair is found
when its ends' masks at ``d_max + 1`` attested hops share a third node,
and the pairs at one ground distance form a lazy sequence that
``random.sample`` draws from exactly as from the full list: the sampling
is exact.

The original evaluation graphs are not redistributable, so the module
ships synthetic generators (forest-fire style, preferential attachment,
and plain G(n, p)) plus the edge-list loader for substituting any
dataset.  Absolute coverage numbers are therefore dataset-specific;
trends and the exact length-2 guarantee are the checkable surface.
"""

from __future__ import annotations

import bisect
import csv
import io
import itertools
import logging
import random
import statistics
from collections.abc import Sequence
from dataclasses import dataclass, field

from sopal.graph import Adjacency, hop_layers, load_edge_list

logger = logging.getLogger(__name__)
_SKIP_WARNING = "skipping cell (fraction=%.2f, length=%d, rep=%d): only %d qualifying pairs"


@dataclass
class SimConfig:
    """Parameters for one coverage run."""

    member_fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8)
    path_lengths: Sequence[int] = (2, 3, 4)
    pairs_per_cell: int = 200
    repetitions: int = 10
    d_max: int = 1
    ersatz_modes: Sequence[bool] = (True, False)
    seed: int = 0
    min_pairs: int = 10

    def __post_init__(self):
        for name in ("member_fractions", "path_lengths", "ersatz_modes"):
            if not (values := getattr(self, name)):
                raise ValueError(f"{name} must not be empty")
            if len(set(values)) < len(values):
                raise ValueError(f"{name} repeats a value: {list(values)}")
        if any(not 0.0 < f <= 1.0 for f in self.member_fractions):
            raise ValueError("member fractions must lie in (0, 1]")
        limit = 2 * self.d_max + 2
        if any(not 1 <= n <= limit for n in self.path_lengths):
            raise ValueError(f"path lengths must lie in [1, {limit}] for d_max={self.d_max}")
        if self.repetitions < 1:
            raise ValueError("need at least one repetition")
        if self.pairs_per_cell < 1 or self.min_pairs < 1:
            raise ValueError("pairs per cell and minimum pairs must be at least 1")


@dataclass(frozen=True)
class CoverageCell:
    fraction: float
    length: int
    ersatz: bool
    mean_coverage: float
    std: float
    pairs_sampled: int
    seed: int


@dataclass
class CoverageReport:
    cells: list[CoverageCell] = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["fraction", "length", "ersatz", "mean_coverage", "std", "pairs_sampled", "seed"]
        )
        for c in self.cells:
            writer.writerow(
                [
                    f"{c.fraction:.2f}",
                    c.length,
                    "on" if c.ersatz else "off",
                    f"{c.mean_coverage:.6f}",
                    f"{c.std:.6f}",
                    c.pairs_sampled,
                    c.seed,
                ]
            )
        return buf.getvalue()


def known_adjacency(ground: Adjacency, members: set[str], ersatz_on: bool) -> dict[str, set[str]]:
    """The edge set the server can attest for a member set.

    With ersatz records every edge touching a member counts; without
    them only the member-induced subgraph carries capabilities.
    """
    known: dict[str, set[str]] = {}
    for u, nbrs in ground.items():
        for v in nbrs:
            if u >= v:
                continue
            if ersatz_on:
                keep = u in members or v in members
            else:
                keep = u in members and v in members
            if keep:
                known.setdefault(u, set()).add(v)
                known.setdefault(v, set()).add(u)
    return known


def discoverable(
    ground: Adjacency,
    members: set[str],
    ersatz_on: bool,
    d_max: int,
    a: str,
    b: str,
) -> tuple[bool, int | None]:
    """Closed-form model of one discovery run between members ``a`` and ``b``.

    Found when they are adjacent in the ground graph, or when some other
    capability-holding node sits within ``d_max + 1`` known hops of both;
    the distance is the minimum layer sum over such nodes.
    """
    if a == b:
        raise ValueError("discovery needs two distinct users")
    if a not in members or b not in members:
        raise ValueError("both endpoints must be members")
    if b in ground.get(a, ()):
        return True, 1
    known = known_adjacency(ground, members, ersatz_on)
    layers_a = hop_layers(known, a, d_max + 1)
    layers_b = hop_layers(known, b, d_max + 1)
    common = layers_a.keys() & layers_b.keys() - {a, b}
    if not common:
        return False, None
    return True, min(layers_a[node] + layers_b[node] for node in common)


class _PairPool(Sequence):
    """The member pairs at one ground distance, as a lazy sequence.

    Holds one row ``(i, mask)`` per member ``i`` with at least one pair,
    where ``mask`` carries the bits of the members ``j > i`` at that
    distance from ``i``.  Items are the pairs ``(i, j)`` in row order and,
    within a row, in index order: the order of a list built by scanning
    every member pair, so ``random.Random.sample`` draws the same pairs
    from it, with a few big-int operations per item and no list of pairs.
    Iteration is the ``Sequence`` mixin's, one index lookup per item.
    """

    def __init__(self, rows: list[tuple[int, int]]):
        self._rows = rows
        self._ends = list(itertools.accumulate(mask.bit_count() for _, mask in rows))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, k: int) -> tuple[int, int]:
        if not 0 <= k < len(self):
            raise IndexError("pair index out of range")
        row = bisect.bisect_right(self._ends, k)
        i, mask = self._rows[row]
        # the highest bit with ``above`` set bits at or above it: bisect on
        # the count, one shift per step
        above = self._ends[row] - k
        lo, hi = 0, mask.bit_length()
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if (mask >> mid).bit_count() >= above:
                lo = mid
            else:
                hi = mid
        return i, lo


def _reach_masks(nbrs: Sequence[Sequence[int]], depth: int) -> list[list[int]]:
    """``masks[k][i]`` is the bitmask of the nodes within ``k`` hops of node
    ``i``, for ``k`` from 0 to ``depth``, where a hop from node ``i`` goes
    to each node in ``nbrs[i]``.

    Level ``k`` ORs each node's level ``k - 1`` mask with those of its
    neighbours: ``depth`` big-int ORs per listed neighbour in all.
    """
    level = [1 << i for i in range(len(nbrs))]
    masks = [level]
    for _ in range(depth):
        prev = level
        level = []
        for reach, js in zip(prev, nbrs):
            for j in js:
                reach |= prev[j]
            level.append(reach)
        masks.append(level)
    return masks


def run_coverage(config: SimConfig, adjacency: Adjacency) -> CoverageReport:
    """Run the full sampling procedure of :class:`SimConfig` on ``adjacency``.

    Deterministic for a fixed seed: repetitions draw their member sets
    and pair samples from child generators keyed off the master seed.
    Cells with fewer than ``min_pairs`` qualifying pairs are skipped with
    a warning.

    The sampling is exact: each cell draws uniformly, without
    replacement, from every member pair at exactly that ground distance.
    Per-node reach bitmasks (:func:`_reach_masks`) stand in for a BFS per
    member and a scan of all member pairs.  Once per call, the ground
    masks are built to the longest path length, and ``closed`` holds each
    node and its attestable neighbours.  Per fraction and ersatz mode,
    attested level 1 is one AND of ``closed`` per node; each further level
    follows the kept edges, for every node up to level ``d_max`` and at
    level ``d_max + 1`` only for the ends of the sampled pairs, the only
    masks read (at ``d_max`` 0, level 1 is that last level).  Masks cost
    at most N²/8 bytes per level for N nodes; one repetition on
    ``pa:2000:3`` peaks at about 6 MB of Python objects.
    """
    nodes = sorted(adjacency)
    named = adjacency.keys() | {v for nbrs in adjacency.values() for v in nbrs}
    index = {node: i for i, node in enumerate(sorted(named))}
    # Ground walks follow the arcs as listed, so a node that is not a key
    # has no way out; index order is string order, so an arc i -> j with
    # i < j is listed under its lower endpoint and attestable both ways.
    arcs = [[index[v] for v in adjacency.get(node, ())] for node in index]
    attestable: list[list[int]] = [[] for _ in index]
    for i, js in enumerate(arcs):
        for j in js:
            if i < j:
                attestable[i].append(j)
                attestable[j].append(i)
    ground = _reach_masks(arcs, max(config.path_lengths))
    # rings[n][i]: the nodes exactly n ground hops from node i, all that
    # is read of the ground masks
    rings = {n: [a ^ b for a, b in zip(ground[n], ground[n - 1])] for n in config.path_lengths}
    del ground
    # closed[i]: node i and every node one attestable edge away
    closed = _reach_masks(attestable, 1)[1]
    per_cell: dict[tuple[float, int, bool], list[float]] = {}
    pairs_seen: dict[tuple[float, int, bool], int] = {}

    for rep in range(config.repetitions):
        for fraction in config.member_fractions:
            rng = random.Random(f"{config.seed}/cov/{rep}/{fraction}")
            size = max(2, round(fraction * len(nodes)))
            member_idx = sorted(index[m] for m in rng.sample(nodes, min(size, len(nodes))))
            member_bits = sum(1 << i for i in member_idx)
            flags = bytearray(len(index))
            for i in member_idx:
                flags[i] = 1
            samples: dict[int, Sequence[tuple[int, int]]] = {}
            later = [member_bits >> (i + 1) << (i + 1) for i in member_idx]
            for n in config.path_lengths:
                ring = rings[n]
                rows = [(i, mask) for i, bits in zip(member_idx, later) if (mask := ring[i] & bits)]
                pool = _PairPool(rows)
                if len(pool) < config.min_pairs:
                    logger.warning(_SKIP_WARNING, fraction, n, rep, len(pool))
                    continue
                k = config.pairs_per_cell
                samples[n] = rng.sample(pool, k) if len(pool) > k else pool
            # the members whose last-level masks the pairs below read
            ends = {x for n, pairs in samples.items() if n > 1 for pair in pairs for x in pair}
            for ersatz_on in config.ersatz_modes:
                # Ersatz records let the server attest an edge with a member
                # at either end; without them both must be members.  Level 1
                # applies that rule to closed, one expression per node.
                level = [
                    reach if flag and ersatz_on
                    else reach & member_bits | 1 << i if flag or ersatz_on
                    else 1 << i
                    for i, (reach, flag) in enumerate(zip(closed, flags))
                ]

                def hop(i: int, prev: list[int]) -> int:
                    reach = prev[i]
                    for j in attestable[i]:
                        if (flags[i] or flags[j]) if ersatz_on else (flags[i] and flags[j]):
                            reach |= prev[j]
                    return reach

                for _ in range(config.d_max - 1):
                    level = [hop(i, level) for i in range(len(level))]
                within = {u: hop(u, level) for u in ends} if config.d_max else level
                for n, pairs in samples.items():
                    # A pair at ground distance 1 is adjacent and always
                    # found; any other pair needs a third node within
                    # d_max + 1 known hops of both, as in discoverable.
                    found = sum(
                        1 for u, v in pairs if n == 1 or within[u] & within[v] & ~(1 << u | 1 << v)
                    )
                    key = (fraction, n, ersatz_on)
                    per_cell.setdefault(key, []).append(found / len(pairs))
                    pairs_seen[key] = pairs_seen.get(key, 0) + len(pairs)

    report = CoverageReport()
    for fraction in config.member_fractions:
        for n in config.path_lengths:
            for ersatz_on in config.ersatz_modes:
                key = (fraction, n, ersatz_on)
                values = per_cell.get(key)
                if not values:
                    continue
                report.cells.append(
                    CoverageCell(
                        fraction=fraction,
                        length=n,
                        ersatz=ersatz_on,
                        mean_coverage=statistics.fmean(values),
                        std=statistics.pstdev(values),
                        pairs_sampled=pairs_seen[key],
                        seed=config.seed,
                    )
                )
    return report


# -- synthetic graphs --------------------------------------------------------


def gnp_graph(n: int, p: float, seed) -> dict[str, set[str]]:
    """Erdos-Renyi G(n, p) with string node ids."""
    rng = random.Random(f"{seed}/gnp")
    nodes = [str(i) for i in range(n)]
    adj: dict[str, set[str]] = {u: set() for u in nodes}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[nodes[i]].add(nodes[j])
                adj[nodes[j]].add(nodes[i])
    return adj


def preferential_attachment_graph(n: int, m: int, seed) -> dict[str, set[str]]:
    """Growing graph where each new node attaches to ``m`` degree-weighted targets."""
    if n < m + 1:
        raise ValueError("need more nodes than attachments per step")
    rng = random.Random(f"{seed}/pa")
    nodes = [str(i) for i in range(n)]
    adj: dict[str, set[str]] = {u: set() for u in nodes}
    repeated: list[str] = []
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            adj[nodes[i]].add(nodes[j])
            adj[nodes[j]].add(nodes[i])
            repeated += [nodes[i], nodes[j]]
    for i in range(m + 1, n):
        u = nodes[i]
        # draw order, not a set, so the graph does not depend on the hash seed
        targets: list[str] = []
        while len(targets) < m:
            v = rng.choice(repeated)
            if v not in targets:
                targets.append(v)
        for v in targets:
            adj[u].add(v)
            adj[v].add(u)
            repeated += [u, v]
    return adj


def forest_fire_graph(n: int, forward_prob: float = 0.35, seed=0) -> dict[str, set[str]]:
    """Forest-fire style growth: each new node links to a burned neighborhood."""
    rng = random.Random(f"{seed}/ff")
    nodes = [str(i) for i in range(n)]
    adj: dict[str, set[str]] = {u: set() for u in nodes}
    for i in range(1, n):
        u = nodes[i]
        ambassador = nodes[rng.randrange(i)]
        burned = {ambassador}
        queue = [ambassador]
        while queue:
            w = queue.pop()
            spread = 0
            while rng.random() < forward_prob:
                spread += 1
            # sorted, so the shuffle does not depend on the hash seed
            fresh = [x for x in sorted(adj[w]) if x not in burned and x != u]
            rng.shuffle(fresh)
            for x in fresh[:spread]:
                burned.add(x)
                queue.append(x)
        for w in burned:
            adj[u].add(w)
            adj[w].add(u)
    return adj


def load_graph_source(source: str, seed=0) -> dict[str, set[str]]:
    """Resolve a graph source: ``pa:N:M``, ``ff:N:P``, ``gnp:N:P``, or a file path."""
    parts = source.split(":")
    if parts[0] == "pa" and len(parts) == 3:
        return preferential_attachment_graph(int(parts[1]), int(parts[2]), seed)
    if parts[0] == "ff" and len(parts) == 3:
        return forest_fire_graph(int(parts[1]), float(parts[2]), seed)
    if parts[0] == "gnp" and len(parts) == 3:
        return gnp_graph(int(parts[1]), float(parts[2]), seed)
    return load_edge_list(source)
