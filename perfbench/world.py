"""Benchmark worlds: deterministic graphs, member sets, pools and oracles.

The package's own ``preferential_attachment_graph`` iterates a Python set
while it grows, so the same seed builds a different graph under each
``PYTHONHASHSEED``.  The benchmark builds its graphs here instead, with
the same algorithm over lists, so every process builds the same world;
``digest`` lets the server and generator processes prove it.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from sopal.graph import hop_layers
from sopal.sim import known_adjacency

# Graph size (nodes, edges added per node) and enrolled member count.
WORLD_SIZE = (20000, 5, 5000)
SMOKE_WORLD_SIZE = (2000, 3, 500)
COVERAGE_GRAPH = (2000, 3)
SMOKE_COVERAGE_GRAPH = (400, 3)
# The graph and its members are fixed, like a dataset: which nodes enroll
# changes every member's neighbourhood, and with it the cost of every op
# by more than the benchmark's bounds.  The workload seed draws the users
# and ops measured in that world.
WORLD_SEED = 0


def pa_graph(n: int, m: int, seed) -> dict[str, set[str]]:
    """Preferential attachment, as ``sopal.sim.preferential_attachment_graph``,
    but independent of the interpreter's hash seed."""
    if n < m + 1:
        raise ValueError("need more nodes than attachments per step")
    rng = random.Random(f"{seed}/pa")
    adj: list[list[int]] = [[] for _ in range(n)]
    repeated: list[int] = []
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            adj[i].append(j)
            adj[j].append(i)
            repeated += [i, j]
    for u in range(m + 1, n):
        targets: list[int] = []
        while len(targets) < m:
            t = rng.choice(repeated)
            if t not in targets:
                targets.append(t)
        for v in targets:
            adj[u].append(v)
            adj[v].append(u)
            repeated += [u, v]
    return {str(u): {str(v) for v in nbrs} for u, nbrs in enumerate(adj)}


def seeded_capability(rng: random.Random) -> bytes:
    return rng.randbytes(32)


@dataclass
class World:
    """Ground graph plus the members enrolled before the first op."""

    ground: dict[str, set[str]]
    members: list[str]

    @cached_property
    def digest(self) -> str:
        """Short hash of the edge list and member list."""
        h = hashlib.sha256()
        for u in sorted(self.ground, key=int):
            for v in sorted(self.ground[u], key=int):
                if int(u) < int(v):
                    h.update(f"{u} {v}\n".encode())
        h.update(b"members\n")
        for uid in self.members:
            h.update(f"{uid}\n".encode())
        return h.hexdigest()[:16]

    @cached_property
    def known(self) -> dict[str, set[str]]:
        """The edges the server attests once every member has enrolled."""
        return known_adjacency(self.ground, set(self.members), True)

    def enroll(self, store) -> None:
        """Upload a seeded capability for every member, as enrollment would."""
        rng = random.Random(f"{WORLD_SEED}/caps")
        for uid in self.members:
            store.upload_capability(uid, seeded_capability(rng))

    def non_members(self) -> list[str]:
        enrolled = set(self.members)
        return [u for u in sorted(self.ground, key=int) if u not in enrolled]

    def input_set_size(self, uid: str, d_max: int) -> int:
        """Size of ``uid``'s input set at ``d_max``, from the attested graph."""
        layers = Counter(hop_layers(self.known, uid, d_max + 1).values())
        # Layer 1 arrives with ids; layer i > 1 arrives at degree i - 1.
        by_degree = {i - 1: layers[i] for i in range(2, d_max + 2)}
        return input_set_size(layers[1], by_degree, d_max)

    def cost_ranked_pool(self, size: int, d_max: int, seed: int, tag: str) -> list[str]:
        """One member from the middle half of each of ``size`` strata of
        the members ranked by input-set size.

        Session and download costs grow with the input set, so a pool drawn
        this way keeps the same cost mix from seed to seed.
        """
        rng = random.Random(f"{seed}/{tag}")
        ranked = sorted(self.members, key=lambda u: (self.input_set_size(u, d_max), int(u)))
        pool = []
        for i in range(size):
            lo, hi = len(ranked) * i // size, len(ranked) * (i + 1) // size
            quarter = (hi - lo) // 4
            pool.append(ranked[rng.randrange(lo + quarter, hi - quarter)])
        return pool


def make_world(smoke: bool) -> World:
    nodes, attach, members = SMOKE_WORLD_SIZE if smoke else WORLD_SIZE
    ground = pa_graph(nodes, attach, WORLD_SEED)
    rng = random.Random(f"{WORLD_SEED}/members")
    chosen = rng.sample(sorted(ground, key=int), members)
    return World(ground, sorted(chosen, key=int))


def coverage_graph(smoke: bool) -> dict[str, set[str]]:
    nodes, attach = SMOKE_COVERAGE_GRAPH if smoke else COVERAGE_GRAPH
    return pa_graph(nodes, attach, WORLD_SEED)


# -- oracles -------------------------------------------------------------------


class Oracle:
    """Expected answers for one world, built once and shared by every check."""

    def __init__(self, world: World, d_max: int):
        self.world = world
        self.ground = world.ground
        self.depth = d_max + 1
        self._layers: dict[str, dict[str, int]] = {}

    def _layers_of(self, uid: str) -> dict[str, int]:
        got = self._layers.get(uid)
        if got is None:
            got = self._layers[uid] = hop_layers(self.world.known, uid, self.depth)
        return got

    def distance(self, a: str, b: str) -> int | None:
        """The ``sopal.sim.discoverable`` model for members ``a`` and ``b``,
        with the attested adjacency built once for the world."""
        if b in self.ground[a]:
            return 1
        la, lb = self._layers_of(a), self._layers_of(b)
        small, large = (la, lb) if len(la) <= len(lb) else (lb, la)
        sums = [d + large[n] for n, d in small.items() if n in large and n not in (a, b)]
        return min(sums, default=None)

    def friend_ids(self, uid: str) -> list[str]:
        """Ids a member's layer-1 download must carry: every OSN friend,
        since ersatz records stand in for friends who never enrolled."""
        return sorted(self.ground[uid])


def input_set_size(r_u: int, by_degree: dict[int, int], d_max: int) -> int:
    """The size ``sopal.client.build_input_set`` documents for a download
    with ``r_u`` id-bearing entries and ``by_degree[i]`` entries at degree i."""
    return 1 + r_u * (d_max + 1) + sum(n * (d_max - i + 1) for i, n in by_degree.items())


def guaranteed_coverage(length: int, ersatz: bool) -> float | None:
    """Coverage the design guarantees for a cell: two members at distance
    two always find each other when ersatz records are on."""
    return 1.0 if (length, ersatz) == (2, True) else None
