"""Server-side social graph bookkeeping and the hop-ring walk.

The capability service never sees a whole OSN graph.  It accumulates the
edges that enrolled members attest through their friend lists and
answers hop-layer queries against that partial view; which nodes are
members and which are ersatz stand-ins is kept in the capability store's
records.  It does no locking; the capability store serializes every
access.  :func:`hop_rings` is the one ring walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Mapping

Adjacency = Mapping[str, set[str]]


@dataclass
class FriendLayers:
    """Hop layers around a center node: ``layers[0]`` is the 1-hop set."""

    layers: list[set[str]]

    def layer(self, k: int) -> set[str]:
        """The set of nodes exactly ``k`` hops out (k is 1-based)."""
        return self.layers[k - 1]

    def total(self) -> int:
        return sum(len(layer) for layer in self.layers)


class SocialGraph:
    """The partial social graph the server can attest, as adjacency only.

    Every edge is added by :meth:`record_member` (or restored from a
    snapshot by :meth:`from_parts`), so every edge has at least one
    member endpoint.  Edges are never removed: a member re-registering
    with a different friend list unions the new edges with the ones
    already observed.

    Not synchronized: a caller that shares the graph between threads
    holds its own lock around every read and write.
    """

    def __init__(self):
        self._adj: dict[str, set[str]] = {}

    @classmethod
    def from_parts(cls, nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> "SocialGraph":
        """Rebuild a graph from its nodes and edges; raises ValueError for
        an edge with an endpoint that is not among ``nodes``."""
        graph = cls()
        adj = graph._adj = {uid: set() for uid in nodes}
        for u, v in edges:
            if u not in adj or v not in adj:
                raise ValueError(f"edge {u!r}-{v!r} has an endpoint that is not a node")
            adj[u].add(v)
            adj[v].add(u)
        return graph

    def record_member(self, uid: str, friend_list: Iterable[str]) -> None:
        """Attest ``uid``'s complete friend list.

        Friends not yet in the graph become nodes; a node keeps its
        accumulated edges when it enrolls itself later.
        """
        self._adj.setdefault(uid, set())
        for friend in friend_list:
            if friend == uid:
                continue
            self._adj.setdefault(friend, set())
            self._adj[uid].add(friend)
            self._adj[friend].add(uid)

    def neighbors(self, uid: str) -> set[str]:
        return set(self._adj.get(uid, ()))

    def nodes(self) -> set[str]:
        return set(self._adj)

    def edges(self) -> list[tuple[str, str]]:
        """All known edges as sorted (low, high) pairs."""
        seen = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                seen.add((u, v) if u < v else (v, u))
        return sorted(seen)

    def __len__(self) -> int:
        return len(self._adj)

    def hop_rings(self, uid: str, n: int) -> list[set[str]]:
        """:func:`hop_rings` around ``uid`` out to ``n`` hops."""
        return hop_rings(self._adj, uid, n)

    def layer_friend_sets(self, uid: str, n: int) -> FriendLayers:
        """The disjoint hop layers 1 to ``n`` around ``uid``: its rings
        without the center, padded with empty layers."""
        if n < 1:
            raise ValueError("layer depth must be at least 1")
        layers = self.hop_rings(uid, n)[1:]
        return FriendLayers(layers + [set() for _ in range(n - len(layers))])


def hop_rings(adjacency: Adjacency, start: str, max_depth: int) -> list[set[str]]:
    """``rings[k]`` holds the nodes exactly ``k`` hops from ``start``, out to
    ``max_depth``; the list ends before the first empty ring."""
    rings = [{start}]
    seen = {start}
    while len(rings) <= max_depth:
        ring = set().union(*map(adjacency.get, rings[-1], repeat(())))
        ring -= seen
        if not ring:
            break
        seen |= ring
        rings.append(ring)
    return rings


def hop_layers(adjacency: Adjacency, start: str, max_depth: int) -> dict[str, int]:
    """Distances from ``start`` for every node within ``max_depth`` hops."""
    return {n: k for k, ring in enumerate(hop_rings(adjacency, start, max_depth)) for n in ring}


def load_edge_list(path) -> dict[str, set[str]]:
    """Load a ground-truth graph from an edge-list text file.

    One ``id id`` pair per line; ``#`` starts a comment; blank lines are
    skipped.  The graph is undirected and self loops are ignored.
    """
    adjacency: dict[str, set[str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two ids, got {raw.strip()!r}")
            u, v = parts
            adjacency.setdefault(u, set())
            adjacency.setdefault(v, set())
            if u != v:
                adjacency[u].add(v)
                adjacency[v].add(u)
    return adjacency


def load_membership(path) -> list[str]:
    """Load a membership list: one id per line, ``#`` comments allowed."""
    members: list[str] = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            uid = raw.split("#", 1)[0].strip()
            if uid and uid not in seen:
                seen.add(uid)
                members.append(uid)
    return members
