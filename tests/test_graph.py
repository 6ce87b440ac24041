"""Graph bookkeeping, hop layering, and the BFS oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sopal.crypto import new_capability
from sopal.graph import (
    SocialGraph,
    hop_layers,
    hop_rings,
    load_edge_list,
    load_membership,
)
from sopal.server import MockOsnConnector
from sopal.sim import gnp_graph
from sopal.store import ERSATZ, MEMBER, CapabilityStore, NotEnrolledError

from helpers import (
    adjacency_from_edges,
    graph_neighbors,
    graph_nodes,
    graph_rows,
    path_adjacency,
)
from oracles import bfs


@st.composite
def odd_gnp_graphs(draw):
    """Small G(n, p) graphs with some edges listed at one end only and some
    neighbours with no entry of their own, named to sort among the ids."""
    n = draw(st.integers(4, 30))
    rng = random.Random(draw(st.integers(0, 2**32)))
    adjacency = gnp_graph(n, draw(st.floats(0.05, 0.4)), seed=rng.random())
    nodes = sorted(adjacency)
    one_way = draw(st.floats(0.0, 0.5))
    for u in nodes:
        for v in sorted(adjacency[u]):
            if rng.random() < one_way:
                adjacency[u].discard(v)
    for _ in range(draw(st.integers(0, 12))):
        adjacency[rng.choice(nodes)].add(f"{rng.randrange(4)}x")
    return adjacency


def enrolled_store(ground, members):
    """A store whose graph holds the edges ``members`` attest; node kinds
    live in its records."""
    store = CapabilityStore(SocialGraph(), MockOsnConnector(ground))
    for uid in members:
        store.upload_capability(uid, new_capability())
    return store


class TestRecordMember:
    def test_first_member_creates_ersatz_friends(self):
        # the friends become nodes; their ersatz records are the store's
        g = SocialGraph()
        g.record_member("A", ["B", "C"])
        assert graph_nodes(g) == {"A", "B", "C"}
        assert g.edges() == [("A", "B"), ("A", "C")]

    def test_ersatz_upgrade_keeps_edges(self):
        g = SocialGraph()
        g.record_member("A", ["B", "C"])
        g.record_member("B", ["A", "D"])
        assert g.edges() == [("A", "B"), ("A", "C"), ("B", "D")]

    def test_reregistration_unions_edges(self):
        g = SocialGraph()
        g.record_member("A", ["B", "C"])
        g.record_member("B", ["A"])
        # A comes back with a different list; the edge B attested stays
        g.record_member("A", ["D"])
        assert graph_neighbors(g, "A") == {"B", "C", "D"}

    def test_self_loop_ignored(self):
        g = SocialGraph()
        g.record_member("A", ["A", "B"])
        assert graph_neighbors(g, "A") == {"B"}

    def test_every_edge_has_a_member_endpoint(self):
        store = enrolled_store(adjacency_from_edges([("A", "B"), ("A", "C"), ("D", "B")]), "AD")
        for u, v in store.graph.edges():
            assert MEMBER in (store.record_of(u).kind, store.record_of(v).kind)

    def test_every_ersatz_node_has_a_member_neighbor(self):
        store = enrolled_store(adjacency_from_edges([("A", "B"), ("C", "B"), ("C", "D")]), "AC")
        for uid in graph_nodes(store.graph):
            if store.record_of(uid).kind == ERSATZ:
                friends = graph_neighbors(store.graph, uid)
                assert any(store.record_of(n).kind == MEMBER for n in friends)


class TestLayering:
    def build_full(self, adjacency):
        g = SocialGraph()
        for uid in sorted(adjacency):
            g.record_member(uid, sorted(adjacency[uid]))
        return g

    def test_path_graph_layers(self):
        g = self.build_full(path_adjacency("A", "B", "C", "D"))
        layers = g.layer_friend_sets("A", 3)
        assert layers.layer(1) == {"B"}
        assert layers.layer(2) == {"C"}
        assert layers.layer(3) == {"D"}

    def test_triangle_layers(self):
        g = self.build_full(adjacency_from_edges([("A", "B"), ("B", "C"), ("A", "C")]))
        layers = g.layer_friend_sets("A", 2)
        assert layers.layer(1) == {"B", "C"}
        assert layers.layer(2) == set()

    def test_depth_beyond_diameter_gives_empty_layers(self):
        g = self.build_full(path_adjacency("A", "B"))
        layers = g.layer_friend_sets("A", 5)
        assert layers.layer(1) == {"B"}
        assert all(not layers.layer(k) for k in range(2, 6))

    def test_non_member_center_rejected(self):
        # membership lives in the store's records, which guard distribution
        store = enrolled_store(path_adjacency("A", "B"), "A")
        with pytest.raises(NotEnrolledError):
            store.distribute("B", 1)
        with pytest.raises(ValueError):
            store.graph.layer_friend_sets("A", 0)

    def test_layers_match_bfs_oracle_on_random_graphs(self):
        for seed in range(10):
            adjacency = gnp_graph(40, 0.08, seed=seed)
            g = self.build_full(adjacency)
            rng = random.Random(seed)
            for center in rng.sample(sorted(adjacency), 5):
                layers = g.layer_friend_sets(center, 6)
                dist = bfs(adjacency, center)
                for k in range(1, 7):
                    expected = {v for v in adjacency if dist.get(v) == k}
                    assert layers.layer(k) == expected, (seed, center, k)

    def test_layers_disjoint_and_exclude_center(self):
        adjacency = gnp_graph(30, 0.12, seed=3)
        g = self.build_full(adjacency)
        layers = g.layer_friend_sets("0", 4)
        seen = set()
        for layer in layers.layers:
            assert "0" not in layer
            assert not (seen & layer)
            seen |= layer

    def test_monotone_under_new_members(self):
        adjacency = gnp_graph(30, 0.1, seed=9)
        g = SocialGraph()
        uids = sorted(adjacency)
        g.record_member(uids[0], sorted(adjacency[uids[0]]))
        prev_nodes: set[str] = set()
        prev_reach: dict[int, set[str]] = {}
        for uid in uids[1:12]:
            g.record_member(uid, sorted(adjacency[uid]))
            nodes = graph_nodes(g)
            assert prev_nodes <= nodes
            prev_nodes = nodes
            layers = g.layer_friend_sets(uids[0], 4)
            reach: dict[int, set[str]] = {}
            running: set[str] = set()
            for k in range(1, 5):
                running |= layers.layer(k)
                reach[k] = set(running)
            for k, got in reach.items():
                assert prev_reach.get(k, set()) <= got
            prev_reach = reach


class TestShortestDistance:
    def test_same_node_is_zero(self):
        assert bfs({}, "A").get("A") == 0

    def test_adjacent_is_one(self):
        adj = path_adjacency("A", "B")
        assert bfs(adj, "A").get("B") == 1

    def test_five_cycle(self):
        adj = adjacency_from_edges(
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")]
        )
        assert bfs(adj, "a").get("c") == 2
        assert bfs(adj, "a").get("d") == 2

    def test_unreachable_is_none(self):
        adj = {"A": {"B"}, "B": {"A"}, "C": set()}
        assert bfs(adj, "A").get("C") is None

    def test_hop_layers_bounded(self):
        adj = path_adjacency("a", "b", "c", "d", "e")
        layers = hop_layers(adj, "a", 2)
        assert layers == {"a": 0, "b": 1, "c": 2}


@settings(max_examples=200, deadline=None)
@given(adjacency=odd_gnp_graphs(), data=st.data())
def test_ring_walk_matches_bfs_oracle(adjacency, data):
    """One-way arcs and neighbours with no entry of their own included."""
    nodes = sorted(set(adjacency).union(*adjacency.values()))
    start = data.draw(st.sampled_from(nodes))
    for depth in range(5):
        want = bfs(adjacency, start, depth)
        rings = hop_rings(adjacency, start, depth)
        assert len(rings) == 1 + max(want.values())
        assert rings == [{v for v, d in want.items() if d == k} for k in range(len(rings))]
        assert hop_layers(adjacency, start, depth) == want


_IDS = st.sampled_from("ABCDEFG")


@settings(max_examples=200, deadline=None)
@given(
    calls=st.lists(st.tuples(_IDS, st.lists(_IDS, max_size=8)), max_size=12),
    data=st.data(),
)
def test_rows_match_a_set_of_edges_model(calls, data):
    """Repeated ids, self loops, duplicate friends and re-registrations
    with a changed list, then a ``from_parts`` round trip from the edges
    given in a drawn order, each also reversed: every row is free of
    repeats and symmetric, and the edges and rings are the model's."""
    g = SocialGraph()
    nodes, model = set(), set()
    for uid, friends in calls:
        g.record_member(uid, friends)
        nodes |= {uid, *friends}
        model |= {(min(uid, f), max(uid, f)) for f in friends if f != uid}
    adjacency = adjacency_from_edges(model)
    edges = g.edges() + [(v, u) for u, v in g.edges()]
    restored = SocialGraph.from_parts(sorted(nodes), data.draw(st.permutations(edges)))
    for graph in (g, restored):
        rows = graph_rows(graph)
        assert set(rows) == nodes
        for uid, row in rows.items():
            assert len(row) == len(set(row))
            assert all(uid in rows[v] for v in row)
        assert graph.edges() == sorted(model)
        for start in nodes:
            for depth in range(4):
                want = bfs(adjacency, start, depth)
                rings = graph.hop_rings(start, depth)
                assert rings == [{v for v, d in want.items() if d == k} for k in range(len(rings))]
                assert len(rings) == 1 + max(want.values())


class TestFileFormats:
    def test_edge_list_roundtrip(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text(
            "# demo graph\n"
            "A B\n"
            "B C  # inline comment\n"
            "\n"
            "C A\n"
        )
        adj = load_edge_list(path)
        assert adj == {"A": {"B", "C"}, "B": {"A", "C"}, "C": {"A", "B"}}

    def test_edge_list_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("A B C\n")
        with pytest.raises(ValueError, match="expected two ids"):
            load_edge_list(path)

    def test_membership_file(self, tmp_path):
        path = tmp_path / "members.txt"
        path.write_text("# members\nA\nB\nA\n\nC\n")
        assert load_membership(path) == ["A", "B", "C"]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_edge_list(tmp_path / "nope.txt")
