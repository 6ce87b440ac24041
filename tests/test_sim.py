"""Coverage model, sampling procedure, generators, and equivalence."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sopal import sim
from sopal.sim import (
    SimConfig,
    _PairPool,
    discoverable,
    forest_fire_graph,
    gnp_graph,
    known_adjacency,
    load_graph_source,
    preferential_attachment_graph,
    run_coverage,
)

from helpers import adjacency_from_edges, path_adjacency, random_member_subset
from oracles import bfs, model_protocol_equivalence, reference_run_coverage


class TestDiscoverable:
    def test_hidden_common_friend_needs_ersatz(self):
        ground = path_adjacency("A", "C", "B")
        members = {"A", "B"}
        assert discoverable(ground, members, True, 1, "A", "B") == (True, 2)
        assert discoverable(ground, members, False, 1, "A", "B") == (False, None)

    def test_adjacent_members(self):
        ground = adjacency_from_edges([("A", "B")])
        assert discoverable(ground, {"A", "B"}, True, 1, "A", "B") == (True, 1)
        assert discoverable(ground, {"A", "B"}, False, 1, "A", "B") == (True, 1)

    def test_distance_four_within_default_range(self):
        ground = path_adjacency("A", "p", "q", "r", "B")
        members = set(ground)
        assert discoverable(ground, members, True, 1, "A", "B") == (True, 4)
        assert discoverable(ground, members, False, 1, "A", "B") == (True, 4)

    def test_distance_five_needs_larger_degree(self):
        ground = path_adjacency("A", "p", "q", "r", "s", "B")
        members = set(ground)
        assert discoverable(ground, members, True, 1, "A", "B") == (False, None)
        assert discoverable(ground, members, True, 2, "A", "B") == (True, 5)

    def test_validates_inputs(self):
        ground = path_adjacency("A", "B")
        with pytest.raises(ValueError):
            discoverable(ground, {"A", "B"}, True, 1, "A", "A")
        with pytest.raises(ValueError):
            discoverable(ground, {"A"}, True, 1, "A", "B")

    def test_never_reports_below_ground_truth(self):
        for seed in range(8):
            ground = gnp_graph(30, 0.1, seed=seed)
            members = random_member_subset(ground, 0.5, seed)
            uids = sorted(members)
            rng = random.Random(seed)
            for _ in range(30):
                a, b = rng.sample(uids, 2)
                found, dist = discoverable(ground, members, True, 1, a, b)
                if found:
                    true = bfs(ground, a).get(b)
                    assert dist >= true


class TestKnownAdjacency:
    def test_edge_selection_per_mode(self):
        ground = adjacency_from_edges([("m1", "m2"), ("m1", "x"), ("x", "y")])
        members = {"m1", "m2"}
        with_ersatz = known_adjacency(ground, members, True)
        assert with_ersatz == {"m1": {"m2", "x"}, "m2": {"m1"}, "x": {"m1"}}
        without = known_adjacency(ground, members, False)
        assert without == {"m1": {"m2"}, "m2": {"m1"}}


class TestRunCoverage:
    def small_config(self, **overrides):
        defaults = dict(
            member_fractions=(0.4, 0.8),
            path_lengths=(2, 3),
            pairs_per_cell=60,
            repetitions=2,
            seed=11,
            min_pairs=5,
        )
        defaults.update(overrides)
        return SimConfig(**defaults)

    def test_deterministic_csv(self):
        adjacency = gnp_graph(90, 0.04, seed=5)
        first = run_coverage(self.small_config(), adjacency).to_csv()
        second = run_coverage(self.small_config(), adjacency).to_csv()
        assert first == second
        assert first.splitlines()[0] == (
            "fraction,length,ersatz,mean_coverage,std,pairs_sampled,seed"
        )

    def test_generated_sources_ignore_the_hash_seed(self):
        code = (
            "from sopal.sim import SimConfig, load_graph_source, run_coverage\n"
            "for source in ('pa:300:3', 'ff:300:0.35'):\n"
            "    config = SimConfig(member_fractions=(0.5,),"
            " pairs_per_cell=50, repetitions=1, seed=3)\n"
            "    print(run_coverage(config, load_graph_source(source, 3)).to_csv())\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
            ).stdout
            for seed in ("1", "2")
        ]
        assert outputs[0].count("\n") > 4
        assert outputs[0] == outputs[1]

    def test_length_two_with_ersatz_is_total(self):
        for seed in (1, 2):
            adjacency = gnp_graph(100, 0.035, seed=seed)
            report = run_coverage(self.small_config(path_lengths=(2,)), adjacency)
            for cell in report.cells:
                if cell.ersatz:
                    assert cell.mean_coverage == 1.0
                    assert cell.std == 0.0

    def test_full_membership_covers_everything_in_range(self):
        adjacency = gnp_graph(60, 0.06, seed=9)
        config = self.small_config(
            member_fractions=(1.0,), path_lengths=(2, 3, 4), pairs_per_cell=40
        )
        report = run_coverage(config, adjacency)
        assert report.cells, "expected populated cells"
        for cell in report.cells:
            assert cell.mean_coverage == 1.0

    def test_ersatz_dominates_cell_by_cell(self):
        adjacency = preferential_attachment_graph(120, 2, seed=3)
        report = run_coverage(self.small_config(), adjacency)
        for cell in report.cells:
            if not cell.ersatz:
                on = report.cell(cell.fraction, cell.length, True)
                assert on is not None
                assert on.mean_coverage >= cell.mean_coverage

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ersatz_modes_share_no_state(self, seed):
        """A mode's rows do not depend on the other mode running in the
        same call, though both read the sampled pairs' ends of one
        fraction.  The seeds run at d_max 0, 1 and 2, so every level shape
        of the attested step is covered."""
        adjacency = preferential_attachment_graph(400, 3, seed=seed)
        d_max = seed
        config = dict(
            member_fractions=(0.2, 0.5, 0.8),
            path_lengths=tuple(range(1, 2 * d_max + 3)),
            repetitions=2,
            d_max=d_max,
            seed=seed,
        )
        both = run_coverage(SimConfig(ersatz_modes=(True, False), **config), adjacency).cells
        assert len(both) > 4
        for mode in (True, False):
            alone = run_coverage(SimConfig(ersatz_modes=(mode,), **config), adjacency).cells
            assert alone == [c for c in both if c.ersatz == mode]

    def test_sparse_cells_skipped_with_warning(self, caplog):
        adjacency = path_adjacency("a", "b", "c")
        config = SimConfig(
            member_fractions=(0.9,),
            path_lengths=(2,),
            repetitions=1,
            min_pairs=10,
            seed=0,
        )
        with caplog.at_level("WARNING", logger="sopal.sim"):
            report = run_coverage(config, adjacency)
        assert report.cells == []
        assert any("skipping cell" in rec.message for rec in caplog.records)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(member_fractions=(0.0,))
        with pytest.raises(ValueError):
            SimConfig(path_lengths=(9,), d_max=1)
        with pytest.raises(ValueError):
            SimConfig(repetitions=0)

    @pytest.mark.parametrize("field", ["pairs_per_cell", "min_pairs"])
    def test_pair_counts_below_one_refused(self, field):
        # zero pairs per cell, or a zero minimum with an empty pool, would
        # divide by a sample of no pairs
        with pytest.raises(ValueError, match="at least 1"):
            SimConfig(**{field: 0})


def _with_unlisted_neighbours(adjacency, seed):
    """``adjacency`` plus ten ids that some nodes name as neighbours but
    that have no entry of their own."""
    rng = random.Random(f"{seed}/unlisted")
    out = {u: set(nbrs) for u, nbrs in adjacency.items()}
    for u in rng.sample(sorted(out), 60):
        out[u].add(f"x{rng.randrange(10)}")
    return out


def _one_way(adjacency, seed):
    """``adjacency`` with about a third of the edges listed at one end only."""
    rng = random.Random(f"{seed}/oneway")
    out = {u: set(nbrs) for u, nbrs in adjacency.items()}
    for u in sorted(out):
        for v in sorted(out[u]):
            if u < v and rng.random() < 0.33:
                a, b = (u, v) if rng.random() < 0.5 else (v, u)
                out[a].discard(b)
    return out


class TestCoverageMatchesReference:
    """``run_coverage`` gives the CSV and the warnings of the direct
    algorithm in ``oracles.reference_run_coverage``."""

    # random.sample copies a pool of at most this many items to a list
    # when it draws 200, and indexes a larger one
    SAMPLE_LIST_LIMIT = 21 + 4**5

    CASES = {
        "pa": (lambda: preferential_attachment_graph(400, 3, seed=1), {}),
        "pa-dmax2": (lambda: preferential_attachment_graph(250, 2, seed=4), {"d_max": 2}),
        "ff": (lambda: forest_fire_graph(300, 0.35, seed=2), {"d_max": 2}),
        "gnp-on": (lambda: gnp_graph(150, 0.03, seed=3), {"ersatz_modes": (True,)}),
        "gnp-off": (
            lambda: gnp_graph(150, 0.03, seed=3),
            {"d_max": 2, "ersatz_modes": (False,)},
        ),
        "sparse-skips": (
            lambda: gnp_graph(120, 0.02, seed=6),
            {"min_pairs": 40, "pairs_per_cell": 30},
        ),
        "unlisted-neighbours": (
            lambda: _with_unlisted_neighbours(gnp_graph(200, 0.02, seed=7), 7),
            {},
        ),
        "one-way-edges": (lambda: _one_way(gnp_graph(200, 0.03, seed=8), 8), {}),
        # level 1 is the last level: no further hop is followed
        "dmax0": (lambda: gnp_graph(200, 0.03, seed=9), {"d_max": 0}),
        # levels 2 and 3 for every node, then level 4 at the pairs' ends
        "one-way-dmax3": (
            lambda: _one_way(preferential_attachment_graph(250, 2, seed=10), 10),
            {"d_max": 3},
        ),
    }

    def config_for(self, overrides):
        d_max = overrides.get("d_max", 1)
        defaults = dict(
            member_fractions=(0.2, 0.5, 0.8),
            path_lengths=tuple(range(1, 2 * d_max + 3)),
            repetitions=2,
            seed=13,
        )
        return SimConfig(**{**defaults, **overrides})

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_csv_and_warnings_match(self, case, caplog):
        make_graph, overrides = self.CASES[case]
        adjacency = make_graph()
        config = self.config_for(overrides)
        want_csv, want_warnings, _ = reference_run_coverage(config, adjacency)
        with caplog.at_level("WARNING", logger="sopal.sim"):
            got_csv = run_coverage(config, adjacency).to_csv()
        assert got_csv == want_csv
        assert [r.getMessage() for r in caplog.records] == want_warnings
        assert want_csv.count("\n") > 1

    def test_cases_reach_every_sampling_path(self):
        sizes = []
        skipped = []
        for make_graph, overrides in self.CASES.values():
            config = self.config_for(overrides)
            _, warnings, pool_sizes = reference_run_coverage(config, make_graph())
            sizes += [(n, config.min_pairs, config.pairs_per_cell) for n in pool_sizes]
            skipped += warnings
        assert skipped
        assert any(least <= n <= k for n, least, k in sizes)
        assert any(200 < n <= self.SAMPLE_LIST_LIMIT for n, _, k in sizes if k == 200)
        assert any(n > self.SAMPLE_LIST_LIMIT for n, _, k in sizes if k == 200)

    def test_unlisted_neighbours_and_one_way_edges_matter(self):
        """The two odd adjacencies change the answer, so matching the
        reference on them is not matching it on the plain graph."""
        for case, base in (
            ("unlisted-neighbours", gnp_graph(200, 0.02, seed=7)),
            ("one-way-edges", gnp_graph(200, 0.03, seed=8)),
        ):
            make_graph, overrides = self.CASES[case]
            config = self.config_for(overrides)
            assert run_coverage(config, make_graph()).to_csv() != (
                run_coverage(config, base).to_csv()
            )

    def test_run_coverage_stays_in_index_space(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run_coverage built a name-keyed attested graph")

        monkeypatch.setattr(sim, "known_adjacency", refuse)
        make_graph, overrides = self.CASES["one-way-edges"]
        adjacency = make_graph()
        config = self.config_for(overrides)
        want_csv, _, _ = reference_run_coverage(config, adjacency)
        assert run_coverage(config, adjacency).to_csv() == want_csv


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


@st.composite
def small_configs(draw):
    d_max = draw(st.sampled_from((0, 1, 2, 3)))
    return SimConfig(
        member_fractions=tuple(
            draw(st.lists(st.sampled_from((0.2, 0.5, 1.0)), min_size=1, max_size=3, unique=True))
        ),
        path_lengths=tuple(range(1, 2 * d_max + 3)),
        pairs_per_cell=draw(st.integers(1, 20)),
        repetitions=draw(st.integers(1, 2)),
        d_max=d_max,
        ersatz_modes=draw(st.sampled_from(((True, False), (True,), (False,)))),
        seed=draw(st.integers(0, 1000)),
        min_pairs=draw(st.integers(1, 5)),
    )


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(adjacency=odd_gnp_graphs(), config=small_configs())
def test_run_coverage_matches_reference_on_odd_graphs(adjacency, config, caplog):
    caplog.clear()
    want_csv, want_warnings, _ = reference_run_coverage(config, adjacency)
    with caplog.at_level("WARNING", logger="sopal.sim"):
        got_csv = run_coverage(config, adjacency).to_csv()
    assert got_csv == want_csv
    assert [r.getMessage() for r in caplog.records] == want_warnings


rows_strategy = st.lists(
    st.tuples(st.integers(0, 300), st.integers(0, 2**300)), max_size=12
)


@settings(max_examples=200, deadline=None)
@given(rows=rows_strategy, seed=st.integers(0, 2**32))
def test_pair_pool_matches_materialized_list(rows, seed):
    pool = _PairPool(rows)
    flat = [(i, j) for i, mask in rows for j in range(mask.bit_length()) if mask >> j & 1]
    assert len(pool) == len(flat)
    assert [pool[k] for k in range(len(flat))] == flat
    assert list(pool) == flat
    with pytest.raises(IndexError):
        pool[len(flat)]
    k = random.Random(seed).randrange(len(flat) + 1)
    assert random.Random(seed).sample(pool, k) == random.Random(seed).sample(flat, k)


# rows as wide as those of pa:2000:3, dense or with a few scattered bits
wide_masks = st.one_of(
    st.integers(0, 2**2100),
    st.sets(st.integers(0, 2100), max_size=40).map(lambda bits: sum(1 << b for b in bits)),
)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 2100), wide_masks), max_size=12),
    seed=st.integers(0, 2**32),
)
def test_pair_pool_matches_materialized_list_at_bench_width(rows, seed):
    pool = _PairPool(rows)
    flat = [(i, j) for i, mask in rows for j, bit in enumerate(f"{mask:b}"[::-1]) if bit == "1"]
    assert len(pool) == len(flat)
    assert list(pool) == flat
    # each row's first and last item, and a sample of the rest
    ends = list(itertools.accumulate(mask.bit_count() for _, mask in rows))
    edges = {k for start, end in zip([0] + ends, ends) if end > start for k in (start, end - 1)}
    ks = sorted(edges | set(random.Random(seed).sample(range(len(flat)), min(len(flat), 500))))
    assert [pool[k] for k in ks] == [flat[k] for k in ks]
    with pytest.raises(IndexError):
        pool[len(flat)]
    k = random.Random(seed).randrange(min(len(flat), 500) + 1)
    assert random.Random(seed).sample(pool, k) == random.Random(seed).sample(flat, k)


class TestMonotonicity:
    def test_growing_membership_never_loses_pairs(self):
        ground = gnp_graph(24, 0.12, seed=21)
        nodes = sorted(ground)
        rng = random.Random(21)
        rng.shuffle(nodes)
        base = set(nodes[:8])
        grown = base | set(nodes[8:16])
        pairs = [(a, b) for i, a in enumerate(sorted(base)) for b in sorted(base)[i + 1 :]]
        for ersatz in (True, False):
            for a, b in pairs:
                found_small, dist_small = discoverable(ground, base, ersatz, 1, a, b)
                found_big, dist_big = discoverable(ground, grown, ersatz, 1, a, b)
                if found_small:
                    assert found_big
                    assert dist_big <= dist_small

    def test_ersatz_on_dominates_per_pair(self):
        ground = gnp_graph(24, 0.12, seed=22)
        members = random_member_subset(ground, 0.6, 22)
        uids = sorted(members)
        for a, b in zip(uids, uids[1:]):
            found_off, dist_off = discoverable(ground, members, False, 1, a, b)
            found_on, dist_on = discoverable(ground, members, True, 1, a, b)
            if found_off:
                assert found_on
                assert dist_on <= dist_off


class TestEquivalence:
    def test_fully_enrolled_graph_agrees(self):
        ground = gnp_graph(10, 0.3, seed=30)
        assert model_protocol_equivalence(ground, set(ground), 1) == 0

    def test_half_enrolled_agrees_both_modes(self):
        ground = gnp_graph(14, 0.22, seed=31)
        members = random_member_subset(ground, 0.5, 31)
        assert model_protocol_equivalence(ground, members, 1, ersatz_on=True) == 0
        assert model_protocol_equivalence(ground, members, 1, ersatz_on=False) == 0

    def test_out_of_range_pairs_agree_on_not_found(self):
        ground = path_adjacency("A", "p", "q", "r", "s", "B")
        members = set(ground)
        assert model_protocol_equivalence(ground, members, 1) == 0

    def test_pair_sampling_cap(self):
        ground = gnp_graph(12, 0.25, seed=33)
        assert model_protocol_equivalence(ground, set(ground), 1, max_pairs=10) == 0


class TestGenerators:
    def test_gnp_deterministic_and_sized(self):
        g1 = gnp_graph(50, 0.1, seed=7)
        g2 = gnp_graph(50, 0.1, seed=7)
        assert g1 == g2
        assert len(g1) == 50
        assert gnp_graph(50, 0.1, seed=8) != g1

    def test_preferential_attachment_degrees(self):
        g = preferential_attachment_graph(80, 3, seed=1)
        assert len(g) == 80
        assert all(len(nbrs) >= 3 for nbrs in g.values())
        with pytest.raises(ValueError):
            preferential_attachment_graph(3, 3, seed=1)

    def test_forest_fire_connected(self):
        g = forest_fire_graph(60, 0.4, seed=2)
        assert len(g) == 60
        # growth attaches every new node to at least its ambassador
        root = "0"
        reached = bfs(g, root)
        assert all(reached.get(v) is not None for v in g)

    def test_source_specs(self, tmp_path):
        assert len(load_graph_source("pa:40:2", seed=1)) == 40
        assert len(load_graph_source("ff:30:0.3", seed=1)) == 30
        assert len(load_graph_source("gnp:25:0.2", seed=1)) == 25
        path = tmp_path / "g.txt"
        path.write_text("A B\n")
        assert load_graph_source(str(path)) == {"A": {"B"}, "B": {"A"}}
