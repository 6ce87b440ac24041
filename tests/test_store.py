"""Capability store: uploads, ersatz nodes, distribution, TTL, snapshots."""

import json
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sopal.store
from sopal.client import DiscoveryClient, LocalServerHandle, run_discovery_pair
from sopal.crypto import hash_chain, new_capability
from sopal.graph import SocialGraph
from sopal.server import ConnectorError, MockOsnConnector
from sopal.sim import gnp_graph
from sopal.store import (
    ERSATZ,
    MEMBER,
    CapabilityStore,
    DistributionResult,
    NotEnrolledError,
)

from helpers import adjacency_from_edges, assert_anonymous_runs, path_adjacency
from oracles import reference_distribute


class FakeClock:
    def __init__(self, start=1000.0):
        self.t = start

    def __call__(self):
        return self.t

    def advance(self, seconds):
        self.t += seconds


def make_store(ground, **kwargs):
    connector = MockOsnConnector(ground)
    return CapabilityStore(SocialGraph(), connector, **kwargs), connector


class TestUpload:
    def test_fresh_user_creates_ersatz_friends(self):
        store, _ = make_store(adjacency_from_edges([("A", "B"), ("A", "C")]))
        store.upload_capability("A", new_capability())
        assert store.record_of("A").kind == MEMBER
        assert store.record_of("B").kind == ERSATZ
        assert store.record_of("C").kind == ERSATZ

    def test_ersatz_upgrade_overwrites_value_and_kind(self):
        store, _ = make_store(adjacency_from_edges([("A", "B"), ("B", "D")]))
        store.upload_capability("A", new_capability())
        old = store.record_of("B")
        assert old.kind == ERSATZ
        cap_b = new_capability()
        store.upload_capability("B", cap_b)
        rec = store.record_of("B")
        assert rec.kind == MEMBER
        assert rec.cap == cap_b and rec.cap != old.cap
        # B's full friend list got merged in
        assert store.graph.neighbors("B") == {"A", "D"}

    def test_reupload_refreshes_only_own_record(self):
        store, _ = make_store(adjacency_from_edges([("A", "B")]))
        store.upload_capability("A", new_capability())
        friend_cap = store.record_of("B").cap
        fresh = new_capability()
        store.upload_capability("A", fresh)
        assert store.record_of("A").cap == fresh
        assert store.record_of("B").cap == friend_cap

    def test_wrong_capability_length_rejected(self):
        store, _ = make_store({"A": set()})
        with pytest.raises(ValueError, match="256 bits"):
            store.upload_capability("A", b"\x01" * 16)

    def test_connector_failure_is_atomic(self):
        store, _ = make_store(adjacency_from_edges([("A", "B")]))
        with pytest.raises(ConnectorError):
            store.upload_capability("ghost", new_capability())
        assert store.record_count() == 0
        assert len(store.graph) == 0


class TestDistribute:
    def test_star_with_ersatz_friends(self):
        store, _ = make_store(adjacency_from_edges([("U", "a"), ("U", "b")]))
        store.upload_capability("U", new_capability())
        result = store.distribute("U", 1)
        assert [uid for uid, _ in result.r_u] == ["a", "b"]
        assert result.r_u[0][1] == store.record_of("a").cap
        assert result.r_h == ()

    def test_two_hop_value_is_first_chain_step(self):
        store, _ = make_store(path_adjacency("A", "C", "B"))
        store.upload_capability("A", new_capability())
        store.upload_capability("B", new_capability())
        result = store.distribute("A", 1)
        assert [uid for uid, _ in result.r_u] == ["C"]
        assert result.r_u[0][1] == store.record_of("C").cap
        cap_b = store.record_of("B").cap
        assert result.r_h == ((1, hash_chain(cap_b, 1)),)

    def test_unknown_and_ersatz_users_cannot_download(self):
        store, _ = make_store(adjacency_from_edges([("A", "B")]))
        store.upload_capability("A", new_capability())
        with pytest.raises(NotEnrolledError):
            store.distribute("B", 1)
        with pytest.raises(NotEnrolledError):
            store.distribute("nobody", 1)
        with pytest.raises(ValueError):
            store.distribute("A", -1)

    def test_cardinality_matches_layer_sum(self):
        for seed in range(8):
            ground = gnp_graph(30, 0.12, seed=seed)
            members = sorted(ground)[:18]
            store, _ = make_store(ground)
            for uid in members:
                store.upload_capability(uid, new_capability())
            d_max = 1 + seed % 2
            for uid in members:
                result = store.distribute(uid, d_max)
                layers = store.graph.layer_friend_sets(uid, d_max + 1)
                assert result.total() == layers.total(), (seed, uid)

    def test_no_ids_in_higher_order_entries(self):
        store, _ = make_store(path_adjacency("A", "C", "B", "D"))
        store.upload_capability("A", new_capability())
        store.upload_capability("B", new_capability())
        result = store.distribute("A", 2)
        body = json.loads(result.to_json())
        assert body["r_h"], "expected higher-order entries"
        assert_anonymous_runs(body)
        # a run carries chain values only, never a stored capability
        digits = "".join(run[1] for run in body["r_h"])
        for uid in "ABCD":
            assert store.record_of(uid).cap.hex() not in digits

    def test_deterministic_between_mutations(self):
        ground = gnp_graph(25, 0.15, seed=4)
        store, _ = make_store(ground)
        for uid in sorted(ground)[:15]:
            store.upload_capability(uid, new_capability())
        first = store.distribute("0", 1)
        second = store.distribute("0", 1)
        assert first == second
        assert first.to_json() == second.to_json()

    def test_json_roundtrip(self):
        store, _ = make_store(path_adjacency("A", "C", "B"))
        store.upload_capability("A", new_capability())
        store.upload_capability("B", new_capability())
        result = store.distribute("A", 1)
        assert DistributionResult.from_json(result.to_json()) == result

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.text(),
            st.recursive(
                st.none()
                | st.booleans()
                | st.integers()
                | st.floats()
                | st.text()
                | st.sampled_from(["", "00", "ab" * 16, "ab" * 32, "zz"]),
                lambda inner: st.lists(inner, max_size=3)
                | st.dictionaries(
                    st.sampled_from(
                        ["format_version", "r_u", "r_h", "id", "cap", "degree", "digest"]
                    )
                    | st.text(),
                    inner,
                    max_size=4,
                ),
                max_leaves=20,
            ).map(json.dumps),
            # format 2 bodies whose runs and capabilities may be malformed
            st.tuples(
                st.lists(
                    st.tuples(
                        st.integers(-1, 3) | st.booleans() | st.floats(),
                        st.sampled_from(
                            ["", "ab" * 31, "ab" * 32, "cd" * 64, " " * 64 + "ab" * 32]
                        ),
                    ),
                    max_size=3,
                ),
                st.lists(
                    st.fixed_dictionaries(
                        {
                            "cap": st.sampled_from(
                                ["ab cd", "ab" * 31, "ab" * 32, "ab" * 33, " " + "ab" * 32]
                            ),
                            "id": st.text() | st.integers(),
                        }
                    ),
                    max_size=2,
                ),
            ).map(lambda b: json.dumps({"format_version": 2, "r_h": b[0], "r_u": b[1]})),
        )
    )
    def test_from_json_raises_only_value_error(self, text):
        try:
            result = DistributionResult.from_json(text)
        except ValueError:
            return
        assert DistributionResult.from_json(result.to_json()) == result

    @settings(max_examples=200, deadline=None)
    @given(
        r_u=st.lists(
            st.tuples(
                st.text() | st.text(alphabet='"\\/\x00\x1f\x7f\x80é€\u2028\U0001f600\ud800'),
                st.binary(max_size=40),
            ),
            max_size=5,
        ),
        runs=st.lists(
            st.tuples(
                st.integers(0, 3) | st.integers(),
                st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=3).map(tuple),
            ),
            max_size=4,
        ),
    )
    @example(r_u=[], runs=[])
    def test_to_json_is_byte_identical_to_json_dumps(self, r_u, runs):
        result = DistributionResult(r_u=tuple(r_u), runs=tuple(runs))
        body = {
            "format_version": 2,
            "r_u": [{"id": uid, "cap": cap.hex()} for uid, cap in r_u],
            "r_h": [[deg, b"".join(values).hex()] for deg, values in runs],
        }
        assert result.to_json() == json.dumps(body, sort_keys=True, separators=(",", ":"))

    def test_from_json_refuses_other_format_versions(self):
        v1 = '{"r_h":[{"degree":1,"digest":"%s"}],"r_u":[]}' % ("ab" * 32)
        with pytest.raises(ValueError):
            DistributionResult.from_json(v1)
        for version in ("1", "3", "2.0", "true", '"2"', "null"):
            with pytest.raises(ValueError):
                DistributionResult.from_json(
                    '{"format_version":%s,"r_h":[],"r_u":[]}' % version
                )

    @pytest.mark.parametrize(
        "run",
        [
            '[1,"%s"]' % ("ab" * 31 + "a"),
            '[1,"%s"]' % ("ab" * 32 + "a"),
            '[1,"%s"]' % (" " * 64 + "ab" * 32),
            '[true,"%s"]' % ("ab" * 32),
            '[1.0,"%s"]' % ("ab" * 32),
            '[1,"%s",0]' % ("ab" * 32),
            '{"degree":1,"digest":"%s"}' % ("ab" * 32),
            '[1,""]',
        ],
    )
    def test_from_json_refuses_a_malformed_run(self, run):
        with pytest.raises(ValueError):
            DistributionResult.from_json('{"format_version":2,"r_h":[%s],"r_u":[]}' % run)

    @pytest.mark.parametrize(
        "cap",
        [
            "ab cd",
            "ab" * 31,
            "ab" * 33,
            " " + "ab" * 32,
            "ab" * 32 + " ",
            "ab" * 16 + " " + "ab" * 16,
        ],
    )
    def test_from_json_refuses_a_malformed_capability(self, cap):
        body = '{"format_version":2,"r_h":[],"r_u":[{"cap":"%s","id":"x"}]}'
        DistributionResult.from_json(body % ("ab" * 32))
        with pytest.raises(ValueError):
            DistributionResult.from_json(body % cap)

    def test_to_json_refuses_a_short_value(self):
        result = DistributionResult(r_u=(), runs=((1, (new_capability(), bytes(31))),))
        with pytest.raises(ValueError):
            result.to_json()

    def test_to_json_refuses_an_empty_run(self):
        with pytest.raises(ValueError):
            DistributionResult(r_u=(), runs=((1, ()),)).to_json()

    def test_unsorted_runs_round_trip(self):
        a, b, c, d, e = (new_capability() for _ in range(5))
        result = DistributionResult(
            r_u=(("f", a),), runs=((2, (b,)), (1, (c, d)), (2, (e,)), (1, (b,)))
        )
        body = json.loads(result.to_json())
        assert body["r_h"] == [[2, b.hex()], [1, c.hex() + d.hex()], [2, e.hex()], [1, b.hex()]]
        assert DistributionResult.from_json(result.to_json()) == result

    def test_runs_are_one_per_degree_in_order(self):
        ground = gnp_graph(40, 0.1, seed=2)
        store, _ = make_store(ground)
        for uid in sorted(ground)[:25]:
            store.upload_capability(uid, new_capability())
        seen = set()
        for d_max in (1, 2, 3):
            for uid in sorted(ground)[:25]:
                runs = store.distribute(uid, d_max).runs
                degrees = [degree for degree, _ in runs]
                assert degrees == sorted(set(degrees)), (uid, d_max)
                assert all(1 <= degree <= d_max for degree in degrees), (uid, d_max)
                for _, values in runs:
                    assert values and all(a < b for a, b in zip(values, values[1:]))
                seen.update(degrees)
        assert seen == {1, 2, 3}

    def test_r_h_and_total_follow_the_runs(self):
        a, b, c = (new_capability() for _ in range(3))
        result = DistributionResult(r_u=(("f", a),), runs=((1, (b, c)), (2, (a,))))
        assert result.r_h == ((1, b), (1, c), (2, a))
        assert result.total() == len(result.r_u) + len(result.r_h) == 4
        ground = gnp_graph(30, 0.15, seed=3)
        store, _ = make_store(ground)
        for uid in sorted(ground)[:20]:
            store.upload_capability(uid, new_capability())
        for uid in sorted(ground)[:20]:
            result = store.distribute(uid, 2)
            flat = tuple((degree, v) for degree, values in result.runs for v in values)
            assert result.r_h == flat
            assert result.total() == len(result.r_u) + len(result.r_h)

    def test_from_json_refuses_deep_nesting(self):
        with pytest.raises(ValueError, match="malformed distribution"):
            DistributionResult.from_json("[" * 100_000)

    def test_upgrade_is_transparent_to_friends(self):
        store, _ = make_store(adjacency_from_edges([("A", "C"), ("B", "C")]))
        store.upload_capability("A", new_capability())
        before = dict(store.distribute("A", 1).r_u)
        cap_c = new_capability()
        store.upload_capability("C", cap_c)
        after = dict(store.distribute("A", 1).r_u)
        assert set(before) == set(after) == {"C"}
        assert after["C"] == cap_c and before["C"] != cap_c


class TestDistributeMatchesReference:
    """Random interleavings of uploads, re-uploads, ersatz-to-member
    upgrades, expiry sweeps and downloads, checked against a model of the
    records and ``oracles.reference_distribute``.  The memoised chain
    values must follow every write."""

    # each write names a member (by rank) whose view is checked right
    # after it, so a value read before a write is read again after it
    ops = st.lists(
        st.one_of(
            st.tuples(st.just("upload"), st.integers(0, 6), st.integers(0, 6)),
            st.tuples(st.just("expire"), st.sampled_from([0, 30, 49]), st.integers(0, 6)),
            st.tuples(st.just("distribute"), st.integers(0, 6), st.integers(0, 3)),
        ),
        max_size=20,
    )

    @settings(max_examples=100, deadline=None)
    @given(
        edges=st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=4, max_size=14),
        ops=ops,
    )
    def test_interleavings(self, edges, ops):
        ground = {str(n): set() for n in range(7)}
        for u, v in edges:
            if u != v:
                ground[str(u)].add(str(v))
                ground[str(v)].add(str(u))
        clock = FakeClock()
        store, _ = make_store(ground, clock=clock)
        ttl = store.default_ttl_s
        model = {}  # uid -> [cap, kind, created_at, stale]
        for op in ops:
            if op[0] == "distribute":
                uid, d_max = str(op[1]), op[2]
                if model.get(uid, [None, ERSATZ])[1] == MEMBER:
                    self.check(store, ground, model, uid, d_max)
                else:
                    with pytest.raises(NotEnrolledError):
                        store.distribute(uid, d_max)
                continue
            if op[0] == "upload":
                uid, cap = str(op[1]), new_capability()
                store.upload_capability(uid, cap)
                for friend in ground[uid]:
                    if friend not in model:
                        model[friend] = [store.record_of(friend).cap, ERSATZ, clock(), False]
                model[uid] = [cap, MEMBER, clock(), False]
            else:
                clock.advance(op[1] * 3600)
                store.expire_and_refresh()
                for uid, rec in model.items():
                    if clock() - rec[2] <= ttl:
                        continue
                    if rec[1] == MEMBER:
                        rec[3] = True
                    else:
                        fresh = store.record_of(uid).cap
                        assert fresh != rec[0]
                        rec[0], rec[2] = fresh, clock()
            self.check_records(store)
            members = sorted(u for u, rec in model.items() if rec[1] == MEMBER)
            if members:
                self.check(store, ground, model, members[op[2] % len(members)], 3)

    @staticmethod
    def check_records(store):
        """Node kinds live in the records: every graph node has one, every
        edge has a member end, and every ersatz record a member neighbour.
        Every memoised chain value is its record's current one, so the
        memo holds at most one entry per record and degree."""
        graph = store.graph
        kinds = {uid: store.record_of(uid).kind for uid in graph.nodes()}
        assert store.record_count() == len(kinds)
        for u, v in graph.edges():
            assert MEMBER in (kinds[u], kinds[v])
        for uid, kind in kinds.items():
            if kind == ERSATZ:
                assert any(kinds[n] == MEMBER for n in graph.neighbors(uid))
        chains = store._chains
        assert sum(map(len, chains.values())) <= store.record_count() * len(chains)
        for degree, memo in chains.items():
            for uid, value in memo.items():
                rec = store.record_of(uid)
                assert value == (b"" if rec.stale else hash_chain(rec.cap, degree))

    @staticmethod
    def check(store, ground, model, uid, d_max):
        result = store.distribute(uid, d_max)
        members = {u for u, rec in model.items() if rec[1] == MEMBER}
        live = {u: rec[0] for u, rec in model.items() if not rec[3]}
        attested = {u: set(ground[u]) for u in members}
        for u in members:
            for v in attested[u]:
                attested.setdefault(v, set()).add(u)
        assert (result.r_u, result.r_h) == reference_distribute(attested, live, uid, d_max)
        assert DistributionResult.from_json(result.to_json()).runs == result.runs
        layers = store.graph.layer_friend_sets(uid, d_max + 1)
        # c06: one entry per node in layers 1..d_max+1 with a live record
        assert result.total() == sum(
            node in live for i in range(1, d_max + 2) for node in layers.layer(i)
        )
        # ids only on layer 1
        assert {fid for fid, _ in result.r_u} <= layers.layer(1)
        assert_anonymous_runs(json.loads(result.to_json()))


class TestChainMemo:
    """Chain values are hashed once per record and degree: a repeat
    download hashes nothing, and a write re-hashes only the writer's chain."""

    @pytest.fixture
    def hashed(self, monkeypatch):
        """The inputs of every ``hash_chain`` call the store makes."""
        calls = []

        def counted(value, steps):
            calls.append(value)
            return hash_chain(value, steps)

        monkeypatch.setattr(sopal.store, "hash_chain", counted)
        return calls

    def test_writes_rehash_only_their_own_chain(self, hashed):
        # U - A - B - C - D: from U, B is at degree 1, C at 2 and D at 3
        clock = FakeClock()
        store, _ = make_store(path_adjacency("U", "A", "B", "C", "D"), clock=clock)
        store.upload_capability("B", new_capability())  # mints ersatz A and C
        clock.advance(30 * 3600)
        store.upload_capability("U", new_capability())
        store.upload_capability("D", new_capability())
        first = store.distribute("U", 3)
        assert len(hashed) == 1 + 2 + 3
        # B's member record goes stale; ersatz A and C get fresh values
        clock.advance(20 * 3600)
        assert store.expire_and_refresh() == 3
        hashed.clear()
        stale = store.distribute("U", 3)
        assert hashed == [store.record_of("C").cap, hash_chain(store.record_of("C").cap, 1)]
        assert [d for d, _ in stale.runs] == [2, 3] and stale.runs[1] == first.runs[2]
        for _ in range(3):
            hashed.clear()
            assert store.distribute("U", 3) == stale
            assert hashed == []
        cap_d = new_capability()
        store.upload_capability("D", cap_d)
        store.upload_capability("U", new_capability())
        hashed.clear()
        store.distribute("U", 3)
        assert hashed == [cap_d, hash_chain(cap_d, 1), hash_chain(cap_d, 2)]


class TestExpiry:
    def test_nothing_expired(self):
        clock = FakeClock()
        store, _ = make_store(adjacency_from_edges([("A", "B")]), clock=clock)
        store.upload_capability("A", new_capability())
        assert store.expire_and_refresh() == 0

    def test_member_goes_stale_and_drops_out(self):
        clock = FakeClock()
        ground = path_adjacency("A", "C", "B")
        store, _ = make_store(ground, clock=clock)
        store.upload_capability("A", new_capability())
        old_c = store.record_of("C").cap
        clock.advance(50 * 3600)
        store.upload_capability("B", new_capability())
        # A's member record crossed 48h and goes stale; C's ersatz record
        # (made at A's upload) crossed it too and is regenerated
        assert store.expire_and_refresh() == 2
        assert store.record_of("A").stale
        assert store.record_of("C").cap != old_c
        assert store.record_of("C").created_at == clock()
        # already-stale members are not recounted
        assert store.expire_and_refresh() == 0
        # B's download still carries C, but not the stale A two hops out
        result = store.distribute("B", 1)
        assert [uid for uid, _ in result.r_u] == ["C"]
        assert result.r_h == ()
        # re-upload clears the staleness
        store.upload_capability("A", new_capability())
        assert not store.record_of("A").stale
        assert len(store.distribute("B", 1).r_h) == 1

    def test_ersatz_regeneration_invalidates_old_value(self):
        clock = FakeClock()
        ground = adjacency_from_edges([("A", "C"), ("B", "C")])
        store, connector = make_store(ground, clock=clock)
        handle = LocalServerHandle(store, connector)
        clients = {}
        for uid in ("A", "B"):
            clients[uid] = DiscoveryClient(uid, handle)
            clients[uid].renew_capability()
        for client in clients.values():
            client.update_capabilities()
        ra, rb = run_discovery_pair(clients["A"], clients["B"])
        assert ra.dist == 2
        clients["A"].end_session("B")
        clients["B"].end_session("A")

        clock.advance(72 * 3600)
        assert store.expire_and_refresh() >= 1
        # A refreshes its view, B keeps the stale one: C's regenerated
        # value no longer matches B's cached copy
        clients["A"].renew_capability()
        clients["A"].update_capabilities()
        ra, rb = run_discovery_pair(clients["A"], clients["B"])
        assert ra.dist is None and rb.dist is None


SNAPSHOT_KEYS = ("format_version", "default_ttl_s", "records", "edges")
RECORD_FIELDS = ("id", "cap", "kind", "created_at", "ttl_s", "stale")


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        ground = gnp_graph(20, 0.15, seed=2)
        store, connector = make_store(ground)
        for uid in sorted(ground)[:10]:
            store.upload_capability(uid, new_capability())
        path = tmp_path / "store.json"
        store.save_snapshot(path)
        loaded = CapabilityStore.load_snapshot(path, connector)
        assert loaded.record_count() == store.record_count()
        assert loaded.graph.nodes() == store.graph.nodes()
        assert all(loaded.record_of(u) == store.record_of(u) for u in store.graph.nodes())
        assert loaded.graph.edges() == store.graph.edges()
        for uid in sorted(ground)[:10]:
            assert loaded.distribute(uid, 1) == store.distribute(uid, 1)

    def test_refuses_a_graph_that_is_not_empty(self):
        # Its nodes X and Y would have no records, so after one upload its
        # snapshot would name edge X-Y, which load_snapshot refuses.
        graph = SocialGraph.from_parts(["X", "Y"], [("X", "Y")])
        connector = MockOsnConnector(path_adjacency("A", "B"))
        with pytest.raises(ValueError, match="empty"):
            CapabilityStore(graph, connector)

    def test_snapshot_is_valid_documented_json(self, tmp_path):
        store, _ = make_store(path_adjacency("A", "B"))
        store.upload_capability("A", new_capability())
        path = tmp_path / "snap.json"
        store.save_snapshot(path)
        body = json.loads(path.read_text())
        assert body["format_version"] == 3
        assert set(body) == set(SNAPSHOT_KEYS)
        record = body["records"][0]
        assert set(record) == set(RECORD_FIELDS)
        assert record["cap"] == record["cap"].lower()

    def test_overwrite_is_atomic_no_temp_left(self, tmp_path):
        store, _ = make_store(path_adjacency("A", "B"))
        store.upload_capability("A", new_capability())
        path = tmp_path / "snap.json"
        store.save_snapshot(path)
        store.save_snapshot(path)
        assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]

    def test_failed_write_leaves_the_old_snapshot_and_no_temp(self, tmp_path, monkeypatch):
        store, _ = make_store(path_adjacency("A", "B"))
        store.upload_capability("A", new_capability())
        path = tmp_path / "snap.json"
        store.save_snapshot(path)
        before = path.read_bytes()
        store.upload_capability("B", new_capability())

        def dump_then_fail(body, fh, **kwargs):
            fh.write('{"format_version": ')
            raise OSError("disk full")

        monkeypatch.setattr(sopal.store.json, "dump", dump_then_fail)
        with pytest.raises(OSError, match="disk full"):
            store.save_snapshot(path)
        assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]
        assert path.read_bytes() == before

    @pytest.mark.parametrize(
        "corrupt, reason",
        [
            pytest.param(
                lambda body: body["records"][0].update(kind="admin"),
                "unknown kind",
                id="unknown-kind",
            ),
            pytest.param(
                lambda body: body["edges"].append(["A", "ghost"]),
                "not a node",
                id="edge-to-unlisted-node",
            ),
            pytest.param(
                lambda body: body["records"][0].update(cap="00" * 16),
                "256 bits",
                id="short-capability",
            ),
        ],
    )
    def test_rejects_inconsistent_snapshot(self, tmp_path, corrupt, reason):
        store, _ = make_store(path_adjacency("A", "B"))
        store.upload_capability("A", new_capability())
        path = tmp_path / "snap.json"
        store.save_snapshot(path)
        body = json.loads(path.read_text())
        assert body["records"][0]["id"] == "A"
        corrupt(body)
        path.write_text(json.dumps(body))
        with pytest.raises(ValueError, match=reason):
            CapabilityStore.load_snapshot(path)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(ValueError, match="version"):
            CapabilityStore.load_snapshot(path)
        store, _ = make_store(path_adjacency("A", "B"))
        store.upload_capability("A", new_capability())
        store.save_snapshot(path)
        body = json.loads(path.read_text())
        for old in (
            # version 1 also listed the graph's nodes with their kinds
            dict(body, format_version=1, capability_bits=256, nodes=[{"id": "A", "kind": MEMBER}]),
            # version 2 also carried the store's ersatz_enabled switch
            dict(body, format_version=2, ersatz_enabled=True),
        ):
            path.write_text(json.dumps(old))
            with pytest.raises(ValueError, match=f"version {old['format_version']}"):
                CapabilityStore.load_snapshot(path)

    @pytest.mark.parametrize(
        "path, value",
        [((key,), None) for key in SNAPSHOT_KEYS]
        + [(("records", 0, field), None) for field in RECORD_FIELDS]
        + [
            ((), []),
            (("records",), {}),
            (("records",), "A"),
            (("records", 0), ["A"]),
            (("edges",), {}),
            (("edges", 0), "AB"),
            (("edges", 0), 5),
            (("default_ttl_s",), "48h"),
            (("records", 0, "id"), 5),
            (("records", 0, "cap"), 5),
            (("records", 0, "created_at"), "1000"),
            (("records", 0, "ttl_s"), True),
            (("records", 0, "stale"), 0),
        ],
        ids=lambda arg: (
            "/".join(map(str, arg)) or "body"
            if isinstance(arg, tuple)
            else "drop" if arg is None else json.dumps(arg)
        ),
    )
    def test_malformed_snapshot_raises_value_error(self, tmp_path, path, value):
        """Drop the key at ``path`` (value None) or put ``value`` there."""
        store, _ = make_store(path_adjacency("A", "B"))
        store.upload_capability("A", new_capability())
        snap = tmp_path / "snap.json"
        store.save_snapshot(snap)
        body = json.loads(snap.read_text())
        if not path:
            body = value
        else:
            *outer, last = path
            container = body
            for step in outer:
                container = container[step]
            if value is None:
                del container[last]
            else:
                container[last] = value
        snap.write_text(json.dumps(body))
        with pytest.raises(ValueError):
            CapabilityStore.load_snapshot(snap)

    def test_deeply_nested_snapshot_raises_value_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ValueError):
            CapabilityStore.load_snapshot(path)


class TestConcurrency:
    def test_reads_during_writes_stay_consistent(self):
        ground = gnp_graph(40, 0.1, seed=6)
        store, _ = make_store(ground)
        uids = sorted(ground)
        for uid in uids[:10]:
            store.upload_capability(uid, new_capability())
        errors = []

        def reader():
            try:
                for _ in range(50):
                    result = store.distribute(uids[0], 1)
                    assert {uid for uid, _ in result.r_u} <= ground[uids[0]]
                    assert all(degree == 1 for degree, _ in result.r_h)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def writer(batch):
            try:
                for uid in batch:
                    store.upload_capability(uid, new_capability())
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=writer, args=(uids[10:20],)))
        threads.append(threading.Thread(target=writer, args=(uids[20:30],)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        # after the dust settles no write is lost and the cardinality law holds
        members = uids[:30]
        assert store.record_count() == len(set(members).union(*(ground[m] for m in members)))
        expected_edges = {tuple(sorted((u, v))) for u in members for v in ground[u]}
        assert store.graph.edges() == sorted(expected_edges)
        result = store.distribute(uids[0], 1)
        assert result.total() == store.graph.layer_friend_sets(uids[0], 2).total()
