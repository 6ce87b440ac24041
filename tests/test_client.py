"""Discovery client: input sets, path lengths, refresh, session API."""

import contextlib
import gc
import random
import re
import socket
import threading
import time
import tracemalloc
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sopal.client import (
    AnnotatedItem,
    DiscoveryClient,
    HttpServerHandle,
    SessionError,
    build_input_set,
    run_discovery_pair,
)
from sopal.crypto import hash_chain, new_capability
from sopal.psi import (
    MSG_BF,
    MSG_HELLO,
    WIRE_VERSION,
    PsiSession,
    _unpack_hello,
    make_reject,
    parse_frame,
)
from sopal.sim import gnp_graph
from sopal.store import ServerError

from helpers import (
    adjacency_from_edges,
    distribution,
    enrolled_world,
    no_resource_warnings,
    path_adjacency,
    random_member_subset,
    v1_filter_blob,
)
from oracles import bfs, reference_input_set


def fake_distribution(n_ru=0, n_rh=0, rh_degree=1):
    r_u = tuple((f"f{i}", new_capability()) for i in range(n_ru))
    r_h = tuple((rh_degree, new_capability()) for _ in range(n_rh))
    return distribution(r_u, r_h)


class TestBuildInputSet:
    def test_cardinality_formula(self):
        # 3 id-bearing entries expand to two degrees each, 5 one-hop-out
        # values to one degree each, plus the self item
        items = build_input_set(fake_distribution(3, 5), new_capability(), d_max=1)
        assert len(items) == 3 * 2 + 5 * 1 + 1

    def test_empty_distribution_gives_self_item_only(self):
        cap = new_capability()
        items = build_input_set(fake_distribution(), cap, d_max=1)
        assert list(items) == [cap]
        assert items[cap] == AnnotatedItem(0, 0, None, True)

    def test_derived_values_follow_the_chain(self):
        dist = fake_distribution(1, 1)
        items = build_input_set(dist, new_capability(), d_max=2)
        base = dist.r_u[0][1]
        by_degree = {
            it.item_degree: value for value, it in items.items() if it.friend_id == "f0"
        }
        assert by_degree[0] == base
        assert by_degree[1] == hash_chain(base, 1)
        assert by_degree[2] == hash_chain(base, 2)
        received = dist.r_h[0][1]
        anon = sorted(
            ((it, value) for value, it in items.items() if it.friend_id is None and not it.is_self),
            key=lambda pair: pair[0].item_degree,
        )
        assert [it.item_degree for it, _ in anon] == [1, 2]
        assert anon[1][1] == hash_chain(received, 1)
        assert all(it.received_degree == 1 for it, _ in anon)

    def test_rejects_out_of_range_degree(self):
        with pytest.raises(ValueError, match="degree"):
            build_input_set(fake_distribution(0, 1, rh_degree=2), new_capability(), d_max=1)
        with pytest.raises(ValueError, match="degree"):
            build_input_set(fake_distribution(0, 1, rh_degree=0), new_capability(), d_max=1)

    def test_value_collisions_keep_the_shortest_path(self):
        # Only a faulty server sends these: an id-bearing entry carrying
        # the client's own capability, a degree-1 value that is also the
        # first chain step of an id-bearing capability, a degree-2 value
        # ahead of the degree-1 value it derives from, and a repeated
        # degree-1 entry.
        own, cap, other, repeated = (new_capability() for _ in range(4))
        dist = distribution(
            (("mirror", own), ("f0", cap)),
            (
                (1, hash_chain(cap, 1)),
                (2, hash_chain(other, 1)),
                (1, other),
                (1, repeated),
                (1, repeated),
            ),
        )
        items = build_input_set(dist, own, d_max=2)
        assert items[own] == AnnotatedItem(0, 0, None, True)
        assert items[hash_chain(cap, 1)] == AnnotatedItem(0, 1, "f0")
        assert items[hash_chain(cap, 2)] == AnnotatedItem(0, 2, "f0")
        assert items[hash_chain(other, 1)] == AnnotatedItem(1, 2)
        assert items[repeated] == AnnotatedItem(1, 1)
        # 16 expanded items, of which 6 repeat a value: one of the self
        # item, two of f0's chain, one of other's, two of the repeated entry
        assert len(items) == 10

    def test_items_are_shared_per_group(self):
        # Two downloads that differ only in the length of a degree-2 run,
        # which at d_max 2 is one group: one shared item for any length.
        r_u = (("f0", new_capability()), ("f1", new_capability()))
        degree_1 = tuple((1, new_capability()) for _ in range(5))
        shapes = []
        for n in (10, 1000):
            degree_2 = tuple((2, new_capability()) for _ in range(n))
            dist = distribution(r_u, degree_1 + degree_2)
            items = build_input_set(dist, new_capability(), d_max=2)
            assert all(type(item) is AnnotatedItem for item in items.values())
            shapes.append((len(items), len({id(item) for item in items.values()})))
        # self, each friend at degrees 0-2, the degree-1 run at 1 and 2, the degree-2 run
        assert shapes == [(1 + 6 + 10 + 10, 1 + 6 + 2 + 1), (1 + 6 + 10 + 1000, 1 + 6 + 2 + 1)]
        assert "value" not in AnnotatedItem._fields

    @staticmethod
    @st.composite
    def planted_downloads(draw):
        """A download at d_max 1-3 whose values collide where a faulty
        server could make them: ``r_u`` may carry the client's own
        capability, and ``r_h`` re-sends chain steps of the own and
        ``r_u`` capabilities, repeats entries and mixes degree order."""
        caps = st.binary(min_size=32, max_size=32)
        d_max = draw(st.integers(1, 3))
        own = draw(caps)
        r_u = draw(st.lists(st.tuples(st.text(max_size=2), caps | st.just(own)), max_size=4))
        sources = [own, *(cap for _, cap in r_u), *draw(st.lists(caps, max_size=3))]
        steps = draw(
            st.lists(
                st.tuples(st.integers(1, d_max), st.sampled_from(sources), st.integers(0, d_max)),
                max_size=8,
            )
        )
        r_h = [(degree, hash_chain(base, k)) for degree, base, k in steps]
        return tuple(r_u), tuple(r_h), own, d_max

    @settings(max_examples=150, deadline=None)
    @given(case=planted_downloads())
    @example(
        case=(
            (("mirror", b"o" * 32), ("f0", b"c" * 32)),
            (
                (2, hash_chain(b"c" * 32, 2)),
                (1, hash_chain(b"c" * 32, 1)),
                (1, b"r" * 32),
                (2, b"o" * 32),
                (1, b"r" * 32),
            ),
            b"o" * 32,
            2,
        )
    )
    def test_matches_the_item_by_item_reference(self, case):
        r_u, r_h, own, d_max = case
        items = build_input_set(distribution(r_u, r_h), own, d_max)
        as_tuples = {value: (value, *item) for value, item in items.items()}
        assert as_tuples == reference_input_set(r_u, r_h, own, d_max)
        assert all(type(item) is AnnotatedItem for item in items.values())


class TestDiscoveryOutcomes:
    def test_common_friend_gives_two_and_identity(self):
        ground = path_adjacency("A", "C", "B")
        _, _, _, clients = enrolled_world(ground, ["A", "B"])
        ra, rb = run_discovery_pair(clients["A"], clients["B"])
        assert ra.dist == rb.dist == 2
        assert ra.common_friend_ids == rb.common_friend_ids == frozenset({"C"})

    def test_direct_friends_give_one(self):
        ground = adjacency_from_edges([("A", "B")])
        _, _, _, clients = enrolled_world(ground, ["A", "B"])
        ra, rb = run_discovery_pair(clients["A"], clients["B"])
        assert ra.dist == rb.dist == 1

    def test_length_three_reveals_no_identities(self):
        # full enrollment on a 3-edge path: each side matches the two
        # intermediates at lengths 3 and 4, keeps the minimum, shows no ids
        ground = path_adjacency("A", "x", "y", "B")
        _, _, _, clients = enrolled_world(ground, ["A", "x", "y", "B"])
        ra, rb = run_discovery_pair(clients["A"], clients["B"])
        assert ra.dist == rb.dist == 3
        assert ra.common_friend_ids == rb.common_friend_ids == frozenset()
        assert ra.match_count == rb.match_count == 2

    def test_no_path_gives_none(self):
        ground = {"A": set(), "B": set()}
        _, _, _, clients = enrolled_world(ground, ["A", "B"])
        ra, rb = run_discovery_pair(clients["A"], clients["B"])
        assert ra.dist is None and rb.dist is None
        assert ra.match_count == 0

    def test_beyond_range_gives_none(self):
        ground = path_adjacency("A", "p", "q", "r", "s", "B")  # distance 5
        _, _, _, clients = enrolled_world(ground, sorted(ground), d_max=1)
        ra, rb = run_discovery_pair(clients["A"], clients["B"])
        assert ra.dist is None and rb.dist is None

    def test_exact_lengths_on_fully_enrolled_graphs(self):
        for seed in range(6):
            ground = gnp_graph(12, 0.22, seed=seed)
            nodes = sorted(ground)
            _, _, _, clients = enrolled_world(ground, nodes, d_max=1)
            rng = random.Random(seed)
            pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
            for a, b in rng.sample(pairs, 12):
                ra, rb = run_discovery_pair(clients[a], clients[b])
                clients[a].end_session(b)
                clients[b].end_session(a)
                true = bfs(ground, a).get(b)
                expected = true if true is not None and true <= 4 else None
                assert ra.dist == expected, (seed, a, b, true)
                assert rb.dist == expected

    def test_larger_dmax_extends_reach(self):
        ground = path_adjacency("A", "p", "q", "r", "s", "B")
        _, _, _, clients = enrolled_world(ground, sorted(ground), d_max=2)
        ra, rb = run_discovery_pair(clients["A"], clients["B"])
        assert ra.dist == rb.dist == 5

    def test_under_enrollment_never_reports_shorter_than_truth(self):
        for seed in range(5):
            ground = gnp_graph(16, 0.18, seed=40 + seed)
            members = random_member_subset(ground, 0.6, seed)
            _, _, _, clients = enrolled_world(ground, members, d_max=1)
            uids = sorted(members)
            for a, b in zip(uids, uids[1:]):
                ra, rb = run_discovery_pair(clients[a], clients[b])
                clients[a].end_session(b)
                clients[b].end_session(a)
                if ra.dist is not None:
                    assert ra.dist >= bfs(ground, a).get(b)
                assert (ra.dist is None) == (rb.dist is None)

    def test_layer_membership_implies_held_value(self):
        # whoever sits in hop layer k of a member contributes its value
        # at degree k - 1 to that member's input set
        ground = gnp_graph(14, 0.2, seed=77)
        members = sorted(ground)[:9]
        store, _, _, clients = enrolled_world(ground, members, d_max=2)
        for uid in members:
            layers = store.graph.layer_friend_sets(uid, 3)
            values = set(clients[uid].input_items())
            for k in range(1, 4):
                for other in layers.layer(k):
                    cap = store.record_of(other).cap
                    assert hash_chain(cap, k - 1) in values, (uid, other, k)


class TestRefresh:
    def test_renew_invalidates_stale_peer_view(self):
        ground = adjacency_from_edges([("A", "B")])
        _, _, _, clients = enrolled_world(ground, ["A", "B"])
        ra, _ = run_discovery_pair(clients["A"], clients["B"])
        assert ra.dist == 1
        clients["A"].end_session("B")
        clients["B"].end_session("A")
        clients["A"].renew_capability()
        # B holds A's retired value now, but A's entry for B still
        # matches B's self item, so the pair still resolves as friends
        ra, rb = run_discovery_pair(clients["A"], clients["B"])
        assert ra.dist == rb.dist == 1
        clients["A"].end_session("B")
        clients["B"].end_session("A")
        # after B also renews without A updating, nothing matches
        clients["B"].renew_capability()
        ra, rb = run_discovery_pair(clients["A"], clients["B"])
        assert ra.dist is None and rb.dist is None

    def test_update_after_friend_enrolls_is_transparent(self):
        ground = adjacency_from_edges([("A", "C"), ("B", "C")])
        store, _, handle, clients = enrolled_world(ground, ["A", "B"])
        ra, _ = run_discovery_pair(clients["A"], clients["B"])
        assert ra.common_friend_ids == frozenset({"C"})
        clients["A"].end_session("B")
        clients["B"].end_session("A")
        # C enrolls itself; A and B refresh and still agree on C
        client_c = DiscoveryClient("C", handle)
        client_c.renew_capability()
        clients["A"].update_capabilities()
        clients["B"].update_capabilities()
        ra, rb = run_discovery_pair(clients["A"], clients["B"])
        assert ra.dist == rb.dist == 2
        assert ra.common_friend_ids == frozenset({"C"})
        value = dict(store.distribute("A", 1).r_u)["C"]
        assert value == store.record_of("C").cap

    def test_sessions_follow_updates_and_keep_their_snapshot(self):
        # A and B share nothing until C joins the OSN and enrolls
        ground = {"A": set(), "B": set()}
        _, _, handle, clients = enrolled_world(ground, ["A", "B"])
        a, b = clients["A"], clients["B"]
        ra, _ = run_discovery_pair(a, b)
        assert ra.dist is None
        a.end_session("B")
        b.end_session("A")
        # a session opened before the update keeps the input set it
        # started with, and that set knows nothing of C
        open_frame = a.start_session("B")
        ground.update(path_adjacency("A", "C", "B"))
        DiscoveryClient("C", handle).renew_capability()
        a.update_capabilities()
        b.update_capabilities()
        frame = open_frame
        while frame is not None:
            frame, _ = b.handle_message("A", frame)
            if frame is not None:
                frame, _ = a.handle_message("B", frame)
        assert a.get_result("B").dist is None
        a.end_session("B")
        b.end_session("A")
        # sessions started after the update see C
        ra, rb = run_discovery_pair(a, b)
        assert ra.dist == rb.dist == 2
        assert ra.common_friend_ids == frozenset({"C"})

    def test_session_after_renew_matches_the_new_capability(self):
        ground = adjacency_from_edges([("A", "B")])
        _, _, _, clients = enrolled_world(ground, ["A", "B"])
        a, b = clients["A"], clients["B"]
        # two matches: A's capability and B's, each against a self item
        ra, _ = run_discovery_pair(a, b)
        assert ra.match_count == 2
        a.end_session("B")
        b.end_session("A")
        a.renew_capability()
        b.update_capabilities()
        # A's self item is its new capability, which B now holds
        ra, rb = run_discovery_pair(a, b)
        assert ra.dist == rb.dist == 1
        assert ra.match_count == rb.match_count == 2

    def test_update_is_deterministic_without_server_change(self):
        ground = path_adjacency("A", "C", "B")
        _, _, _, clients = enrolled_world(ground, ["A", "B"])
        first = clients["A"].input_items()
        clients["A"].update_capabilities()
        second = clients["A"].input_items()
        assert first == second

    def test_update_requires_a_capability(self):
        ground = path_adjacency("A", "B")
        _, _, handle, _ = enrolled_world(ground, ["A"])
        fresh = DiscoveryClient("B", handle)
        with pytest.raises(RuntimeError, match="renew"):
            fresh.update_capabilities()

    def test_failed_upload_leaves_state_intact(self):
        class BrokenHandle:
            def upload(self, token, cap):
                raise ConnectionError("down")

            def download(self, token, d_max):
                raise ConnectionError("down")

        client = DiscoveryClient("A", BrokenHandle())
        with pytest.raises(ConnectionError):
            client.renew_capability()
        assert client.input_items() == {}


class TestSessionApi:
    def make_pair(self):
        ground = path_adjacency("A", "C", "B")
        _, _, _, clients = enrolled_world(ground, ["A", "B"])
        return clients["A"], clients["B"]

    def test_each_session_draws_its_own_key(self):
        a, b = self.make_pair()
        hellos = {dev: a.start_session(dev) for dev in ("dev-b", "dev-c")}
        keys = {dev: a._sessions[dev].psi.public_key for dev in hellos}
        assert keys["dev-b"] != keys["dev-c"]
        for dev, hello in hellos.items():
            assert _unpack_hello(parse_frame(hello)[2])[1] == keys[dev]
        reply, _ = b.handle_message("dev-a", hellos["dev-b"])
        responder_key = b._sessions["dev-a"].psi.public_key
        assert _unpack_hello(parse_frame(reply)[2])[1] == responder_key
        assert responder_key not in keys.values()

    def test_canonical_method_names(self):
        a, b = self.make_pair()
        frame = a.startSoPaLSession("dev-b")
        reply, done = b.handleSoPaLMessage("dev-a", frame)
        while not done:
            frame, done_a = a.handleSoPaLMessage("dev-b", reply)
            if frame is None:
                break
            reply, done = b.handleSoPaLMessage("dev-a", frame)
        assert a.getResult("dev-b").dist == 2
        assert b.getResult("dev-a").dist == 2
        assert a.endSoPaLSession("dev-b") is True
        assert a.endSoPaLSession("dev-b") is False

    def test_finished_sessions_release_their_protocol_state(self):
        a, b = self.make_pair()
        reply, _ = b.handle_message("dev-a", a.start_session("dev-b"))
        states = [weakref.ref(a._sessions["dev-b"].psi), weakref.ref(b._sessions["dev-a"].psi)]
        done = False
        while not done:
            frame, _ = a.handle_message("dev-b", reply)
            reply, done = b.handle_message("dev-a", frame)
        assert [state() for state in states] == [None, None]
        assert a.get_result("dev-b").dist == b.get_result("dev-a").dist == 2
        # a late frame finds the session over and leaves its result alone
        assert a.handle_message("dev-b", frame) == (None, True)
        assert a.get_result("dev-b").dist == 2
        assert a.end_session("dev-b") and b.end_session("dev-a")

        a.start_session("dev-c")
        state = weakref.ref(a._sessions["dev-c"].psi)
        assert a.handle_message("dev-c", b"not a frame") == (None, True)
        assert state() is None
        with pytest.raises(SessionError, match="failed"):
            a.get_result("dev-c")
        assert a.end_session("dev-c")

    def test_hello_after_a_finished_session_starts_a_new_one(self):
        a, b = self.make_pair()
        first = run_discovery_pair(a, b)
        assert a.end_session("B")
        # B has not ended its finished session with A; A's new HELLO replaces it
        second = run_discovery_pair(a, b)
        assert [r.dist for r in first + second] == [2, 2, 2, 2]
        assert b._sessions["A"].psi is None

    def test_result_before_completion_raises(self):
        a, b = self.make_pair()
        a.start_session("peer")
        with pytest.raises(SessionError, match="active"):
            a.get_result("peer")
        with pytest.raises(SessionError, match="no session"):
            a.get_result("stranger")

    def test_duplicate_session_rejected(self):
        a, _ = self.make_pair()
        a.start_session("peer")
        with pytest.raises(SessionError, match="already open"):
            a.start_session("peer")

    def test_start_after_a_finished_session_starts_a_new_one(self):
        a, b = self.make_pair()
        first = run_discovery_pair(a, b)
        # neither side ended its finished session: A's start and HELLO replace both
        second = run_discovery_pair(a, b)
        assert [r.dist for r in first + second] == [2, 2, 2, 2]

    def test_unauthenticated_hellos_keep_no_copy_of_the_input_set(self):
        class FixedDownload:
            def upload(self, token, cap):
                pass

            def download(self, token, d_max):
                return fake_distribution(300, 500)

        client = DiscoveryClient("A", FixedDownload(), d_max=2)
        client.renew_capability()
        client.update_capabilities()
        assert len(client.input_items()) == 300 * 3 + 500 * 2 + 1
        _, hello = PsiSession.start_initiator([new_capability()], "stranger")
        client.handle_message("warm-up", hello)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(200):
                reply, finished = client.handle_message(f"device-{i}", hello)
                assert reply is not None and not finished
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # a copy of the 1901 values would keep about 15 kB per HELLO
        assert kept / 200 < 2048

    @staticmethod
    def run_together(*calls):
        """Run each call on its own thread; returns results or exceptions."""
        outcomes = [None] * len(calls)

        def run(i):
            try:
                outcomes[i] = calls[i]()
            except Exception as exc:  # noqa: BLE001 - handed to the test
                outcomes[i] = exc

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        return outcomes

    class StubPsi:
        def __init__(self):
            self.frames = []

        def step(self, data):
            self.frames.append(data)
            return b"reply", False

    def test_racing_first_frames_share_one_responder(self, monkeypatch):
        a, _ = self.make_pair()
        # both threads are inside session creation before either inserts
        barrier = threading.Barrier(2, timeout=5)

        def start_responder(*args, **kwargs):
            barrier.wait()
            return self.StubPsi()

        monkeypatch.setattr(PsiSession, "start_responder", start_responder)
        one, two = (bytes((WIRE_VERSION, MSG_HELLO)) + tail for tail in (b"one", b"two"))
        outcomes = self.run_together(
            lambda: a.handle_message("dev", one),
            lambda: a.handle_message("dev", two),
        )
        assert outcomes == [(b"reply", False)] * 2
        assert sorted(a._sessions["dev"].psi.frames) == [one, two]

    def test_only_a_hello_opens_a_responder_session(self, monkeypatch):
        a, _ = self.make_pair()
        started = []
        monkeypatch.setattr(PsiSession, "start_responder", lambda *args, **kw: started.append(1))
        for i in range(1000):
            assert a.handle_message(f"junk-{i}", b"junk") == (None, True)
            assert a.handle_message(f"reject-{i}", make_reject()) == (None, True)
        assert a._sessions == {} and started == []
        with pytest.raises(SessionError, match="no session"):
            a.get_result("junk-0")

    def test_racing_starts_open_one_session(self, monkeypatch):
        a, _ = self.make_pair()
        barrier = threading.Barrier(2, timeout=5)
        started = []

        def start_initiator(*args, **kwargs):
            barrier.wait()
            psi = self.StubPsi()
            started.append(psi)
            return psi, b"hello"

        monkeypatch.setattr(PsiSession, "start_initiator", start_initiator)
        outcomes = self.run_together(
            lambda: a.start_session("dev"), lambda: a.start_session("dev")
        )
        refused = [o for o in outcomes if isinstance(o, SessionError)]
        assert len(refused) == 1 and "already open" in str(refused[0])
        assert outcomes.count(b"hello") == 1
        assert a._sessions["dev"].psi in started

    def test_reject_flow(self):
        a, b = self.make_pair()
        frame = a.start_session("dev-b")
        # b declines instead of answering
        reply, done = a.handle_message("dev-b", b.rejectSoPaLSession())
        assert reply is None and done
        with pytest.raises(SessionError, match="rejected"):
            a.get_result("dev-b")

    def test_garbage_message_fails_session(self):
        a, b = self.make_pair()
        a.start_session("dev-b")
        reply, done = a.handle_message("dev-b", b"not a frame")
        assert reply is None and done
        with pytest.raises(SessionError, match="failed"):
            a.get_result("dev-b")

    def test_failure_reason_is_reported_without_secrets(self):
        ground = path_adjacency("user-alice", "user-carol", "user-bob")
        _, _, _, clients = enrolled_world(ground, ["user-alice", "user-bob"])
        alice, bob = clients["user-alice"], clients["user-bob"]
        values = list(alice.input_items())
        # a peer speaking the version-1 filter format, over a valid session
        init, hello = PsiSession.start_initiator(values, "user-alice")
        hello_b, _ = bob.handle_message("dev-a", hello)
        init.step(hello_b)
        init._send_counter = 0
        v1_frame = init._seal(MSG_BF, v1_filter_blob(init.filter_beta, init.filter_gamma))
        assert bob.handle_message("dev-a", v1_frame) == (None, True)
        with pytest.raises(SessionError) as info:
            bob.get_result("dev-a")
        message = str(info.value)
        assert "failed: malformed filter: unsupported filter version 1" in message
        for uid in ("user-alice", "user-bob", "user-carol"):
            assert uid not in message
        for value in [*alice.input_items(), *bob.input_items()]:
            assert value.hex() not in message

    def test_concurrent_sessions_share_the_cache(self):
        ground = adjacency_from_edges([("A", "C"), ("B", "C"), ("D", "C")])
        _, _, _, clients = enrolled_world(ground, ["A", "B", "D"])
        a = clients["A"]
        # interleave two sessions on the same client
        frame_b = a.start_session("B")
        frame_d = a.start_session("D")
        reply_b, _ = clients["B"].handle_message("A", frame_b)
        reply_d, _ = clients["D"].handle_message("A", frame_d)
        bf_b, _ = a.handle_message("B", reply_b)
        bf_d, _ = a.handle_message("D", reply_d)
        chal_b, _ = clients["B"].handle_message("A", bf_b)
        chal_d, _ = clients["D"].handle_message("A", bf_d)
        resp_b, done_b = a.handle_message("B", chal_b)
        resp_d, done_d = a.handle_message("D", chal_d)
        assert done_b and done_d
        clients["B"].handle_message("A", resp_b)
        clients["D"].handle_message("A", resp_d)
        assert a.get_result("B").dist == 2
        assert a.get_result("D").dist == 2
        assert clients["B"].get_result("A").common_friend_ids == frozenset({"C"})


class ScriptedServer:
    """A raw HTTP peer on loopback, one connection at a time.  It records
    the bytes of each request it reads and answers with the next scripted
    reply once ``release`` is set (it starts set), then closes the
    connection if that reply is marked ``close``."""

    def __init__(self):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.netloc = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self.requests: list[bytes] = []
        self.replies: list[tuple[bytes, bool]] = []
        self.release = threading.Event()
        self.release.set()
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._serve)
        self._thread.start()

    def _serve(self):
        with self._listener:
            while not self._stopped.is_set():
                try:
                    sock, _ = self._listener.accept()
                except TimeoutError:
                    continue
                # The client closes a connection whose reply it refuses.
                with sock, sock.makefile("rb") as reader, contextlib.suppress(ConnectionError):
                    sock.settimeout(10)
                    while True:
                        head = b""
                        while (line := reader.readline()) not in (b"\r\n", b""):
                            head += line
                        if not line:
                            break
                        length = re.search(rb"\r\nContent-Length: ([0-9]+)\r\n", head)
                        body = reader.read(int(length[1])) if length else b""
                        self.requests.append(head + b"\r\n" + body)
                        reply, close = self.replies.pop(0)
                        self.release.wait(timeout=10)
                        sock.sendall(reply)
                        if close:
                            break

    def stop(self):
        self._stopped.set()
        self._thread.join(timeout=10)


def reply(status=200, body=b"{}", *fields):
    head = [f"HTTP/1.1 {status} X", f"Content-Length: {len(body)}", *fields]
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


@pytest.fixture
def scripted():
    server = ScriptedServer()
    with no_resource_warnings():
        yield server
        server.stop()


class TestReplyReader:
    """``HttpServerHandle`` against scripted replies: what it sends, the
    framing it accepts, and that a refused reply costs its connection."""

    def test_requests_are_framed_as_written(self, scripted, connects):
        scripted.replies += [(reply(body=distribution((), ()).to_json().encode()), False)] * 2
        handle = HttpServerHandle(f"http://{scripted.netloc}/api/")
        assert handle.download("mock:A", 1).r_u == ()
        cap = new_capability()
        handle.upload("mock:A", cap)
        handle.close()
        get, post = (request.split(b"\r\n") for request in scripted.requests)
        assert get == [
            b"GET /api/v1/capabilities?dmax=1 HTTP/1.1",
            f"Host: {scripted.netloc}".encode(),
            b"Authorization: Bearer mock:A",
            b"",
            b"",
        ]
        assert post == [
            b"POST /api/v1/capability HTTP/1.1",
            f"Host: {scripted.netloc}".encode(),
            b"Authorization: Bearer mock:A",
            b"Content-Length: 64",
            b"",
            cap.hex().encode(),
        ]
        assert len(connects) == 1

    # A reply in other framing, and whether the server closes after it.
    BAD_REPLIES = {
        "no length": (b"HTTP/1.1 200 OK\r\n\r\n", False),
        "chunked": (
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n",
            False,
        ),
        "length and chunked": (reply(200, b"x" * 5, "Transfer-Encoding: chunked"), False),
        "signed length": (b"HTTP/1.1 200 OK\r\nContent-Length: +5\r\n\r\nhello", False),
        "length list": (b"HTTP/1.1 200 OK\r\nContent-Length: 5, 6\r\n\r\nhello", False),
        "two lengths": (reply(200, b"hello", "Content-Length: 5"), False),
        "two-digit status": (b"HTTP/1.1 20 OK\r\nContent-Length: 0\r\n\r\n", False),
        "600 status": (reply(600), False),
        "HTTP/2": (b"HTTP/2 200 OK\r\nContent-Length: 0\r\n\r\n", False),
        "no HTTP": (b"SOPAL 200 OK\r\nContent-Length: 0\r\n\r\n", False),
        "100 status": (b"HTTP/1.1 100 Continue\r\n\r\n" + reply(), False),
        "101 field lines": (reply(200, b"{}", *["X-Filler: 1"] * 100), False),
        "no colon": (reply(200, b"{}", "X-Filler " + "1" * 80), False),
        "long line": (reply(200, b"{}", "X-Filler: " + "1" * 65536), False),
        "short body": (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort", True),
        "short head": (b"HTTP/1.1 200 OK\r\nContent-", True),
        "huge length": (b"HTTP/1.1 200 OK\r\nContent-Length: " + b"9" * 30 + b"\r\n\r\n", False),
        "over the cap": (b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % (2**26 + 1), False),
    }

    @pytest.mark.parametrize("bad, close", BAD_REPLIES.values(), ids=BAD_REPLIES)
    def test_a_reply_in_other_framing_fails_and_costs_its_connection(
        self, scripted, connects, bad, close
    ):
        scripted.replies += [(reply(), False), (bad, close), (reply(), False)]
        handle = HttpServerHandle(f"http://{scripted.netloc}")
        assert handle._request("GET", "/v1/health", "t") == b"{}"
        with pytest.raises(ServerError):
            handle._request("GET", "/v1/health", "t")
        assert handle._request("GET", "/v1/health", "t") == b"{}"
        handle.close()
        assert len(connects) == 2

    def test_close_leaves_a_request_in_flight_its_connection(self, scripted, connects):
        scripted.replies.append((reply(), False))
        scripted.release.clear()
        handle = HttpServerHandle(f"http://{scripted.netloc}")
        results = []
        in_flight = threading.Thread(
            target=lambda: results.append(handle._request("GET", "/v1/health", "t"))
        )
        in_flight.start()
        deadline = time.monotonic() + 10
        while not scripted.requests and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(connects) == 1
        handle.close()  # from this thread while the other's reply is held back
        assert connects[0].sock is not None
        scripted.release.set()
        in_flight.join(timeout=10)
        assert results == [b"{}"]
        assert connects[0].sock is not None
        handle.close()
        assert [conn.sock for conn in connects] == [None]

    def test_a_hundred_field_lines_are_read(self, scripted, connects):
        # The Content-Length line is the hundredth.
        scripted.replies += [(reply(200, b"{}", *["X-Filler: 1"] * 99), False)] * 2
        handle = HttpServerHandle(f"http://{scripted.netloc}")
        for _ in range(2):
            assert handle._request("GET", "/v1/health", "t") == b"{}"
        handle.close()
        assert len(connects) == 1

    def test_connection_close_ends_the_connection_after_its_reply(self, scripted, connects):
        scripted.replies += [(reply(200, b'{"a": 1}', "Connection: close"), True), (reply(), False)]
        handle = HttpServerHandle(f"http://{scripted.netloc}")
        assert handle._request("GET", "/v1/health", "t") == b'{"a": 1}'
        assert handle._request("GET", "/v1/health", "t") == b"{}"
        handle.close()
        assert len(connects) == 2

    def test_a_deeply_nested_error_body_is_a_server_error(self, scripted, connects):
        # A 500 in good framing keeps the connection, as a 404 does.
        scripted.replies += [(reply(500, b"[" * 100000), False), (reply(), False)]
        handle = HttpServerHandle(f"http://{scripted.netloc}")
        with pytest.raises(ServerError, match="server returned 500"):
            handle._request("GET", "/v1/health", "t")
        assert handle._request("GET", "/v1/health", "t") == b"{}"
        handle.close()
        assert len(connects) == 1

    def test_a_token_that_would_break_the_head_is_refused_unsent(self, scripted, connects):
        handle = HttpServerHandle(f"http://{scripted.netloc}")
        for token in ["mock:A\r\nX-Injected: 1", "mock:A\n", "mock:\x00A"]:
            with pytest.raises(ValueError):
                handle.upload(token, new_capability())
        handle.close()
        assert (connects, scripted.requests) == ([], [])
