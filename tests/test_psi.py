"""The interactive intersection protocol: flows, failures, privacy."""

import hashlib
import secrets
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sopal.crypto import BloomFilter, bf_optimal_size
from sopal.psi import (
    DEFAULT_BETA_CAP,
    MSG_BF,
    MSG_CHAL,
    MSG_HELLO,
    MSG_REJECT,
    MSG_RESP,
    PHASE_DONE,
    PHASE_FAILED,
    PHASE_REJECTED,
    ROLE_INITIATOR,
    ROLE_RESPONDER,
    WIRE_VERSION,
    ProtocolError,
    PsiSession,
    _pack_hello,
    _pack_tags,
    _unpack_hello,
    _unpack_tags,
    build_frame,
    make_reject,
    parse_frame,
    recv_frame,
)

from helpers import RecordingSession, sized_session, v1_filter_blob
from oracles import brute_intersection


def fresh_values(n):
    return [secrets.token_bytes(32) for _ in range(n)]


def run_session(values_a, values_b, *, transcript=False, size=None):
    """Drive a full session; returns (initiator, responder, frames).  With
    ``transcript`` both ends are :class:`RecordingSession`s; ``size`` is
    the initiator's filter (beta, gamma)."""
    cls = RecordingSession if transcript else PsiSession
    initiator = sized_session(*size, base=cls) if size else cls
    init, frame = initiator.start_initiator(values_a, "user-a")
    resp = cls.start_responder(values_b, "user-b")
    frames = [frame]
    outbound, done = resp.step(frame)
    while outbound is not None:
        frames.append(outbound)
        next_out, done = init.step(outbound)
        if next_out is None:
            break
        frames.append(next_out)
        next_for_resp = next_out
        outbound, _ = resp.step(next_for_resp)
    return init, resp, frames


class TestBasicFlows:
    def test_disjoint_sets_intersect_empty(self):
        init, resp, _ = run_session(fresh_values(4), fresh_values(6))
        assert init.phase == resp.phase == PHASE_DONE
        assert init.matched_values == resp.matched_values == frozenset()

    def test_identical_sets_full_overlap(self):
        values = fresh_values(5)
        init, resp, _ = run_session(values, list(values))
        assert len(init.matched_values) == 5
        assert init.matched_values == resp.matched_values == frozenset(values)

    def test_empty_inputs_allowed(self):
        init, resp, _ = run_session([], fresh_values(3))
        assert init.matched_values == resp.matched_values == frozenset()
        init, resp, _ = run_session([], [])
        assert init.matched_values == resp.matched_values == frozenset()

    def test_values_must_be_bytes(self):
        """Values are kept as given, so a bytearray (unhashable) or a str
        is refused when the session starts."""
        values = fresh_values(3)
        for bad in (bytearray(values[0]), values[0].hex()):
            with pytest.raises(TypeError):
                PsiSession.start_initiator([*values, bad], "u")
            with pytest.raises(TypeError):
                PsiSession.start_responder([bad], "v")
        init, resp, _ = run_session(dict.fromkeys(values), values)
        assert init.matched_values == frozenset(values)

    def test_overlap_with_forced_false_positives(self):
        # a deliberately tiny filter makes responder-side candidate hits
        # near-certain for non-common items; the challenge round must
        # strip every one of them
        shared = fresh_values(2)
        values_a = shared + fresh_values(10)
        values_b = shared + fresh_values(10)
        init, resp, _ = run_session(values_a, values_b, size=(16, 2))
        expected = brute_intersection(values_a, values_b)
        assert init.matched_values == resp.matched_values == frozenset(expected)

    def test_matched_values_are_subset_of_own_values(self):
        values = fresh_values(3)
        values_a, values_b = values + fresh_values(2), values + fresh_values(2)
        init, resp, _ = run_session(values_a, values_b)
        assert init.matched_values <= set(values_a)
        assert resp.matched_values <= set(values_b)

    @settings(max_examples=30, deadline=None)
    @given(
        n_shared=st.integers(0, 12),
        n_only_a=st.integers(0, 12),
        n_only_b=st.integers(0, 12),
        tiny=st.booleans(),
    )
    def test_matches_brute_force_oracle(self, n_shared, n_only_a, n_only_b, tiny):
        shared = fresh_values(n_shared)
        values_a = shared + fresh_values(n_only_a)
        values_b = shared + fresh_values(n_only_b)
        init, resp, _ = run_session(values_a, values_b, size=(8, 1) if tiny else None)
        expected = frozenset(brute_intersection(values_a, values_b))
        assert init.matched_values == expected
        assert resp.matched_values == expected


class TestHello:
    def test_declared_size_follows_sizing_formula(self):
        init, frame = PsiSession.start_initiator(fresh_values(3), "u", fp_target=0.01)
        _, _, payload = parse_frame(frame)
        beta = int.from_bytes(payload[35 + 1 : 39 + 1], "big")
        assert beta == bf_optimal_size(3, 0.01) == init.declared_beta

    def test_index_function_count_is_bounded(self):
        init, hello = PsiSession.start_initiator(fresh_values(3), "u")
        resp = PsiSession.start_responder(fresh_values(3), "v")
        hello_b, _ = resp.step(hello)
        forged = bytearray(hello_b)
        forged[-1] = 17  # the responder's declared gamma
        with pytest.raises(ProtocolError, match="17 index functions"):
            init.step(bytes(forged))

    def test_fresh_keys_give_fresh_filter_digests(self):
        # one salt for both sessions, so only their public keys differ
        values = fresh_values(4)
        salt = secrets.token_bytes(16)
        digests = []
        for _ in range(2):
            init, resp, _ = run_session(values, list(values))
            binding = init.public_key + resp.public_key
            digests.append(BloomFilter(64, 2, salt, context=binding).insert_all(values))
        assert set(digests[0]).isdisjoint(digests[1])

    def test_sized_session_puts_its_size_on_the_wire(self):
        # the test seam must change what a peer sees, not only an attribute
        values = fresh_values(5)
        plain, _ = PsiSession.start_initiator(values, "u")
        assert (plain.declared_beta, plain.declared_gamma) != (40, 3)
        init, hello = sized_session(40, 3).start_initiator(values, "u")
        assert _unpack_hello(parse_frame(hello)[2])[3:] == (40, 3)
        resp = RecordingSession.start_responder(values, "v")
        hello_b, _ = resp.step(hello)
        bf_frame, _ = init.step(hello_b)
        resp.step(bf_frame)
        [(_, _, plaintext)] = [t for t in resp.transcript if t[1] == MSG_BF]
        bf = BloomFilter.from_bytes(plaintext)
        assert (bf.beta, bf.gamma) == (40, 3)

    def test_oversized_declared_filter_fails_responder(self):
        init, frame = sized_session(2**25, 16).start_initiator(fresh_values(2), "u")
        resp = PsiSession.start_responder(fresh_values(2), "v")
        with pytest.raises(ProtocolError, match="oversized"):
            resp.step(frame)
        assert resp.phase == PHASE_FAILED
        assert "oversized" in resp.failure_reason


class TestFailureModes:
    def test_out_of_order_message_fails(self):
        resp = PsiSession.start_responder(fresh_values(2), "v")
        bogus = build_frame(MSG_BF, bytes(16), b"junk")
        with pytest.raises(ProtocolError):
            resp.step(bogus)
        assert resp.phase == PHASE_FAILED

    def test_tampered_ciphertext_fails(self):
        init, hello = PsiSession.start_initiator(fresh_values(3), "u")
        resp = PsiSession.start_responder(fresh_values(3), "v")
        hello_b, _ = resp.step(hello)
        bf_frame, _ = init.step(hello_b)
        flipped = bytearray(bf_frame)
        flipped[-1] ^= 0x01
        with pytest.raises(ProtocolError, match="authenticate"):
            resp.step(bytes(flipped))
        assert resp.phase == PHASE_FAILED

    def test_wrong_session_id_fails(self):
        init, hello = PsiSession.start_initiator(fresh_values(2), "u")
        resp = PsiSession.start_responder(fresh_values(2), "v")
        hello_b, _ = resp.step(hello)
        forged = bytearray(hello_b)
        forged[2] ^= 0xFF
        with pytest.raises(ProtocolError, match="session id"):
            init.step(bytes(forged))

    def test_malformed_frames_fail(self):
        resp = PsiSession.start_responder(fresh_values(1), "v")
        with pytest.raises(ProtocolError):
            resp.step(b"\x01\x01short")
        resp = PsiSession.start_responder(fresh_values(1), "v")
        with pytest.raises(ProtocolError, match="wire version"):
            resp.step(b"\x09" + build_frame(MSG_HELLO, bytes(16), b"")[1:])

    def test_all_zero_public_key_fails_key_agreement(self):
        resp = PsiSession.start_responder(fresh_values(2), "v")
        payload = _pack_hello(ROLE_INITIATOR, bytes(32), "u", 64, 2)
        with pytest.raises(ProtocolError, match="key agreement failed"):
            resp.step(build_frame(MSG_HELLO, bytes(16), payload))
        assert resp.phase == PHASE_FAILED

    def test_wrong_role_byte_fails(self):
        # a responder's hello sent to a responder
        resp = PsiSession.start_responder(fresh_values(2), "v")
        other = PsiSession.start_responder(fresh_values(2), "u")
        payload = _pack_hello(ROLE_RESPONDER, other.public_key, "u", 64, 2)
        with pytest.raises(ProtocolError, match="unexpected role byte 2"):
            resp.step(build_frame(MSG_HELLO, bytes(16), payload))
        assert resp.phase == PHASE_FAILED

    def test_unknown_message_type_fails(self):
        init, hello = PsiSession.start_initiator(fresh_values(2), "u")
        with pytest.raises(ProtocolError, match="unknown message type 9"):
            init.step(build_frame(9, init.session_id, b""))
        assert init.phase == PHASE_FAILED

    def test_matched_values_before_completion_raises(self):
        init, hello = PsiSession.start_initiator(fresh_values(2), "u")
        resp = PsiSession.start_responder(fresh_values(2), "v")
        init.step(resp.step(hello)[0])
        for session in (init, resp):
            with pytest.raises(ProtocolError, match="not completed"):
                session.matched_values

    def test_step_after_termination_raises(self):
        init, resp, frames = run_session(fresh_values(2), fresh_values(2))
        with pytest.raises(ProtocolError, match="terminated"):
            init.step(frames[1])

    def test_filter_must_match_declared_parameters(self):
        init, hello = PsiSession.start_initiator(fresh_values(3), "u")
        resp = PsiSession.start_responder(fresh_values(3), "v")
        hello_b, _ = resp.step(hello)
        init.step(hello_b)
        wrong = BloomFilter(8, 1)
        init._send_counter = 0  # seal into the message slot the responder expects
        forged = init._seal(MSG_BF, wrong.to_bytes())
        with pytest.raises(ProtocolError, match="declared"):
            resp.step(forged)

    def test_version_one_filter_fails_responder(self):
        init, hello = PsiSession.start_initiator(fresh_values(3), "u")
        resp = PsiSession.start_responder(fresh_values(3), "v")
        hello_b, _ = resp.step(hello)
        init.step(hello_b)
        init._send_counter = 0  # seal into the message slot the responder expects
        forged = init._seal(MSG_BF, v1_filter_blob(init.declared_beta, init.declared_gamma))
        with pytest.raises(ProtocolError, match="malformed filter"):
            resp.step(forged)
        assert resp.phase == PHASE_FAILED
        assert "unsupported filter version 1" in resp.failure_reason


class TestReject:
    def test_reject_before_keys_terminates_cleanly(self):
        init, hello = PsiSession.start_initiator(fresh_values(4), "u")
        out, done = init.step(make_reject())
        assert out is None and done
        assert init.phase == PHASE_REJECTED
        assert init.matched_values == frozenset()

    def test_reject_midway_terminates_cleanly(self):
        init, hello = PsiSession.start_initiator(fresh_values(4), "u")
        resp = PsiSession.start_responder(fresh_values(4), "v")
        resp.step(hello)
        out, done = resp.step(make_reject(resp.session_id))
        assert out is None and done
        assert resp.phase == PHASE_REJECTED


class TestFrameLimits:
    """Each message type has its own payload cap, enforced on the declared
    length before any of the payload is read."""

    LIMITS = {
        MSG_HELLO: 1 + 32 + 2 + 65535 + 5,
        MSG_BF: 16 + 22 + DEFAULT_BETA_CAP // 8,
        MSG_CHAL: 2**26,
        MSG_RESP: 2**26,
        MSG_REJECT: 0,
    }

    @pytest.mark.parametrize("msg_type", sorted(LIMITS))
    def test_declared_length_is_capped_per_type(self, msg_type):
        limit = self.LIMITS[msg_type]
        header = bytes([WIRE_VERSION, msg_type]) + bytes(16)
        with pytest.raises(ProtocolError, match="limit"):
            parse_frame(header + (limit + 1).to_bytes(4, "big"))
        with pytest.raises(ProtocolError, match="does not match"):
            parse_frame(header + limit.to_bytes(4, "big") + b"\x00")

    def test_largest_filter_fits_its_frame(self):
        init, hello = PsiSession.start_initiator(fresh_values(1), "u")
        resp = PsiSession.start_responder(fresh_values(1), "v")
        init.step(resp.step(hello)[0])
        frame = init._seal(MSG_BF, BloomFilter(DEFAULT_BETA_CAP, 1).to_bytes())
        assert parse_frame(frame)[0] == MSG_BF

    def test_oversized_hello_refused_before_its_body_is_read(self):
        sock_a, sock_b = socket.socketpair()
        with sock_a, sock_b:
            sock_b.settimeout(5)
            header = bytes([WIRE_VERSION, MSG_HELLO]) + bytes(16) + (2**20).to_bytes(4, "big")
            sock_a.sendall(header + b"body")
            with pytest.raises(ProtocolError, match="limit"):
                recv_frame(sock_b)
            assert sock_b.recv(16) == b"body"


class TestSessionBinding:
    def test_replayed_filter_matches_nothing(self):
        values = fresh_values(6)

        # session 1 runs to completion between two honest endpoints
        init1, resp1, _ = run_session(values, list(values))
        assert len(init1.matched_values) == 6

        # session 2: same input values, fresh keys; splice session 1's
        # filter (re-sealed under session 2's own key, as a key-holding
        # replayer would have to) into the slot where the filter belongs
        init2, hello2 = PsiSession.start_initiator(values, "u")
        resp2 = PsiSession.start_responder(list(values), "v")
        hello_b, _ = resp2.step(hello2)
        init2.step(hello_b)

        binding1 = init1.public_key + resp1.public_key
        stale_bf = BloomFilter(bf_optimal_size(6, 0.001), 10, context=binding1)
        for value in values:
            stale_bf.insert(value)
        init2._send_counter = 0
        replayed = init2._seal(MSG_BF, stale_bf.to_bytes())
        init2._send_counter = 1
        chal, _ = resp2.step(replayed)
        # no session 2 item can sit in a filter keyed to session 1's
        # public keys, so the candidate set and both final results are empty
        assert resp2._candidates == {}
        resp_frame, done = init2.step(chal)
        assert done and init2.matched_values == frozenset()
        resp2.step(resp_frame)
        assert resp2.matched_values == frozenset()


class TestTranscriptPrivacy:
    def test_post_hello_frames_are_ciphertext_and_leak_no_values(self):
        shared = fresh_values(2)
        only_a = fresh_values(4)
        only_b = fresh_values(4)
        init, resp, frames = run_session(
            shared + only_a, shared + only_b, transcript=True
        )
        non_shared = only_a + only_b
        post_hello = frames[2:]
        assert len(post_hello) == 3
        for frame in post_hello:
            for value in non_shared:
                assert value not in frame
        # the decrypted payloads visible to the peer contain no raw
        # non-shared values either (they hold only filter bits and tags)
        for _, _, plaintext in init.transcript + resp.transcript:
            for value in non_shared:
                assert value not in plaintext
        # and the transmitted frames differ from their plaintexts
        plaintexts = [p for _, _, p in init.transcript]
        for frame in post_hello:
            assert frame[22:] not in plaintexts


class TestTagOrder:
    def test_challenge_and_response_tags_are_sorted(self):
        # the tags travel in ascending byte order, a function of the tag
        # set alone, whatever the order of the input values
        shared = fresh_values(12)
        init, resp, _ = run_session(
            shared + fresh_values(5), fresh_values(5) + shared[::-1], transcript=True
        )
        assert len(init.matched_values) == 12
        sent = {
            msg_type: plaintext
            for session in (init, resp)
            for direction, msg_type, plaintext in session.transcript
            if direction == "sent"
        }
        for msg_type in (MSG_CHAL, MSG_RESP):
            payload = sent[msg_type]
            tags = [payload[i : i + 32] for i in range(4, len(payload), 32)]
            assert len(tags) >= 12
            assert tags == sorted(tags)


class TestChallengeTags:
    @pytest.mark.parametrize("gamma", [1, 7, 8, 16])
    def test_challenge_tags_are_filter_digest_prefixes(self, gamma):
        # up to 8 positions the filter digest is 32 bytes, past them
        # 4 * gamma bytes; either way a challenge tag is its first 32 bytes
        shared = fresh_values(6)
        values_a = shared + fresh_values(20)
        values_b = fresh_values(20) + shared
        # a small filter, so that false positives reach the challenge
        init, resp, _ = run_session(values_a, values_b, transcript=True, size=(256, gamma))
        assert init.matched_values == resp.matched_values == frozenset(shared)
        sent = {
            msg_type: plaintext
            for session in (init, resp)
            for direction, msg_type, plaintext in session.transcript
            if direction == "sent"
        }
        salt = BloomFilter.from_bytes(sent[MSG_BF]).salt
        binding = init.public_key + resp.public_key
        prefixes = set()
        for value in values_b:
            hasher = hashlib.blake2b(key=salt, digest_size=max(32, 4 * gamma))
            hasher.update(binding)
            hasher.update(value)
            prefixes.add(hasher.digest()[:32])
        chal = sent[MSG_CHAL]
        tags = {chal[i : i + 32] for i in range(4, len(chal), 32)}
        assert len(tags) >= len(shared)
        assert tags <= prefixes


class TestParsersOnArbitraryBytes:
    """The frame and payload parsers reject anything malformed with
    ProtocolError alone, and invert their builders."""

    # byte strings laid out like a v1 frame or a hello, with arbitrary
    # fields, so that the checks past the length tests run too
    near_frame = st.builds(
        lambda msg_type, payload, slack: bytes([1, msg_type]) + bytes(16)
        + (len(payload) + slack).to_bytes(4, "big") + payload,
        st.integers(0, 255),
        st.binary(max_size=40),
        st.integers(0, 1),
    )
    near_hello = st.builds(
        lambda ident, tail: bytes(33) + len(ident).to_bytes(2, "big") + ident + tail,
        st.binary(max_size=20),
        st.binary(max_size=6),
    )

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=200) | near_frame | near_hello)
    def test_parsers_raise_only_protocol_error(self, data):
        for parse in (parse_frame, _unpack_hello, _unpack_tags):
            try:
                parse(data)
            except ProtocolError:
                pass

    @settings(max_examples=100, deadline=None)
    @given(
        msg_type=st.sampled_from([MSG_HELLO, MSG_BF, MSG_CHAL, MSG_RESP, MSG_REJECT]),
        session_id=st.binary(min_size=16, max_size=16),
        payload=st.binary(max_size=300),
    )
    def test_frame_round_trip(self, msg_type, session_id, payload):
        frame = build_frame(msg_type, session_id, payload)
        if msg_type == MSG_REJECT and payload:
            with pytest.raises(ProtocolError, match="limit"):
                parse_frame(frame)
            return
        assert parse_frame(frame) == (msg_type, session_id, payload)
        for cut in (frame[:-1], frame + b"\x00"):
            with pytest.raises(ProtocolError):
                parse_frame(cut)

    @settings(max_examples=100, deadline=None)
    @given(
        role=st.integers(0, 255),
        public=st.binary(min_size=32, max_size=32),
        claimed_id=st.text(max_size=40),
        beta=st.integers(0, 2**32 - 1),
        gamma=st.integers(0, 255),
    )
    def test_hello_round_trip(self, role, public, claimed_id, beta, gamma):
        payload = _pack_hello(role, public, claimed_id, beta, gamma)
        assert _unpack_hello(payload) == (role, public, claimed_id, beta, gamma)
        for cut in (payload[:-1], payload + b"\x00"):
            with pytest.raises(ProtocolError):
                _unpack_hello(cut)

    @settings(max_examples=100, deadline=None)
    @given(tags=st.lists(st.binary(min_size=32, max_size=32), max_size=20))
    def test_tags_round_trip(self, tags):
        payload = _pack_tags(tags)
        assert _unpack_tags(payload) == set(tags)
        with pytest.raises(ProtocolError):
            _unpack_tags(payload + b"\x00")
