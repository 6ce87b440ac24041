"""The interactive intersection protocol: flows, failures, privacy."""

import hashlib
import json
import secrets
import socket
import tracemalloc
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sopal.crypto import BloomFilter, bf_optimal_size
from sopal.psi import (
    DEFAULT_BETA_CAP,
    HEADER_LEN,
    MSG_BF,
    MSG_CHAL,
    MSG_HELLO,
    MSG_REJECT,
    MSG_RESP,
    PHASE_ACTIVE,
    PHASE_DONE,
    PHASE_FAILED,
    PHASE_REJECTED,
    ROLE_INITIATOR,
    ROLE_RESPONDER,
    WIRE_VERSION,
    ProtocolError,
    PsiSession,
    _match_tags,
    _pack_hello,
    _pack_tags,
    _unpack_hello,
    build_frame,
    make_reject,
    parse_frame,
    recv_frame,
)

from helpers import RecordingSession, replay_frame_vector, sized_session, v1_filter_blob
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

    def test_a_repeated_value_is_proved_once(self):
        # the responder challenges each tag once, so the initiator must
        # not answer a value it holds twice with two response tags
        values = fresh_values(3)
        init, resp, _ = run_session([*values, values[0]], values)
        assert init.phase == resp.phase == PHASE_DONE
        assert init.matched_values == resp.matched_values == frozenset(values)

    def test_one_shot_iterator_refused_before_it_is_consumed(self):
        """A session iterates its values once per phase, so it takes a
        sized collection and refuses a generator without reading it."""
        values = fresh_values(3)
        generator = (v for v in values)
        with pytest.raises(TypeError):
            PsiSession.start_initiator(generator, "u")
        assert list(generator) == values

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
        # the filter's own header is where its size goes on the wire
        init, hello = RecordingSession.start_initiator(fresh_values(3), "u", fp_target=0.01)
        resp = PsiSession.start_responder(fresh_values(3), "v")
        init.step(resp.step(hello)[0])
        [(_, _, plaintext)] = [t for t in init.transcript if t[1] == MSG_BF]
        bf = BloomFilter.from_bytes(plaintext)
        assert bf.beta == bf_optimal_size(3, 0.01) == init.filter_beta
        assert bf.gamma == init.filter_gamma

    def test_index_function_count_is_bounded(self):
        for gamma in (0, 17):
            init, hello = PsiSession.start_initiator(fresh_values(3), "u")
            resp = PsiSession.start_responder(fresh_values(3), "v")
            init.step(resp.step(hello)[0])
            blob = bytearray(BloomFilter(64, 2).to_bytes())
            blob[5] = gamma  # the filter header's index-function count
            init._send_counter = 0  # seal into the message slot the responder expects
            with pytest.raises(ProtocolError, match="malformed filter"):
                resp.step(init._seal(MSG_BF, bytes(blob)))
            assert resp.phase == PHASE_FAILED
            assert "index-function count" in resp.failure_reason

    def test_hello_does_not_reveal_input_size(self):
        # a hello is role, key and id alone, whatever the set behind it
        _, hello = PsiSession.start_initiator(fresh_values(2), "u")
        for n in (3, 1500):
            _, own = PsiSession.start_initiator(fresh_values(n), "u")
            assert len(parse_frame(own)[2]) == 35 + len("u")
            reply, _ = PsiSession.start_responder(fresh_values(n), "responder").step(hello)
            assert len(parse_frame(reply)[2]) == 35 + len("responder")

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
        assert (plain.filter_beta, plain.filter_gamma) != (40, 3)
        init, hello = sized_session(40, 3).start_initiator(values, "u")
        resp = RecordingSession.start_responder(values, "v")
        hello_b, _ = resp.step(hello)
        bf_frame, _ = init.step(hello_b)
        resp.step(bf_frame)
        [(_, _, plaintext)] = [t for t in resp.transcript if t[1] == MSG_BF]
        bf = BloomFilter.from_bytes(plaintext)
        assert (bf.beta, bf.gamma) == (40, 3)

    def test_oversized_declared_filter_fails_responder(self):
        # refused on the frame's declared length, before a byte is opened
        init, hello = PsiSession.start_initiator(fresh_values(2), "u")
        resp = PsiSession.start_responder(fresh_values(2), "v")
        init.step(resp.step(hello)[0])
        init._send_counter = 0  # seal into the message slot the responder expects
        oversized = init._seal(MSG_BF, BloomFilter(DEFAULT_BETA_CAP + 8, 1).to_bytes())
        with pytest.raises(ProtocolError, match="limit"):
            resp.step(oversized)
        assert resp.phase == PHASE_FAILED
        assert "limit" in resp.failure_reason


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

    def test_version_three_hello_is_refused(self):
        # frame version 3 carried the filter size and index-function count
        # in the hello
        _, hello = PsiSession.start_initiator(fresh_values(2), "u")
        v3 = bytearray(hello + (64).to_bytes(4, "big") + bytes([2]))
        v3[0] = 3
        v3[18:22] = (len(v3) - 22).to_bytes(4, "big")
        resp = PsiSession.start_responder(fresh_values(2), "v")
        with pytest.raises(ProtocolError, match="unsupported wire version 3"):
            resp.step(bytes(v3))
        assert resp.phase == PHASE_FAILED

    def test_all_zero_public_key_fails_key_agreement(self):
        resp = PsiSession.start_responder(fresh_values(2), "v")
        payload = _pack_hello(ROLE_INITIATOR, bytes(32), "u")
        with pytest.raises(ProtocolError, match="key agreement failed"):
            resp.step(build_frame(MSG_HELLO, bytes(16), payload))
        assert resp.phase == PHASE_FAILED

    def test_wrong_role_byte_fails(self):
        # a responder's hello sent to a responder
        resp = PsiSession.start_responder(fresh_values(2), "v")
        other = PsiSession.start_responder(fresh_values(2), "u")
        payload = _pack_hello(ROLE_RESPONDER, other.public_key, "u")
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

    def test_version_one_filter_fails_responder(self):
        init, hello = PsiSession.start_initiator(fresh_values(3), "u")
        resp = PsiSession.start_responder(fresh_values(3), "v")
        hello_b, _ = resp.step(hello)
        init.step(hello_b)
        init._send_counter = 0  # seal into the message slot the responder expects
        forged = init._seal(MSG_BF, v1_filter_blob(init.filter_beta, init.filter_gamma))
        with pytest.raises(ProtocolError, match="malformed filter"):
            resp.step(forged)
        assert resp.phase == PHASE_FAILED
        assert "unsupported filter version 1" in resp.failure_reason


class TestTransitions:
    """Each side waits for one message type at a time.  Any other type
    fails it, even well formed, under its own session id and sealed in
    the slot it would open next."""

    VALUES = fresh_values(3)

    @staticmethod
    def forge(sender, receiver, msg_type, session_id):
        if msg_type == MSG_HELLO:
            payload = _pack_hello(sender.role, sender.public_key, "x")
            return build_frame(MSG_HELLO, session_id, payload)
        if sender._aead is None:  # nothing can be sealed before the hellos
            return build_frame(msg_type, session_id, b"")
        sender._send_counter = receiver._recv_counter
        plaintext = BloomFilter(64, 2).to_bytes() if msg_type == MSG_BF else _pack_tags([])
        return sender._seal(msg_type, plaintext)

    # The message type due after each prefix of a clean transcript; frame k
    # goes to the responder when k is even, else to the initiator.
    @pytest.mark.parametrize(
        "point, due", enumerate([MSG_HELLO, MSG_HELLO, MSG_BF, MSG_CHAL, MSG_RESP])
    )
    def test_only_the_message_type_due_is_accepted(self, point, due):
        for msg_type in sorted({MSG_HELLO, MSG_BF, MSG_CHAL, MSG_RESP} - {due}):
            init, frame = PsiSession.start_initiator(self.VALUES, "u")
            resp = PsiSession.start_responder(list(self.VALUES), "v")
            sessions = (resp, init)
            for k in range(point):
                frame, _ = sessions[k % 2].step(frame)
            receiver, sender = sessions[point % 2], sessions[1 - point % 2]
            assert receiver.phase == PHASE_ACTIVE
            forged = self.forge(sender, receiver, msg_type, init.session_id)
            with pytest.raises(ProtocolError, match=f"unexpected message type {msg_type}"):
                receiver.step(forged)
            assert receiver.phase == PHASE_FAILED

    @pytest.mark.parametrize("receiver_role", [ROLE_INITIATOR, ROLE_RESPONDER])
    @pytest.mark.parametrize("role_byte", [0, 7, "own"])
    def test_hello_must_carry_the_peers_role(self, receiver_role, role_byte):
        init, hello = PsiSession.start_initiator(self.VALUES, "u")
        resp = PsiSession.start_responder(list(self.VALUES), "v")
        receiver, sender = (init, resp) if receiver_role == ROLE_INITIATOR else (resp, init)
        role = receiver.role if role_byte == "own" else role_byte
        payload = _pack_hello(role, sender.public_key, "x")
        with pytest.raises(ProtocolError, match=f"unexpected role byte {role}"):
            receiver.step(build_frame(MSG_HELLO, init.session_id, payload))
        assert receiver.phase == PHASE_FAILED

    def test_response_may_not_outnumber_the_challenges(self):
        def respond_with(extra):
            init, hello = PsiSession.start_initiator(self.VALUES, "u")
            resp = PsiSession.start_responder(list(self.VALUES), "v")
            init.step(resp.step(init.step(resp.step(hello)[0])[0])[0])
            init._send_counter -= 1  # reseal into the slot of the response just sent
            tags = [secrets.token_bytes(32)] * (len(resp._candidates) + extra)
            return resp, init._seal(MSG_RESP, _pack_tags(tags))

        resp, forged = respond_with(0)
        assert resp.step(forged) == (None, True)
        assert resp.matched_values == frozenset()
        resp, forged = respond_with(1)
        with pytest.raises(ProtocolError, match="more tags than the challenges"):
            resp.step(forged)
        assert resp.phase == PHASE_FAILED


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
        MSG_HELLO: 1 + 32 + 2 + 65535,
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

    def test_long_challenge_costs_no_more_than_its_bytes(self):
        # the tags are matched in place against the initiator's own, so
        # it holds the payload and its plaintext, not a set of the tags
        values = fresh_values(1500)
        init, hello = PsiSession.start_initiator(values, "u")
        resp = PsiSession.start_responder(values[:10], "v")
        resp.step(init.step(resp.step(hello)[0])[0])
        resp._send_counter -= 1  # reseal into the slot of the challenge just sent
        payload = _pack_tags(sorted([*resp._candidates, *fresh_values(100_000 - 10)]))
        forged = resp._seal(MSG_CHAL, payload)
        tracemalloc.start()
        try:
            init.step(forged)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(payload)
        assert init.phase == PHASE_DONE
        assert init.matched_values == frozenset(values[:10])

    def test_oversized_hello_refused_before_its_body_is_read(self):
        sock_a, sock_b = socket.socketpair()
        with sock_a, sock_b, sock_b.makefile("rb") as reader:
            sock_b.settimeout(5)
            header = bytes([WIRE_VERSION, MSG_HELLO]) + bytes(16) + (2**20).to_bytes(4, "big")
            sock_a.sendall(header + b"body")
            with pytest.raises(ProtocolError, match="limit"):
                recv_frame(reader)
            # the reader may have buffered the body; it must not have consumed it
            assert reader.read1(16) == b"body"


class TestRecvFrame:
    """Frames read from a socket's buffered reader."""

    FRAME = build_frame(MSG_HELLO, bytes(16), b"payload")

    @pytest.mark.parametrize("cut", [HEADER_LEN - 1, HEADER_LEN + 3], ids=["header", "payload"])
    def test_stream_ending_inside_a_frame_is_refused(self, cut):
        sock_a, sock_b = socket.socketpair()
        with sock_a, sock_b, sock_b.makefile("rb") as reader:
            sock_b.settimeout(5)
            sock_a.sendall(self.FRAME[:cut])
            sock_a.shutdown(socket.SHUT_WR)
            with pytest.raises(ProtocolError, match="peer closed"):
                recv_frame(reader)

    def test_two_frames_in_one_write_come_back_as_two(self):
        second = make_reject(bytes(range(16)))
        sock_a, sock_b = socket.socketpair()
        with sock_a, sock_b, sock_b.makefile("rb") as reader:
            sock_b.settimeout(5)
            sock_a.sendall(self.FRAME + second)
            assert recv_frame(reader) == self.FRAME
            assert recv_frame(reader) == second


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


class TestFrameVector:
    def test_known_answer_vector(self):
        # inputs and frames fixed when this wire version was current
        # (tests/make_vectors.py); a byte change without a version bump
        # fails here
        path = Path(__file__).parent / "vectors" / f"frame_v{WIRE_VERSION}.json"
        vector = json.loads(path.read_text())
        assert vector["version"] == WIRE_VERSION
        sessions, frames = replay_frame_vector(vector)
        assert [(f["sender"], f["type"]) for f in vector["frames"]] == [
            ("initiator", MSG_HELLO),
            ("responder", MSG_HELLO),
            ("initiator", MSG_BF),
            ("responder", MSG_CHAL),
            ("initiator", MSG_RESP),
        ]
        assert [(sender, frame.hex()) for sender, frame in frames] == [
            (f["sender"], f["frame"]) for f in vector["frames"]
        ]
        intersection = {bytes.fromhex(value) for value in vector["intersection"]}
        assert sessions["initiator"].matched_values == intersection
        assert sessions["responder"].matched_values == intersection


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
        match_tags = partial(_match_tags, own={bytes(32): b"v"})
        for parse in (parse_frame, _unpack_hello, match_tags):
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
    )
    def test_hello_round_trip(self, role, public, claimed_id):
        payload = _pack_hello(role, public, claimed_id)
        assert _unpack_hello(payload) == (role, public, claimed_id)
        for cut in (payload[:-1], payload + b"\x00"):
            with pytest.raises(ProtocolError):
                _unpack_hello(cut)

    @settings(max_examples=100, deadline=None)
    @given(tags=st.lists(st.binary(min_size=32, max_size=32), max_size=20))
    def test_tags_round_trip(self, tags):
        payload = _pack_tags(tags)
        assert _match_tags(payload, {tag: tag for tag in tags}) == set(tags)
        assert _match_tags(payload, {}) == set()
        for cut in (payload[:-1], payload + b"\x00"):
            with pytest.raises(ProtocolError):
                _match_tags(cut, {})
