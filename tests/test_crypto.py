"""Primitives: hash chains, Bloom filter math, key agreement."""

import hashlib
import json
import math
import secrets
import tracemalloc
from pathlib import Path

import mpmath
import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from hypothesis import given, settings
from hypothesis import strategies as st

from sopal.crypto import (
    BF_WIRE_VERSION,
    BloomFilter,
    bf_false_positive_estimate,
    bf_hash_count,
    bf_optimal_size,
    hash_chain,
    new_capability,
)
from sopal.psi import DEFAULT_BETA_CAP, establish_session

from helpers import sized_filter, v1_filter_blob
from oracles import pure_sha256, pure_x25519

# sha256 of the chain label byte followed by 32 zero bytes, computed with
# the independent FIPS 180-4 implementation in oracles.py.
CHAIN_STEP_ON_ZEROS = "1a7dfdeaffeedac489287e85be5e9c049a2ff6470f55cf30260f55395ac1b159"


class TestCapability:
    def test_default_length_is_256_bits(self):
        assert len(new_capability()) == 32

    def test_bit_balance_over_many_samples(self):
        total_bits = 0
        ones = 0
        for _ in range(2000):
            cap = new_capability()
            total_bits += len(cap) * 8
            ones += sum(bin(b).count("1") for b in cap)
        # 512000 fair coin flips: the ones fraction is within 2% of 1/2
        # except with probability far below 1e-100.
        assert 0.48 < ones / total_bits < 0.52

    def test_samples_distinct(self):
        caps = {new_capability() for _ in range(1000)}
        assert len(caps) == 1000


class TestHashChain:
    def test_zero_steps_is_identity(self):
        for x in (b"", b"abc", secrets.token_bytes(32)):
            assert hash_chain(x, 0) == x

    def test_three_steps_composes(self):
        x = secrets.token_bytes(32)
        assert hash_chain(x, 3) == hash_chain(hash_chain(x, 1), 2)

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.binary(min_size=0, max_size=64),
        a=st.integers(min_value=0, max_value=8),
        b=st.integers(min_value=0, max_value=8),
    )
    def test_composition_identity(self, x, a, b):
        assert hash_chain(x, a + b) == hash_chain(hash_chain(x, b), a)

    def test_single_step_matches_independent_sha256(self):
        x = bytes(32)
        expected = pure_sha256(b"\x01" + x)
        assert hash_chain(x, 1) == expected
        assert hash_chain(x, 1).hex() == CHAIN_STEP_ON_ZEROS

    def test_two_steps_match_independent_sha256(self):
        x = b"\x07" * 32
        expected = pure_sha256(b"\x01" + pure_sha256(b"\x01" + x))
        assert hash_chain(x, 2) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            hash_chain(b"x", -1)


class TestSizingFormulas:
    def test_empty_set_needs_no_bits(self):
        assert bf_optimal_size(0, 0.01) == 0

    def test_known_values(self):
        # (-log2 0.001) / ln 2 is about 14.377, ceiling 15
        assert bf_optimal_size(1000, 0.001) == 15000
        # 1 / ln 2 is about 1.4427, ceiling 2
        assert bf_optimal_size(1, 0.5) == 2

    def test_grid_matches_high_precision_evaluation(self):
        mpmath.mp.dps = 50
        for alpha in (0, 1, 7, 100, 1000, 12345):
            for p in (0.5, 0.3, 0.25, 0.1, 0.01, 0.001, 1e-6):
                factor = mpmath.ceil(-mpmath.log(p, 2) / mpmath.log(2))
                assert bf_optimal_size(alpha, p) == int(factor) * alpha, (alpha, p)

    def test_rejects_bad_probability(self):
        for p in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ValueError):
                bf_optimal_size(10, p)
        with pytest.raises(ValueError):
            bf_optimal_size(-1, 0.5)

    def test_false_positive_estimate_values(self):
        assert bf_false_positive_estimate(0, 100, 3) == 0.0
        assert bf_false_positive_estimate(1, 1, 1) == 1.0
        assert bf_false_positive_estimate(1, 2, 1) == 0.5

    def test_false_positive_estimate_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bf_false_positive_estimate(1, 0, 1)
        with pytest.raises(ValueError):
            bf_false_positive_estimate(1, 8, 0)
        with pytest.raises(ValueError):
            bf_false_positive_estimate(-1, 8, 1)

    def test_hash_count_reasonable(self):
        assert bf_hash_count(0, 0) == 1
        assert bf_hash_count(1000, 15000) == 10
        assert 1 <= bf_hash_count(1, 10**9) <= 255


class TestBloomFilter:
    def test_insert_then_contains(self):
        bf = sized_filter(10, 0.01)
        item = secrets.token_bytes(32)
        bf.insert(item)
        assert item in bf

    def test_fresh_filter_contains_nothing(self):
        bf = BloomFilter(4096, 4)
        assert all(secrets.token_bytes(16) not in bf for _ in range(100))

    @settings(max_examples=40, deadline=None)
    @given(items=st.lists(st.binary(min_size=1, max_size=40), max_size=60))
    def test_no_false_negatives(self, items):
        bf = sized_filter(max(len(items), 1), 0.05)
        for item in items:
            bf.insert(item)
        assert all(item in bf for item in items)

    def test_observed_rate_tracks_estimate(self, rng):
        alpha, probes = 400, 20000
        bf = sized_filter(alpha, 0.01)
        bf.insert_all([rng.randbytes(32) for _ in range(alpha)])
        hits = len(bf.probe_all([rng.randbytes(32) for _ in range(probes)]))
        estimate = bf_false_positive_estimate(alpha, bf.beta, bf.gamma)
        assert estimate / 3 < hits / probes < estimate * 3

    def test_zero_size_filter(self):
        bf = BloomFilter(0, 1)
        assert b"anything" not in bf
        with pytest.raises(ValueError):
            bf.insert(b"x")

    def test_serialization_roundtrip(self):
        bf = BloomFilter(333, 5)
        items = [secrets.token_bytes(24) for _ in range(20)]
        for item in items:
            bf.insert(item)
        parsed = BloomFilter.from_bytes(bf.to_bytes())
        assert (parsed.beta, parsed.gamma, parsed.salt) == (bf.beta, bf.gamma, bf.salt)
        assert parsed.bits == bf.bits
        assert all(item in parsed for item in items)

    def test_wire_layout_is_bit_exact(self):
        # up to 8 positions the digest is the 32-byte challenge tag, and
        # the positions are its first gamma words
        self._check_wire_layout(beta=61, gamma=4, digest_size=32)

    def test_wire_layout_is_bit_exact_with_a_longer_digest(self):
        # past 8 positions the digest grows to 4 * gamma bytes
        self._check_wire_layout(beta=1021, gamma=10, digest_size=40)

    @staticmethod
    def _check_wire_layout(beta, gamma, digest_size):
        salt = b"\x5a" * 16
        bf = BloomFilter(beta, gamma, salt)
        item = b"layout-check-0"
        # independently recompute the positions from one keyed BLAKE2b
        # digest: word i is bytes 4i..4i+3, big-endian, and position i is
        # word i mod beta
        digest = hashlib.blake2b(item, key=salt, digest_size=digest_size).digest()
        assert bf.insert_all([item]) == [digest]
        words = [digest[4 * i : 4 * i + 4] for i in range(gamma)]
        positions = {int.from_bytes(w, "big") % beta for w in words}
        assert len(positions) == gamma
        # so the test also pins the byte order
        assert positions != {int.from_bytes(w, "little") % beta for w in words}
        blob = bf.to_bytes()
        assert blob[0] == 4
        assert int.from_bytes(blob[1:5], "big") == beta
        assert blob[5] == gamma
        assert blob[6:22] == salt
        bits = blob[22:]
        assert len(bits) == (beta + 7) // 8
        set_bits = {j for j in range(len(bits) * 8) if bits[j // 8] & (1 << (j % 8))}
        assert set_bits == positions

    def test_small_filter_rate_tracks_estimate(self, rng):
        # 6 items in 90 bits with 10 positions each, the filter of the
        # session-binding replay test: positions that repeat or cluster
        # at small beta lift the rate far above the estimate
        alpha, beta, gamma = 6, 90, 10
        filters, probes = 10_000, 10
        hits = 0
        for _ in range(filters):
            bf = BloomFilter(beta, gamma, rng.randbytes(16))
            bf.insert_all([rng.randbytes(32) for _ in range(alpha)])
            hits += len(bf.probe_all([rng.randbytes(32) for _ in range(probes)]))
        expected = filters * probes * bf_false_positive_estimate(alpha, beta, gamma)
        # five binomial standard deviations around the estimate, which
        # at this size runs about 20% low (it treats the bits as filled
        # independently), so the band is widened by 1.5x either side
        slack = 5 * math.sqrt(expected)
        assert expected / 1.5 - slack <= hits <= expected * 1.5 + slack, (hits, expected)

    def test_from_bytes_rejects_garbage(self):
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(b"\x01\x00")
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(b"\x09" + bytes(30))
        good = BloomFilter(64, 2).to_bytes()
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(good[:-1])

    def test_from_bytes_refuses_version_one(self):
        with pytest.raises(ValueError, match="version 1"):
            BloomFilter.from_bytes(v1_filter_blob(64, 3))

    def test_from_bytes_refuses_version_two(self):
        # version 2 had this layout but double-hashed positions
        blob = bytearray(BloomFilter(64, 3).to_bytes())
        blob[0] = 2
        with pytest.raises(ValueError, match="version 2"):
            BloomFilter.from_bytes(bytes(blob))

    def test_from_bytes_refuses_version_three(self):
        # version 3 had this layout but took 4 * gamma digest bytes, so
        # its positions differ for gamma below 8
        blob = bytearray(BloomFilter(64, 3).to_bytes())
        blob[0] = 3
        with pytest.raises(ValueError, match="version 3"):
            BloomFilter.from_bytes(bytes(blob))

    def test_at_most_sixteen_index_functions(self):
        assert BloomFilter(8, 16).gamma == 16
        with pytest.raises(ValueError, match="16"):
            BloomFilter(8, 17)
        assert bf_hash_count(1, 10**9) == 16

    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(
        st.binary(max_size=80),
        st.builds(
            lambda version, beta, gamma, salt, bits, cut: (
                bytes([version]) + beta.to_bytes(4, "big") + bytes([gamma])
                + salt + bits[: max(0, (beta + 7) // 8 + cut)]
            ),
            st.sampled_from([1, 2, 3, BF_WIRE_VERSION]),
            st.integers(0, 200),
            st.integers(0, 255),
            st.binary(min_size=16, max_size=16),
            st.binary(min_size=30, max_size=30),
            st.sampled_from([-1, 0, 0, 1]),
        ),
    ))
    def test_from_bytes_on_arbitrary_bytes(self, data):
        try:
            bf = BloomFilter.from_bytes(data)
        except ValueError:
            return
        assert bf.to_bytes() == data

    @settings(max_examples=100, deadline=None)
    @given(
        beta=st.integers(1, 300),
        gamma=st.integers(1, 16),
        salt=st.binary(min_size=16, max_size=16),
        items=st.lists(st.binary(max_size=40), max_size=30),
    )
    def test_batch_insert_equals_single_inserts(self, beta, gamma, salt, items):
        batch = BloomFilter(beta, gamma, salt)
        batch.insert_all(items)
        single = BloomFilter(beta, gamma, salt)
        for item in items:
            single.insert(item)
        assert batch.to_bytes() == single.to_bytes()
        # the packed form round-trips exactly through the parser
        blob = batch.to_bytes()
        assert BloomFilter.from_bytes(blob).to_bytes() == blob

    @settings(max_examples=100, deadline=None)
    @given(
        beta=st.integers(1, 300),
        gamma=st.integers(1, 16),
        salt=st.binary(min_size=16, max_size=16),
        inserted=st.lists(st.binary(max_size=40), max_size=20),
        others=st.lists(st.binary(max_size=40), max_size=20),
        data=st.data(),
    )
    def test_probe_all_returns_the_hits_in_order(
        self, beta, gamma, salt, inserted, others, data
    ):
        bf = BloomFilter(beta, gamma, salt)
        digests = bf.insert_all(inserted)
        items = data.draw(st.permutations(inserted + others))
        hits = bf.probe_all(items)
        assert [item for _, item in hits] == [item for item in items if item in bf]
        # the same hits, recomputed from the packed bits with hashlib alone
        bits = bf.bits
        expected = []
        for item in items:
            d = hashlib.blake2b(item, key=salt, digest_size=max(32, 4 * gamma)).digest()
            words = [int.from_bytes(d[4 * i : 4 * i + 4], "big") for i in range(gamma)]
            if all(bits[w % beta // 8] >> (w % beta % 8) & 1 for w in words):
                expected.append((d, item))
        assert hits == expected
        # every inserted item hits, with the digest insert_all returned
        hit_digests = {item: d for d, item in hits}
        assert [hit_digests[item] for item in inserted] == digests

    def test_batch_insert_into_zero_size_filter(self):
        bf = BloomFilter(0, 3)
        bf.insert_all([])
        assert bf.to_bytes() == BloomFilter(0, 3, bf.salt).to_bytes()
        with pytest.raises(ValueError):
            bf.insert_all([b"x"])

    @settings(max_examples=100, deadline=None)
    @given(beta=st.integers(1, 300).filter(lambda beta: beta % 8), data=st.data())
    def test_set_padding_bit_is_refused(self, beta, data):
        blob = bytearray(BloomFilter(beta, 2).to_bytes())
        blob[-1] |= 1 << data.draw(st.integers(beta % 8, 7))
        with pytest.raises(ValueError, match="padding"):
            BloomFilter.from_bytes(bytes(blob))

    def test_one_salt_with_two_contexts_gives_disjoint_digests(self):
        # the context is hashed ahead of every item and never sent, so a
        # filter only probes true under the context it was built with
        salt = secrets.token_bytes(16)
        items = [secrets.token_bytes(32) for _ in range(50)]
        first = BloomFilter(512, 4, salt, context=b"\x01" * 64)
        second = BloomFilter(512, 4, salt, context=b"\x02" * 64)
        digests = first.insert_all(items)
        assert set(digests).isdisjoint(second.insert_all(items))
        parsed = BloomFilter.from_bytes(first.to_bytes(), context=b"\x01" * 64)
        assert parsed.probe_all(items) == list(zip(digests, items))

    def test_salt_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(8, 2, b"\x00" * 32)
        with pytest.raises(ValueError):
            BloomFilter(8, 1, b"short")
        with pytest.raises(ValueError):
            BloomFilter(8, 0)
        assert BloomFilter(8, 2, b"\x00" * 16).salt == b"\x00" * 16

    def test_largest_all_ones_filter_holds_its_bytes_alone(self):
        # a parsed filter keeps its wire bits; a probe expands them to one
        # byte per bit only for the length of the call
        beta = DEFAULT_BETA_CAP
        header = bytes([BF_WIRE_VERSION]) + beta.to_bytes(4, "big") + bytes([10]) + bytes(16)
        items = [secrets.token_bytes(32) for _ in range(1500)]
        blob = header + b"\xff" * (beta // 8)
        tracemalloc.start()
        try:
            bf = BloomFilter.from_bytes(blob, context=b"\x01" * 64)
            hits = bf.probe_all(items)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(bf.bits) == beta // 8
        assert len(hits) == len(items)
        assert peak <= 1.5 * beta

    def test_known_answer_vector(self):
        # inputs and outputs fixed when this filter version was current
        # (tests/make_vectors.py); a byte change without a version
        # bump fails here
        path = Path(__file__).parent / "vectors" / f"filter_v{BF_WIRE_VERSION}.json"
        vector = json.loads(path.read_text())
        salt, context = bytes.fromhex(vector["salt"]), bytes.fromhex(vector["context"])
        items = [bytes.fromhex(item) for item in vector["items"]]
        probes = [bytes.fromhex(item) for item in vector["probes"]]
        bf = BloomFilter(vector["beta"], vector["gamma"], salt, context=context)
        bf.insert_all(items)
        assert bf.to_bytes().hex() == vector["filter"]
        parsed = BloomFilter.from_bytes(bytes.fromhex(vector["filter"]), context=context)
        position = {item: i for i, item in enumerate(probes)}
        for probed in (bf, parsed):
            assert [position[item] for _, item in probed.probe_all(probes)] == vector["hits"]


def _public(key: X25519PrivateKey) -> bytes:
    return key.public_key().public_bytes_raw()


class TestKeyAgreement:
    def test_shared_key_symmetry(self):
        a, b = X25519PrivateKey.generate(), X25519PrivateKey.generate()
        binding = _public(a) + _public(b)
        ka = establish_session(a, _public(b), binding)
        kb = establish_session(b, _public(a), binding)
        assert ka == kb
        assert len(ka) == 32

    def test_initiator_ordering_matters(self):
        a, b = X25519PrivateKey.generate(), X25519PrivateKey.generate()
        as_initiator = establish_session(a, _public(b), _public(a) + _public(b))
        as_responder = establish_session(a, _public(b), _public(b) + _public(a))
        assert as_initiator != as_responder

    def test_degenerate_peer_key_rejected(self):
        a = X25519PrivateKey.generate()
        with pytest.raises(ValueError):
            establish_session(a, bytes(32), _public(a) + bytes(32))

    def test_wrong_length_peer_key_rejected(self):
        a = X25519PrivateKey.generate()
        with pytest.raises(ValueError):
            establish_session(a, b"\x01" * 31, _public(a) + b"\x01" * 31)

    def test_matches_independent_x25519(self):
        # fixed RFC 7748 test keys, crossed through both endpoints
        a_priv = bytes.fromhex(
            "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"
        )
        b_priv = bytes.fromhex(
            "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"
        )
        base = (9).to_bytes(32, "little")
        a_public = pure_x25519(a_priv, base)
        b_public = pure_x25519(b_priv, base)
        agreement = pure_x25519(a_priv, b_public)
        expected = hashlib.sha256(b"\x03" + agreement + a_public + b_public).digest()
        binding = a_public + b_public
        a = X25519PrivateKey.from_private_bytes(a_priv)
        b = X25519PrivateKey.from_private_bytes(b_priv)
        assert establish_session(a, b_public, binding) == expected
        assert establish_session(b, a_public, binding) == expected
