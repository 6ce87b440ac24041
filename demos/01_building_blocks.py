"""A tour of the primitives: capabilities, hash chains, Bloom filters,
and session keys.

Run:  python demos/01_building_blocks.py
"""

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from sopal.crypto import (
    BloomFilter,
    bf_false_positive_estimate,
    bf_optimal_size,
    establish_session,
    hash_chain,
    new_capability,
)

print("=" * 64)
print("1. Bearer capabilities and hash chains")
print("=" * 64)

cap = new_capability()
print(f"fresh 256-bit capability: {cap.hex()[:32]}...")
print(f"degree 1 value:           {hash_chain(cap, 1).hex()[:32]}...")
print(f"degree 2 value:           {hash_chain(cap, 2).hex()[:32]}...")

# anyone holding the degree-1 value can derive degree 2, but never walk back
assert hash_chain(hash_chain(cap, 1), 1) == hash_chain(cap, 2)
print("chain composition holds: h(h(c)) == two-step chain")

print()
print("=" * 64)
print("2. Bloom filter sizing")
print("=" * 64)

for alpha, p in [(100, 0.01), (1000, 0.001), (35000, 0.001)]:
    beta = bf_optimal_size(alpha, p)
    print(f"alpha={alpha:6d} items at target p={p:6}: beta={beta:7d} bits "
          f"({beta // 8 / 1024:.1f} KiB)")

alpha, p = 1000, 0.01
bf = BloomFilter.sized_for(alpha, p)
items = [new_capability() for _ in range(alpha)]
for item in items:
    bf.insert(item)
misses = [new_capability() for _ in range(20000)]
observed = sum(m in bf for m in misses) / len(misses)
estimate = bf_false_positive_estimate(alpha, bf.beta, bf.gamma)
print(f"inserted {alpha} items into beta={bf.beta}, gamma={bf.gamma}")
print(f"no false negatives: {all(item in bf for item in items)}")
print(f"observed false-positive rate {observed:.4f} vs estimate {estimate:.4f}")

print()
print("=" * 64)
print("3. Session key agreement")
print("=" * 64)

alice, bob = X25519PrivateKey.generate(), X25519PrivateKey.generate()
alice_public = alice.public_key().public_bytes_raw()
bob_public = bob.public_key().public_bytes_raw()
# the binding: both public keys, the initiator's (alice's) first
binding = alice_public + bob_public
k_alice = establish_session(alice, bob_public, binding)
k_bob = establish_session(bob, alice_public, binding)
print(f"alice derives {k_alice.hex()[:32]}...")
print(f"bob   derives {k_bob.hex()[:32]}...")
assert k_alice == k_bob
print("both sides hold the same session key")
