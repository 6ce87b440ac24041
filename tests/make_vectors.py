"""Write the known-answer vectors for the current filter, download,
snapshot and frame versions.

Run by hand, from the repository root, only when one of these formats
changes and its version is bumped:

    PYTHONPATH=src python tests/make_vectors.py

CI runs it too, and fails if it changes or adds any file under
``tests/vectors/``.

It writes, under ``tests/vectors/``:

* ``filter_v<BF_WIRE_VERSION>.json``: the inputs (salt, context, beta,
  gamma, the inserted items and a probe list) and the outputs the
  current code gives for them (the ``to_bytes()`` hex and the indices of
  the probes that ``probe_all`` reports as hits);
* ``download_v<DOWNLOAD_FORMAT>.json``: a download's ``r_u`` and runs
  and the body that ``DistributionResult.to_json`` writes for them;
* ``snapshot_v<SNAPSHOT_VERSION>.json``: friend lists, timed uploads, an
  expiry time and the ersatz capabilities the store mints, and the file
  that ``save_snapshot`` writes for the store they build
  (``helpers.replay_snapshot_vector``);
* ``frame_v<WIRE_VERSION>.json``: both peers' ids, input values and
  X25519 private keys, the session id, the filter salt and the
  false-positive target, then every frame of the session they run, in
  the order sent, and the intersection both sides end with
  (``helpers.replay_frame_vector``).

Every input comes from a generator seeded by the format's name and
version, so a rerun rewrites the same bytes.  Older files stay
committed; ``test_crypto.py``, ``test_store.py`` and ``test_psi.py``
check the current ones.
"""

import json
import random
import tempfile
from pathlib import Path
from unittest import mock

from sopal.crypto import BF_WIRE_VERSION, BloomFilter
from sopal.psi import WIRE_VERSION
from sopal.store import DOWNLOAD_FORMAT, SNAPSHOT_VERSION, DistributionResult

from helpers import replay_frame_vector, replay_snapshot_vector

ITEMS = 1000
FRESH_PROBES = 1000
# About 1% false positives at 1000 items, and more than 8 index
# functions, so the digest is longer than a challenge tag.
BETA = 9973
GAMMA = 10
CAP_BYTES = 32
# json.dumps escapes it to \u00eb, \u5c71\u7530 and a surrogate pair
NON_ASCII_ID = "Zoë 山田 \U0001f642"
FRAME_FP_TARGET = 0.1


def filter_vector() -> dict:
    rng = random.Random(f"sopal filter v{BF_WIRE_VERSION}")
    salt = rng.randbytes(16)
    context = rng.randbytes(64)
    distinct = set()
    while len(distinct) < ITEMS + FRESH_PROBES:
        distinct.add(rng.randbytes(rng.randrange(33)))
    pool = sorted(distinct)
    rng.shuffle(pool)
    items, fresh = pool[:ITEMS], pool[ITEMS:]
    probes = items[::5] + fresh
    rng.shuffle(probes)

    bf = BloomFilter(BETA, GAMMA, salt, context=context)
    bf.insert_all(items)
    position = {item: i for i, item in enumerate(probes)}
    hits = [position[item] for _, item in bf.probe_all(probes)]
    return {
        "version": BF_WIRE_VERSION,
        "salt": salt.hex(),
        "context": context.hex(),
        "beta": BETA,
        "gamma": GAMMA,
        "items": [item.hex() for item in items],
        "probes": [item.hex() for item in probes],
        "filter": bf.to_bytes().hex(),
        "hits": hits,
    }


def download_vector() -> dict:
    """Four id-bearing entries, one of them with a non-ASCII id, and runs
    at degrees 1 and 2, held sorted as ``CapabilityStore.distribute``
    returns them."""
    rng = random.Random(f"sopal download v{DOWNLOAD_FORMAT}")
    ids = [f"u{rng.randrange(10**6)}" for _ in range(3)] + [NON_ASCII_ID]
    r_u = sorted((uid, rng.randbytes(CAP_BYTES)) for uid in ids)
    runs = tuple(
        (degree, tuple(sorted(rng.randbytes(CAP_BYTES) for _ in range(n))))
        for degree, n in [(1, 3), (2, 4)]
    )
    body = DistributionResult(tuple(r_u), runs).to_json()
    return {
        "version": DOWNLOAD_FORMAT,
        "r_u": [[uid, cap.hex()] for uid, cap in r_u],
        "runs": [[degree, [value.hex() for value in values]] for degree, values in runs],
        "body": body,
    }


def snapshot_vector() -> dict:
    """Members A, C, D and the non-ASCII id upload in turn; at the expiry
    A's record is stale and B's ersatz record has a fresh value, while the
    later members' records and E's ersatz record are current."""
    rng = random.Random(f"sopal snapshot v{SNAPSHOT_VERSION}")
    zoe = NON_ASCII_ID
    vector = {
        "version": SNAPSHOT_VERSION,
        "default_ttl_s": 3600.0,
        "friends": {
            "A": ["B", "C"],
            "C": ["A", "D", zoe],
            "D": ["B", "C", "E"],
            zoe: ["C"],
        },
        "uploads": [
            [1700000000.0, "A", rng.randbytes(CAP_BYTES).hex()],
            [1700001800.5, "C", rng.randbytes(CAP_BYTES).hex()],
            [1700002400.25, "D", rng.randbytes(CAP_BYTES).hex()],
            [1700003000.75, zoe, rng.randbytes(CAP_BYTES).hex()],
        ],
        "expire_at": 1700003600.5,
    }
    minted = []

    def new_capability() -> bytes:
        minted.append(rng.randbytes(CAP_BYTES))
        return minted[-1]

    with mock.patch("sopal.store.new_capability", new_capability):
        store = replay_snapshot_vector(vector)
    vector["ersatz_caps"] = [cap.hex() for cap in minted]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "snapshot.json"
        store.save_snapshot(path)
        vector["snapshot"] = path.read_text(encoding="utf-8")
    return vector


def frame_vector() -> dict:
    """Initiator A and responder B, who share five values, as two members
    with a common friend C share what C's capability gives them; each
    holds values the other does not.  The loose false-positive target
    makes the filter pass some of B's other values, which the response
    round then removes."""
    rng = random.Random(f"sopal frame v{WIRE_VERSION}")
    shared = [rng.randbytes(CAP_BYTES) for _ in range(5)]
    vector = {"version": WIRE_VERSION, "fp_target": FRAME_FP_TARGET}
    for role, uid, own in [("initiator", "A", 35), ("responder", "B", 25)]:
        values = shared + [rng.randbytes(CAP_BYTES) for _ in range(own)]
        rng.shuffle(values)
        vector[role] = {
            "id": uid,
            "values": [value.hex() for value in values],
            "private_key": rng.randbytes(32).hex(),
        }
    vector["session_id"] = rng.randbytes(16).hex()
    vector["filter_salt"] = rng.randbytes(16).hex()
    sessions, frames = replay_frame_vector(vector)
    vector["frames"] = [
        {"sender": sender, "type": frame[1], "frame": frame.hex()} for sender, frame in frames
    ]
    vector["intersection"] = sorted(value.hex() for value in shared)
    assert all(session.matched_values == set(shared) for session in sessions.values())
    return vector


def main() -> None:
    out = Path(__file__).parent / "vectors"
    out.mkdir(exist_ok=True)
    for name, make in [
        (f"filter_v{BF_WIRE_VERSION}", filter_vector),
        (f"download_v{DOWNLOAD_FORMAT}", download_vector),
        (f"snapshot_v{SNAPSHOT_VERSION}", snapshot_vector),
        (f"frame_v{WIRE_VERSION}", frame_vector),
    ]:
        path = out / f"{name}.json"
        path.write_text(json.dumps(make(), indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
