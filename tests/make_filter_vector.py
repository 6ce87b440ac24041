"""Write the filter known-answer vector for the current BF_WIRE_VERSION.

Run by hand, from the repository root, only when the filter format
changes and its version byte is bumped:

    PYTHONPATH=src python tests/make_filter_vector.py

It writes ``tests/vectors/filter_v<version>.json``: the inputs (salt,
context, beta, gamma, the inserted items and a probe list) and the
outputs the current code gives for them (the ``to_bytes()`` hex and the
indices of the probes that ``probe_all`` reports as hits).  Older files
stay committed; ``test_crypto.py`` checks the current one.
"""

import json
import random
from pathlib import Path

from sopal.crypto import BF_WIRE_VERSION, BloomFilter

ITEMS = 1000
FRESH_PROBES = 1000
# About 1% false positives at 1000 items, and more than 8 index
# functions, so the digest is longer than a challenge tag.
BETA = 9973
GAMMA = 10


def main() -> None:
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

    vector = {
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
    out = Path(__file__).parent / "vectors" / f"filter_v{BF_WIRE_VERSION}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(vector, indent=1) + "\n")
    print(f"wrote {out}: {len(hits)} of {len(probes)} probes hit")


if __name__ == "__main__":
    main()
