"""Capability server process for the ``refresh`` and ``enroll`` workloads.

Builds the benchmark world, enrolls its members, serves it
through the public ``SopalHttpServer`` (no simulated work, no concurrency
gate) and prints ``ready <port>``.  It then answers one command per stdin
line, each with one stdout line:

* ``digest``: the world digest, so the generator can compare worlds
* ``trace <path>``: wrap the store and hot primitives for the traced run;
  spans go to ``<path>`` on ``stop``
* ``stats``: totals recorded since ``trace``, and the record count
* ``stop``: shut down and exit

Usage: python3 perfbench/server_proc.py [--smoke]
"""

from __future__ import annotations

import argparse
import contextlib
import http.server
import json
import logging
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "sopal" / "__init__.py").is_file():
    sys.exit(f"perfbench: sopal sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import sopal.store  # noqa: E402
from sopal.graph import SocialGraph  # noqa: E402
from sopal.server import MockOsnConnector, SopalHttpServer  # noqa: E402
from sopal.store import CapabilityStore, DistributionResult  # noqa: E402

import world  # noqa: E402
from tracing import Tracer, install, timed  # noqa: E402

# Highest degree any workload downloads at.
SERVER_D_MAX = 2


class TimedStore:
    """The store handed to ``SopalHttpServer`` in the traced run, so that
    store time is measured inside the server process."""

    def __init__(self, store: CapabilityStore, tracer: Tracer):
        self._store = store
        self._tracer = tracer

    def distribute(self, uid, d_max):
        with self._tracer.span(f"store.distribute.d{d_max}"):
            result = self._store.distribute(uid, d_max)
        self._tracer.count("store.distribute_entries", result.total())
        return result

    def upload_capability(self, uid, cap):
        with self._tracer.span("store.upload"):
            self._store.upload_capability(uid, cap)

    def __getattr__(self, name):
        return getattr(self._store, name)


def server_patches(store: CapabilityStore):
    return [
        (sopal.store, "hash_chain",
         timed("crypto.hash_chain", lambda a, r: {"crypto.hash_chain.steps": a[1]})),
        (sopal.store, "new_capability", timed("store.new_capability")),
        (store.graph, "layer_friend_sets",
         timed("graph.layer_friend_sets", lambda a, r: {"graph.layer_nodes": r.total()})),
        (store.graph, "record_member", timed("graph.record_member")),
        (DistributionResult, "to_json",
         timed("store.to_json", lambda a, r: {"store.download_bytes": len(r)})),
        (http.server.BaseHTTPRequestHandler, "send_response",
         timed("server.send_response",
                lambda a, r: {"server.requests": 1, "server.non200": int(a[1] != 200)})),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    logging.getLogger("sopal.server").setLevel(logging.ERROR)

    w = world.make_world(args.smoke)
    connector = MockOsnConnector(w.ground)
    store = CapabilityStore(SocialGraph(), connector)
    w.enroll(store)
    server = SopalHttpServer(
        store, connector, d_max=SERVER_D_MAX, insecure_plaintext=True
    )
    tracer = None
    trace_path = None
    with contextlib.ExitStack() as patches, server:
        print(f"ready {server.address[1]}", flush=True)
        for line in sys.stdin:
            cmd, _, arg = line.strip().partition(" ")
            if cmd == "digest":
                reply = w.digest
            elif cmd == "trace":
                tracer, trace_path = Tracer(), Path(arg)
                install(tracer, patches, server_patches(store))
                server.store = TimedStore(store, tracer)
                reply = "ok"
            elif cmd == "stats":
                totals = dict(tracer.totals) if tracer else {}
                reply = json.dumps({"totals": totals, "records": store.record_count()})
            elif cmd == "stop":
                break
            else:
                reply = json.dumps({"error": f"unknown command {cmd!r}"})
            print(reply, flush=True)
    if tracer is not None:
        tracer.dump(trace_path, {"process": "server", "digest": w.digest})
    return 0


if __name__ == "__main__":
    sys.exit(main())
