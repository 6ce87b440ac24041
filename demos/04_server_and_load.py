"""The capability service over HTTP, plus a quick saturation probe.

Starts the server in-process (plaintext test mode), drives the client
through the real HTTP routes, then sweeps request rates to show the
response-rate plateau and latency growth past the saturation point.
The store is wrapped so that each download carries a modelled backend
cost, since the real one is too fast to saturate at these rates.

Run:  python demos/04_server_and_load.py
"""

import threading
import time

from sopal.client import DiscoveryClient, HttpServerHandle, run_discovery_pair
from sopal.server import MockOsnConnector, SopalHttpServer, load_probe
from sopal.sim import gnp_graph
from sopal.store import CapabilityStore

print("building a 60-node world and starting the HTTP server")
ground = gnp_graph(60, 0.08, seed=7)
connector = MockOsnConnector(ground)
store = CapabilityStore(connector=connector)


class SlowStore:
    """The store behind a backend that spends 0.02 s on each download and
    runs two at a time, which makes the saturation knee visible at desk
    scale; everything else goes straight to the real store."""

    def __init__(self, store):
        self._store = store
        self._workers = threading.Semaphore(2)

    def distribute(self, uid, d_max):
        with self._workers:
            time.sleep(0.02)
            return self._store.distribute(uid, d_max)

    def __getattr__(self, name):
        return getattr(self._store, name)


server = SopalHttpServer(SlowStore(store), connector, insecure_plaintext=True)
server.start()
print(f"server listening on {server.url}")

try:
    a = DiscoveryClient("0", HttpServerHandle(server.url))
    b = DiscoveryClient("1", HttpServerHandle(server.url))
    for client in (a, b):
        client.renew_capability()
        client.update_capabilities()
    ra, rb = run_discovery_pair(a, b)
    print(f"discovery over HTTP-backed clients: Dist = {ra.dist}")

    print()
    print("sweeping request rates (simulated capacity is about 100/s):")
    report = load_probe(server.url, "mock:0", rates=[5, 50, 250], duration_s=2)
    print(report.to_text())
finally:
    server.stop()
