"""End-to-end path discovery on a small social graph, including the
ersatz bootstrapping story.

The graph (only alice, bob, and dave enroll at first):

    alice -- carol -- bob -- dave -- erin
       \\______ frank ______/

Run:  python demos/02_path_discovery.py
"""

from sopal.client import DiscoveryClient, LocalServerHandle, run_discovery_pair
from sopal.server import MockOsnConnector
from sopal.store import CapabilityStore

GROUND = {
    "alice": {"carol", "frank"},
    "carol": {"alice", "bob"},
    "bob": {"carol", "dave", "frank"},
    "dave": {"bob", "erin"},
    "erin": {"dave"},
    "frank": {"alice", "bob"},
}

connector = MockOsnConnector(GROUND)
store = CapabilityStore(connector=connector)
handle = LocalServerHandle(store, connector)


def enroll(uid):
    client = DiscoveryClient(uid, handle)
    client.renew_capability()
    return client


def refresh(*clients):
    for client in clients:
        client.update_capabilities()


def show(label, a, b):
    ra, rb = run_discovery_pair(a, b)
    a.end_session(b.uid)
    b.end_session(a.uid)
    assert ra.dist == rb.dist
    dist = ra.dist if ra.dist is not None else "not found"
    extra = ""
    if ra.common_friend_ids:
        extra = f"  common friends: {', '.join(sorted(ra.common_friend_ids))}"
    print(f"{label:34s} -> Dist = {dist}{extra}")


print("enrolling alice, bob, dave (carol, erin, frank stay outside)")
alice, bob, dave = enroll("alice"), enroll("bob"), enroll("dave")
refresh(alice, bob, dave)

print()
print("the server created ersatz records for the missing friends:")
for uid in sorted(GROUND):
    rec = store.record_of(uid)
    print(f"  {uid:6s} {rec.kind}")

print()
show("alice <-> bob (via carol or frank)", alice, bob)
show("alice <-> dave (3 hops)", alice, dave)
show("bob   <-> dave (friends)", bob, dave)

print()
print("carol enrolls; her own capability replaces the ersatz value")
carol = enroll("carol")
refresh(alice, bob, carol)
show("alice <-> bob (carol now enrolled)", alice, bob)
show("alice <-> carol (friends)", alice, carol)

print()
print("note: identities only ever surface for paths of length <= 2;")
print("the 3-hop alice <-> dave run names nobody on the path.")
