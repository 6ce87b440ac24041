"""Shared world-building and wire-format utilities for the test suite."""

import random
import secrets

from sopal.client import DiscoveryClient, LocalServerHandle
from sopal.graph import SocialGraph
from sopal.server import MockOsnConnector
from sopal.store import CapabilityStore


def adjacency_from_edges(edges) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def path_adjacency(*nodes) -> dict[str, set[str]]:
    return adjacency_from_edges(zip(nodes, nodes[1:]))


def enrolled_world(
    ground: dict[str, set[str]],
    members,
    *,
    d_max: int = 1,
    ersatz: bool = True,
    clock=None,
):
    """Build a store plus one enrolled, refreshed client per member.

    Returns (store, connector, handle, clients-by-uid).
    """
    connector = MockOsnConnector(ground)
    kwargs = {"ersatz_enabled": ersatz}
    if clock is not None:
        kwargs["clock"] = clock
    store = CapabilityStore(SocialGraph(), connector, **kwargs)
    handle = LocalServerHandle(store, connector)
    clients = {}
    for uid in sorted(members):
        client = DiscoveryClient(uid, handle, d_max=d_max)
        client.renew_capability()
        clients[uid] = client
    for client in clients.values():
        client.update_capabilities()
    return store, connector, handle, clients


def random_member_subset(adjacency, fraction: float, seed) -> set[str]:
    nodes = sorted(adjacency)
    rng = random.Random(seed)
    size = max(2, round(fraction * len(nodes)))
    return set(rng.sample(nodes, min(size, len(nodes))))


def v1_filter_blob(beta: int, gamma: int) -> bytes:
    """An empty filter in the retired version-1 layout: version byte, beta,
    gamma, then one 16-byte salt per index function before the bits."""
    return (
        b"\x01"
        + beta.to_bytes(4, "big")
        + bytes([gamma])
        + secrets.token_bytes(16 * gamma)
        + bytes((beta + 7) // 8)
    )
