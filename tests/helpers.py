"""Shared world-building and wire-format utilities for the test suite."""

import contextlib
import datetime
import gc
import ipaddress
import random
import secrets
import warnings
from itertools import groupby
from operator import itemgetter
from types import SimpleNamespace
from unittest import mock

from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from cryptography.x509.oid import NameOID

from sopal.client import DiscoveryClient, LocalServerHandle
from sopal.crypto import BloomFilter, bf_hash_count, bf_optimal_size
from sopal.graph import SocialGraph
import sopal.crypto
import sopal.psi
from sopal.psi import PsiSession
from sopal.server import MockOsnConnector
from sopal.sim import CoverageCell, CoverageReport
from sopal.store import CapabilityStore, DistributionResult


def adjacency_from_edges(edges) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def path_adjacency(*nodes) -> dict[str, set[str]]:
    return adjacency_from_edges(zip(nodes, nodes[1:]))


def sized_filter(alpha: int, p: float) -> BloomFilter:
    """An empty filter sized for ``alpha`` items at target rate ``p``."""
    beta = bf_optimal_size(alpha, p)
    return BloomFilter(beta, bf_hash_count(alpha, beta))


def graph_nodes(graph: SocialGraph) -> set[str]:
    """Every node of ``graph``, friendless members included."""
    return set(graph._adj)


def graph_neighbors(graph: SocialGraph, uid: str) -> set[str]:
    return set(graph._adj.get(uid, ()))


def graph_rows(graph: SocialGraph) -> dict[str, list[str]]:
    """Every node's neighbour row as the graph stores it, repeats included."""
    return {uid: list(row) for uid, row in graph._adj.items()}


def report_cell(
    report: CoverageReport, fraction: float, length: int, ersatz: bool
) -> CoverageCell | None:
    """The report's cell for one fraction, path length and ersatz mode."""
    for c in report.cells:
        if (c.fraction, c.length, c.ersatz) == (fraction, length, ersatz):
            return c
    return None


def distribution(r_u, pairs) -> DistributionResult:
    """A download of ``r_u`` and ``(degree, value)`` pairs, the pairs
    grouped in order into maximal runs of one degree."""
    runs = tuple(
        (degree, tuple(map(itemgetter(1), run))) for degree, run in groupby(pairs, itemgetter(0))
    )
    return DistributionResult(r_u=tuple(r_u), runs=runs)


def replay_snapshot_vector(vector) -> CapabilityStore:
    """The store that a snapshot vector's inputs build: each upload at its
    clock time through a stub connector that answers the vector's friend
    lists, then one expiry.  ``sopal.store.new_capability`` must already
    be patched to mint the vector's ersatz capabilities."""
    clock = SimpleNamespace(now=0.0)
    connector = SimpleNamespace(friends_of=vector["friends"].__getitem__)
    store = CapabilityStore(
        connector=connector, default_ttl_s=vector["default_ttl_s"], clock=lambda: clock.now
    )
    for clock.now, uid, cap in vector["uploads"]:
        store.upload_capability(uid, bytes.fromhex(cap))
    clock.now = vector["expire_at"]
    store.expire_and_refresh()
    return store


def replay_frame_vector(vector) -> tuple[dict[str, PsiSession], list[tuple[str, bytes]]]:
    """Run the session that a frame vector's inputs describe: its X25519
    private keys, session id and filter salt stand in for the fresh ones
    that ``sopal.psi`` and ``sopal.crypto`` draw.  Returns both sessions,
    by role, and every frame in the order sent, with its sender's role."""
    keys = iter(
        X25519PrivateKey.from_private_bytes(bytes.fromhex(vector[role]["private_key"]))
        for role in ("initiator", "responder")
    )
    tokens = iter(bytes.fromhex(vector[name]) for name in ("session_id", "filter_salt"))

    def token_bytes(n: int) -> bytes:
        token = next(tokens)
        assert len(token) == n
        return token

    def start(role: str):
        values = [bytes.fromhex(value) for value in vector[role]["values"]]
        start = PsiSession.start_initiator if role == "initiator" else PsiSession.start_responder
        return start(values, vector[role]["id"], fp_target=vector["fp_target"])

    with (
        mock.patch.object(sopal.psi, "X25519PrivateKey", SimpleNamespace(generate=keys.__next__)),
        mock.patch.object(sopal.psi, "secrets", SimpleNamespace(token_bytes=token_bytes)),
        mock.patch.object(sopal.crypto, "secrets", SimpleNamespace(token_bytes=token_bytes)),
    ):
        initiator, frame = start("initiator")
        sessions = {"initiator": initiator, "responder": start("responder")}
        frames, receiver = [("initiator", frame)], "responder"
        while frame is not None:
            frame, _ = sessions[receiver].step(frame)
            if frame is not None:
                frames.append((receiver, frame))
            receiver = "initiator" if receiver == "responder" else "responder"
    assert next(keys, None) is None and next(tokens, None) is None
    return sessions, frames


def assert_anonymous_runs(body) -> None:
    """Every higher-order run of a download body is exactly ``[degree,
    hex]``: an integer and whole 32-byte values, with no id."""
    for run in body["r_h"]:
        assert type(run) is list and len(run) == 2, run
        degree, digits = run
        assert type(degree) is int and type(digits) is str, run
        assert len(digits) % 64 == 0, run


def enrolled_world(
    ground: dict[str, set[str]],
    members,
    *,
    d_max: int = 1,
    ersatz: bool = True,
    clock=None,
):
    """Build a store plus one enrolled, refreshed client per member.

    With ``ersatz`` off the OSN holds only the members, which models the
    pre-ersatz server: once all have enrolled, the store attests exactly
    the member-induced edges.  Returns (store, connector, handle,
    clients-by-uid).
    """
    if not ersatz:
        ground = {u: ground[u] & set(members) for u in members}
    connector = MockOsnConnector(ground)
    kwargs = {} if clock is None else {"clock": clock}
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


class RecordingSession(PsiSession):
    """A PSI session that keeps the plaintext of every encrypted message
    it sends or receives, as (direction, message type, plaintext) triples."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.transcript: list[tuple[str, int, bytes]] = []

    def _seal(self, msg_type, plaintext):
        self.transcript.append(("sent", msg_type, plaintext))
        return super()._seal(msg_type, plaintext)

    def _open(self, msg_type, ciphertext):
        plaintext = super()._open(msg_type, ciphertext)
        self.transcript.append(("received", msg_type, plaintext))
        return plaintext


def sized_session(beta: int, gamma: int, base=PsiSession):
    """A subclass of ``base`` whose filter has ``beta`` bits and ``gamma``
    index functions whatever its input size.  As an initiator it builds
    that filter once the hellos are exchanged, so the size goes on the
    wire in the filter's own header, the one place a peer reads it."""

    class SizedSession(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.filter_beta = beta
            self.filter_gamma = gamma

    return SizedSession


@contextlib.contextmanager
def no_resource_warnings():
    """Fail if a socket (or other resource) left unclosed in the block is
    finalised; earlier garbage is collected first, so it is not counted."""
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def self_signed_cert(directory) -> tuple[str, str]:
    """Write a self-signed certificate for 127.0.0.1 and its key under
    ``directory``; returns (certificate path, key path)."""
    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "127.0.0.1")])
    now = datetime.datetime.now(datetime.timezone.utc)
    cert = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - datetime.timedelta(minutes=5))
        .not_valid_after(now + datetime.timedelta(days=1))
        .add_extension(
            x509.SubjectAlternativeName([x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]),
            critical=False,
        )
        .add_extension(x509.BasicConstraints(ca=True, path_length=None), critical=True)
        .sign(key, hashes.SHA256())
    )
    cert_path, key_path = directory / "cert.pem", directory / "key.pem"
    cert_path.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
    key_path.write_bytes(
        key.private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption(),
        )
    )
    return str(cert_path), str(key_path)
