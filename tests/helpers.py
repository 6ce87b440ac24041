"""Shared world-building and wire-format utilities for the test suite."""

import datetime
import ipaddress
import random
import secrets
from itertools import groupby
from operator import itemgetter

from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.x509.oid import NameOID

from sopal.client import DiscoveryClient, LocalServerHandle
from sopal.graph import SocialGraph
from sopal.psi import PsiSession
from sopal.server import MockOsnConnector
from sopal.store import CapabilityStore, DistributionResult


def adjacency_from_edges(edges) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def path_adjacency(*nodes) -> dict[str, set[str]]:
    return adjacency_from_edges(zip(nodes, nodes[1:]))


def distribution(r_u, pairs) -> DistributionResult:
    """A download of ``r_u`` and ``(degree, value)`` pairs, the pairs
    grouped in order into maximal runs of one degree."""
    runs = tuple(
        (degree, tuple(map(itemgetter(1), run))) for degree, run in groupby(pairs, itemgetter(0))
    )
    return DistributionResult(r_u=tuple(r_u), runs=runs)


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
    index functions whatever its input size.  ``start_initiator`` builds
    its hello from the constructed session, so the size goes on the wire."""

    class SizedSession(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.declared_beta = beta
            self.declared_gamma = gamma

    return SizedSession


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
