"""sopal: privacy-preserving discovery of social path lengths.

The package has three layers:

* primitives: hash chains, salted Bloom filters and session key agreement
  (:mod:`sopal.crypto`), plus the encrypted two-party set intersection
  protocol built from them (:mod:`sopal.psi`);
* the capability service: server-side social graph bookkeeping
  (:mod:`sopal.graph`), the capability store with ersatz nodes and
  higher-order distribution (:mod:`sopal.store`), and its HTTP face
  (:mod:`sopal.server`);
* the client and evaluation tooling: the discovery client with the
  session API (:mod:`sopal.client`) and the coverage simulator
  (:mod:`sopal.sim`).
"""

from sopal.client import (
    AnnotatedItem,
    DiscoveryClient,
    DistResult,
    HttpServerHandle,
    LocalServerHandle,
    SessionError,
    build_input_set,
    run_discovery_pair,
)
from sopal.crypto import (
    BloomFilter,
    KeyPair,
    bf_false_positive_estimate,
    bf_hash_count,
    bf_optimal_size,
    establish_session,
    hash_chain,
    new_capability,
)
from sopal.graph import (
    FriendLayers,
    SocialGraph,
    load_edge_list,
    load_membership,
    true_shortest_distance,
)
from sopal.psi import ProtocolError, PsiSession, make_reject
from sopal.server import (
    AuthError,
    ConnectorError,
    MockOsnConnector,
    SopalHttpServer,
    load_probe,
)
from sopal.sim import (
    CoverageReport,
    SimConfig,
    discoverable,
    forest_fire_graph,
    gnp_graph,
    model_protocol_equivalence,
    preferential_attachment_graph,
    run_coverage,
)
from sopal.store import (
    ERSATZ,
    MEMBER,
    CapabilityStore,
    CapRecord,
    DistributionResult,
    NotEnrolledError,
)

__version__ = "0.1.0"

