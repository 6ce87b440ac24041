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

__version__ = "0.1.0"
