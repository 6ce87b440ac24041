"""sopal: privacy-preserving discovery of social path lengths.

The package has three layers:

* primitives: hash chains and salted Bloom filters (:mod:`sopal.crypto`),
  plus the encrypted two-party set intersection protocol with its session
  key agreement (:mod:`sopal.psi`), the one module that needs ``cryptography``;
* the capability service: server-side social graph bookkeeping
  (:mod:`sopal.graph`), the capability store with ersatz nodes and
  higher-order distribution (:mod:`sopal.store`), and its HTTP face
  (:mod:`sopal.server`), none of which imports the client side;
* the client and evaluation tooling: the discovery client with the
  session API and the load probe (:mod:`sopal.client`) and the coverage
  simulator (:mod:`sopal.sim`).
"""

__version__ = "0.1.0"
