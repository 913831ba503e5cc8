"""Numerical constructions and checks for Kaehler-Einstein potentials on
model domains: gradient-length identities, the minimal-constant bound, the
Siegel-pullback constant, holomorphic vector fields from constant-length
potentials, and the radially reduced Monge-Ampere solver.

Every name lives at its module path (``kelab.domains.ball``,
``kelab.suites.run_suite``); the package binds its modules and nothing
more, apart from ``fd_jet`` and ``__version__``.  Imported before numpy,
kelab starts OpenBLAS on one thread unless ``OPENBLAS_NUM_THREADS`` is set.
"""

import os as _os

# one BLAS thread: numpy imports in 68 ms, not 143, on 2 vCPUs; n <= 15 gains no more
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import chengyau, domains, hermgeo, jets, potentials, sampling, suites, vfield
# perfbench's tracer test checks that patching jets.fd_jet reaches this alias
from .jets import fd_jet

__version__ = "0.1.0"
