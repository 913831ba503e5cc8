"""Numerical constructions and checks for Kaehler-Einstein potentials on
model domains: gradient-length identities, the minimal-constant bound, the
Siegel-pullback constant, holomorphic vector fields from constant-length
potentials, and the radially reduced Monge-Ampere solver.
"""

from . import chengyau, domains, hermgeo, jets, potentials, sampling, suites, vfield
from .domains import (
    DomainModel,
    ball,
    bergman_potential,
    cayley,
    generic_norm,
    halfplane_kernel,
    ke_potential,
    polydisc,
    product,
    siegel_log_kernel_on_polydisc_slice,
    type_i,
    type_ii,
    type_iii,
    type_iv,
)
from .field import PotentialField
from .jets import Jet, fd_jet
from .potentials import (
    ConstantLengthCertificate,
    ball_minimality_report,
    canonical_potential,
    certify_constant_length,
    kai_ohsawa_constant,
    product_potential,
    rescaled_ball_potential,
)
from .suites import VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "ConstantLengthCertificate",
    "DomainModel",
    "Jet",
    "PotentialField",
    "VerificationReport",
    "ball",
    "ball_minimality_report",
    "bergman_potential",
    "canonical_potential",
    "cayley",
    "certify_constant_length",
    "chengyau",
    "domains",
    "fd_jet",
    "generic_norm",
    "halfplane_kernel",
    "hermgeo",
    "jets",
    "kai_ohsawa_constant",
    "ke_potential",
    "polydisc",
    "potentials",
    "product",
    "product_potential",
    "rescaled_ball_potential",
    "run_suite",
    "sampling",
    "siegel_log_kernel_on_polydisc_slice",
    "suites",
    "type_i",
    "type_ii",
    "type_iii",
    "type_iv",
    "vfield",
]
