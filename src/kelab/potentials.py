"""Constructions of the specific potentials the package studies.

* the canonical potential (1/K) log det g of a Kaehler-Einstein metric,
  the rescaled kernel potential plus one constant,
* the rescaled ball potential with identically constant gradient length,
* sums over product domains,
* the pulled-back Siegel log-kernel behind the Kai-Ohsawa constant, one
  formula, the kernel potential plus c log|N(z, e)|^2, on every kind,
* constant-gradient-length certificates (the Kai-Ohsawa constant is one)
  and the ball-minimality table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import hermgeo
from .domains import (
    PRODUCT,
    DomainModel,
    ball,
    bergman_potential,
    check_ricci_constant,
    ke_potential,
    norm_form,
    product,
    product_parts,
    tripotent,
)
from .errors import (
    CertificateError,
    NormalizationError,
    UnsupportedDomainError,
)
from .field import BallLog, BoundaryLog, Constant, PotentialField
from .jets import as_integer, as_point
from .sampling import sample_interior


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class ConstantLengthCertificate:
    """Evidence that a potential's gradient length is a constant.

    ``constant`` is the value at the domain's center; ``max_deviation`` the
    worst |length - constant| over the sampled interior points.  A valid
    certificate also respects the Einstein lower bound (n+1)/K.
    """

    label: str
    constant: float
    max_deviation: float
    sample_count: int
    tolerance: float
    seed: int

    @property
    def ok(self) -> bool:
        return self.max_deviation <= self.tolerance

    def require(self):
        if not self.ok:
            raise CertificateError(
                f"{self.label}: gradient length deviates by "
                f"{self.max_deviation:.3e} > {self.tolerance:.1e}"
            )


def certify_constant_length(p: PotentialField, samples: int = 200,
                            seed: int = 0, tolerance: float = 1e-8
                            ) -> ConstantLengthCertificate:
    """Sample the gradient length at ``samples`` seeded points (the
    sampler's default shrink) and certify its constancy.

    The certified constant must also satisfy the lower bound (n+1)/K that
    holds for every constant-length potential of a metric with Ricci
    constant K, to a relative 1e-9.  Under 1 sample or a non-finite
    tolerance is a ValueError.
    """
    if samples < 1:
        raise ValueError(f"sample count must be at least 1, got {samples}")
    if not np.isfinite(tolerance):
        raise ValueError(f"tolerance must be finite, got {tolerance}")
    d = p.domain
    points = sample_interior(d, np.random.default_rng(seed), samples)
    # |dphi|_half^2 at the origin and the points, from one stacked frame
    lengths = hermgeo.gradient_length_sq(hermgeo.metric_from_potential(
        p, np.concatenate([np.zeros((1, d.n), dtype=complex), points]),
        order=2))
    constant = float(lengths[0])
    # np.max keeps a NaN deviation, so the certificate fails
    worst = float(np.max(np.abs(lengths[1:] - constant), initial=0.0))
    cert = ConstantLengthCertificate(
        label=p.label, constant=constant, max_deviation=worst,
        sample_count=samples, tolerance=tolerance, seed=seed,
    )
    bound = (d.n + 1) / p.ricci_constant
    # a relative margin, so the bound means the same at every K
    if cert.ok and constant < bound * (1 - 1e-9):
        raise CertificateError(
            f"{p.label}: certified constant {constant:.12g} violates the "
            f"lower bound (n+1)/K = {bound:.12g}"
        )
    return cert


# ---------------------------------------------------------------------------
# canonical potential

def canonical_potential(d: DomainModel, K: float) -> PotentialField:
    """(1/K) log det g for the Einstein metric with Ricci constant K on a
    catalog domain, in closed form.

    Ric = -K g says log det g - K phi is pluriharmonic; for the kernel
    potential, which has no ``BoundaryLog`` part, it is a constant kappa.
    ``ke_potential(d, K)`` vanishes at the origin, so the result is its
    parts plus the constant kappa/K, with kappa read from ``log_det_g``
    of one order-2 frame at the origin.
    """
    base = ke_potential(d, K)
    kappa = hermgeo.metric_from_potential(base, np.zeros(d.n),
                                          order=2).log_det_g
    return PotentialField(
        domain=d,
        ricci_constant=K,
        parts=base.parts + [(float(kappa) / K, Constant())],
        label=f"canonical[{d.label},K={K:g}]",
    )


# ---------------------------------------------------------------------------
# constant-gradient-length potentials on the ball

def rescaled_ball_potential(n: int, K: float,
                            boundary_point=None) -> PotentialField:
    """((n+1)/K) (-log(1 - |z|^2) + 2 log|1 - <z, q>|), q a unit vector.

    The pluriharmonic log term re-centers the potential at the boundary
    point q; the result is again a potential of the Ricci -K metric and
    its gradient length is identically (n+1)/K.  Default q = (-1, 0, ...),
    whose log term is the ball's ``_siegel_log``, built once per n.
    ``n`` is an integer (``as_integer``).
    """
    n = as_integer(n, "n")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    check_ricci_constant(K)
    d = ball(n)
    # 2 log|N(z, q)| with N(z, q) = 1 - <z, q> on the ball
    if boundary_point is None:
        boundary = _siegel_log(d)
    else:
        q = as_point(boundary_point)
        if len(q) != n or abs(np.linalg.norm(q) - 1.0) > 1e-12:
            raise ValueError("boundary point must be a unit vector in C^n")
        boundary = BoundaryLog(norm_form(d), q)
    scale = (n + 1) / K
    parts = [(scale, BallLog(1.0)), (scale, boundary)]
    return PotentialField(
        domain=d,
        ricci_constant=K,
        parts=parts,
        label=f"rescaled-ball[n={n},K={K:g}]",
    )


def product_potential(p1: PotentialField, p2: PotentialField) -> PotentialField:
    """pi_1^* phi_1 + pi_2^* phi_2 on the product domain.

    Requires matching Ricci constants; the product metric is then Einstein
    with the same constant and gradient lengths add pointwise.
    """
    if not np.isclose(p1.ricci_constant, p2.ricci_constant, rtol=0, atol=1e-12):
        raise NormalizationError(
            f"Ricci constants differ: {p1.ricci_constant} vs {p2.ricci_constant}"
        )
    if p1.parts is None or p2.parts is None:
        raise UnsupportedDomainError(
            "product potentials need analytic summands on both factors"
        )
    return PotentialField(
        domain=product(p1.domain, p2.domain),
        ricci_constant=p1.ricci_constant,
        parts=product_parts([p1, p2]),
        label=f"({p1.label}) (+) ({p2.label})",
    )


# ---------------------------------------------------------------------------
# the Kai-Ohsawa constant

def kai_ohsawa_potential(d: DomainModel) -> PotentialField:
    """log K + c log|N(z, e)|^2, the Siegel log-kernel pulled back by the
    Cayley map.

    The kernel potential plus c * 2 log|N(z, e)| from the kind's
    ``norm_form`` at e = -``tripotent(d)`` (N(z, e) = prod_a (1 + z^a) on
    the polydisc).  The log term is pluriharmonic, so this is again a
    potential of the Bergman metric (Ricci constant 1), with the constant
    gradient length rank*c; a product takes the sum over its factors of both.
    """
    if d.kind == PRODUCT:
        parts = product_parts([kai_ohsawa_potential(f) for f in d.factors])
    else:
        parts = bergman_potential(d).parts + [(d.c, _siegel_log(d))]
    return PotentialField(
        domain=d, ricci_constant=1.0, parts=parts,
        label=f"siegel-pullback[{d.label}]",
    )


@functools.lru_cache(maxsize=None)
def _siegel_log(d: DomainModel) -> BoundaryLog:
    """2 log|N(z, e)| at e = -tripotent(d), built once per kind."""
    return BoundaryLog(norm_form(d), -tripotent(d))


_KAI_OHSAWA_SPOT_CHECKS = 20
_KAI_OHSAWA_TOL = 1e-6


def kai_ohsawa_constant(d: DomainModel, seed: int = 0) -> float:
    """The constant gradient length of the pulled-back Siegel potential:
    its value at the origin, certified to 1e-6 at 20 seeded interior
    points (``certify_constant_length``; ``CertificateError`` if it
    deviates)."""
    cert = certify_constant_length(kai_ohsawa_potential(d),
                                   samples=_KAI_OHSAWA_SPOT_CHECKS, seed=seed,
                                   tolerance=_KAI_OHSAWA_TOL)
    cert.require()
    return cert.constant


# ---------------------------------------------------------------------------
# ball minimality

@dataclass(frozen=True)
class MinimalityRow:
    label: str
    n: int
    rank: int
    c: float | None  # None for a product of factors with different c
    rc_over_K: float
    bound_over_K: float  # (n+1)/K
    strict: bool
    lower_bound_only: bool

    def as_dict(self):
        return {
            "kind": self.label,
            "n": self.n,
            "rank": self.rank,
            "c": self.c,
            "rc_over_K": self.rc_over_K,
            "(n+1)_over_K": self.bound_over_K,
            "strict": self.strict,
            "lower_bound_only": self.lower_bound_only,
        }


def ball_minimality_report(entries, K: float = 1.0) -> list[MinimalityRow]:
    """Compare rank*c against n+1 (both rescaled by K) across the catalog.

    ``entries`` may mix DomainModel instances and InvariantsRecord data
    rows (the exceptional domains).  A product's rank*c is the sum over
    its factors, and its c is None when they differ.  The records are
    flagged ``lower_bound_only``: with no Siegel pullback computed, rank*c
    only bounds their constant gradient length from below.  ``strict``
    reads the integer gap rank*c - (n+1), so it does not depend on K.
    """
    check_ricci_constant(K)
    rows = []
    for entry in entries:
        rows.append(
            MinimalityRow(
                label=entry.label, n=entry.n, rank=entry.rank, c=entry.c,
                rc_over_K=entry.rc / K, bound_over_K=(entry.n + 1) / K,
                strict=entry.gap > 0,
                lower_bound_only=not isinstance(entry, DomainModel),
            )
        )
    return rows
