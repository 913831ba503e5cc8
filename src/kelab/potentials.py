"""Constructions of the specific potentials the package studies.

* the canonical potential (1/K) log det g of a Kaehler-Einstein metric,
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
from .field import BallLog, BoundaryLog, PotentialField, SquaredNorm
from .jets import as_point
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
                            seed: int = 0, tolerance: float = 1e-8,
                            shrink: float = 0.95) -> ConstantLengthCertificate:
    """Sample the gradient length and certify its constancy.

    The certified constant must also satisfy the lower bound (n+1)/K that
    holds for every constant-length potential of a metric with Ricci
    constant K; fewer than 1 sample is a ValueError.
    """
    if samples < 1:
        raise ValueError(f"sample count must be at least 1, got {samples}")
    d = p.domain
    points = sample_interior(d, np.random.default_rng(seed), samples,
                             shrink=shrink)
    # |dphi|_half^2 at the origin and the points, from one stacked frame
    lengths = hermgeo.gradient_length_sq(hermgeo.metric_from_potential(
        p, np.array([np.zeros(d.n, dtype=complex), *points]), order=2))
    constant = float(lengths[0])
    # np.max keeps a NaN deviation, so the certificate fails
    worst = float(np.max(np.abs(lengths[1:] - constant), initial=0.0))
    cert = ConstantLengthCertificate(
        label=p.label, constant=constant, max_deviation=worst,
        sample_count=samples, tolerance=tolerance, seed=seed,
    )
    bound = (d.n + 1) / p.ricci_constant
    if cert.ok and constant < bound - 1e-9:
        raise CertificateError(
            f"{p.label}: certified constant {constant:.12f} violates the "
            f"lower bound (n+1)/K = {bound:.12f}"
        )
    return cert


# ---------------------------------------------------------------------------
# canonical potential

_CANONICAL_CHECK_SAMPLES = 4
_CANONICAL_CHECK_TOL = 1e-4


def canonical_potential(source, K: float, validate: bool = True,
                        seed: int = 0) -> PotentialField:
    """(1/K) log det g for the Einstein metric with Ricci constant K.

    ``source`` is a domain from the catalog (its kernel potential is
    rescaled to Ricci constant K first) or an explicit ``PotentialField``
    whose metric is taken as is.  The result is evaluated honestly from
    second derivatives of the base potential; it is itself a potential of
    the same metric only when that metric is Einstein, which is validated
    on a few seeded interior points unless ``validate=False``.
    """
    if K <= 0:
        raise ValueError("Ricci constant must be positive")
    if isinstance(source, DomainModel):
        base = ke_potential(source, K)
    else:
        base = source

    d = base.domain

    def fn(z):
        frame = hermgeo.metric_from_potential(base, z, order=2)
        return frame.log_det_g / K

    p = PotentialField(
        domain=d,
        ricci_constant=K,
        parts=None,
        label=f"canonical[{d.label},K={K:g}]",
        fn=fn,
    )
    if validate:
        _validate_canonical(p, base, K, seed)
    return p


def _validate_canonical(p, base, K, seed):
    """dd^c of the candidate must reproduce the base metric."""
    rng = np.random.default_rng(seed)
    zs = np.array(sample_interior(base.domain, rng, _CANONICAL_CHECK_SAMPLES,
                                  shrink=0.6))
    g_base = hermgeo.metric_from_potential(base, zs, order=2).g
    g_cand = p.jet(zs, 2).mixed_hessian()
    worst = np.max(np.abs(g_cand - g_base), axis=(1, 2))
    bad = np.flatnonzero(worst > _CANONICAL_CHECK_TOL)
    if bad.size:
        i = bad[0]
        raise NormalizationError(
            f"(1/K) log det g is not a potential of the given metric "
            f"(residual {worst[i]:.3e} at {zs[i]!r}); the metric is not "
            f"Einstein with Ricci constant {K:g}"
        )


# ---------------------------------------------------------------------------
# constant-gradient-length potentials on the ball

def rescaled_ball_potential(n: int, K: float,
                            boundary_point=None) -> PotentialField:
    """((n+1)/K) (-log(1 - |z|^2) + 2 log|1 - <z, q>|), q a unit vector.

    The pluriharmonic log term re-centers the potential at the boundary
    point q; the result is again a potential of the Ricci -K metric and
    its gradient length is identically (n+1)/K.  Default q = (-1, 0, ...).
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if K <= 0:
        raise ValueError("Ricci constant must be positive")
    q = as_point(-tripotent(ball(n)) if boundary_point is None
                 else boundary_point)
    if len(q) != n or abs(np.linalg.norm(q) - 1.0) > 1e-12:
        raise ValueError("boundary point must be a unit vector in C^n")
    scale = (n + 1) / K
    # 2 log|N(z, q)| with N(z, q) = 1 - <z, q> on the ball
    parts = [(scale, BallLog(1.0)),
             (scale, BoundaryLog(norm_form(ball(n)), q))]
    return PotentialField(
        domain=ball(n),
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


def quadratic_fixture(n: int) -> PotentialField:
    """|z|^2 on the unit ball: the flat test metric (Ricci = 0)."""
    return PotentialField(
        domain=ball(n),
        ricci_constant=np.nan,
        parts=[(1.0, SquaredNorm())],
        label=f"flat-quadratic[n={n}]",
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


def kai_ohsawa_constant(d: DomainModel, spot_checks: int = 20,
                        seed: int = 0, tol: float = 1e-6) -> float:
    """The constant gradient length of the pulled-back Siegel potential:
    its value at the origin, certified at ``spot_checks`` interior points
    (``certify_constant_length``; ``CertificateError`` if it deviates)."""
    cert = certify_constant_length(kai_ohsawa_potential(d),
                                   samples=spot_checks, seed=seed,
                                   tolerance=tol)
    cert.require()
    return cert.constant


# ---------------------------------------------------------------------------
# ball minimality

@dataclass(frozen=True)
class MinimalityRow:
    label: str
    n: int
    rank: int
    c: float
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
    rows (the exceptional domains).  The records are flagged
    ``lower_bound_only``: with no Siegel pullback computed, rank*c only
    bounds their constant gradient length from below.
    """
    if K <= 0:
        raise ValueError("Ricci constant must be positive")
    rows = []
    for entry in entries:
        computable = isinstance(entry, DomainModel)
        rec = entry.invariants() if computable else entry
        rc = rec.rc / K
        bound = (rec.n + 1) / K
        rows.append(
            MinimalityRow(
                label=rec.label, n=rec.n, rank=rec.rank, c=rec.c,
                rc_over_K=rc, bound_over_K=bound,
                strict=rc > bound + 1e-12,
                lower_bound_only=not computable,
            )
        )
    return rows
