"""Seeded interior point sampling.

Every bounded kind is circled and convex, so its Minkowski gauge
``domains.gauge`` maps any direction onto its boundary.  A point is one
seeded complex Gaussian direction u in C^n, over the flattened
independent entries (so the symmetric and antisymmetric kinds draw in
their own realization), moved to a seeded radius of shrink * Omega:

    z = shrink * rho * u / gauge(u),        rho uniform in [0, 1).

The distribution is not uniform: rho is uniform, so points are denser
near the centre than under the volume measure.  Products sample factor by
factor and concatenate; half-plane factors draw from a fixed compact
window.  The default shrink of 0.95 keeps finite-difference stencils
strictly interior.
"""

from __future__ import annotations

import numpy as np

from .errors import MembershipError
from .domains import HALFPLANE_PRODUCT, PRODUCT, DomainModel, gauge

DEFAULT_SHRINK = 0.95


def sample_interior(domain: DomainModel, rng, count: int,
                    shrink: float = DEFAULT_SHRINK) -> list[np.ndarray]:
    """``count`` points of shrink * domain, reproducible from ``rng``.

    Each point is checked once with ``domain.contains(z / shrink)`` and a
    point that fails raises ``MembershipError``.
    """
    if not 0.0 < shrink <= 1.0:
        raise ValueError("shrink must be in (0, 1]")
    out = []
    for _ in range(count):
        z = _draw(domain, rng, shrink)
        if not domain.contains(z / shrink):
            raise MembershipError(
                f"sampled {z!r} is not in {shrink:g} * {domain.label}"
            )
        out.append(z)
    return out


def _draw(d: DomainModel, rng, shrink: float) -> np.ndarray:
    if d.kind == PRODUCT:
        return np.concatenate([_draw(f, rng, shrink) for f in d.factors])
    if d.kind == HALFPLANE_PRODUCT:
        re = rng.uniform(-2.5, -0.2, d.n)
        im = rng.uniform(-1.5, 1.5, d.n)
        return re + 1j * im
    re, im = rng.standard_normal((2, d.n))
    u = re + 1j * im
    return shrink * rng.uniform() * u / gauge(d, u)
