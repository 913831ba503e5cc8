"""Seeded interior point sampling.

Every bounded kind is circled and convex, so its Minkowski gauge
``domains.gauge`` maps any direction onto its boundary.  A point is one
seeded complex Gaussian direction u in C^n, over the flattened
independent entries (so the symmetric and antisymmetric kinds draw in
their own realization), moved to a seeded radius of shrink * Omega:

    z = shrink * rho * u / gauge(u),        rho uniform in [0, 1).

The distribution is not uniform: rho is uniform, so points are denser
near the centre than under the volume measure.  Products sample factor by
factor and concatenate.  The default shrink of 0.95 keeps
finite-difference stencils strictly interior.

The seeded stream is read one point at a time, factor by factor.  Each
factor then builds its directions from one stacked array of its normals
and takes one stacked ``gauge`` call, and the returned points take one
stacked ``contains`` check; a point is a stack of one, so the points
keep the bits of a per-point sampler.
"""

from __future__ import annotations

import numpy as np

from .errors import MembershipError
from .domains import PRODUCT, DomainModel, gauge
from .jets import as_integer

DEFAULT_SHRINK = 0.95


def sample_interior(domain: DomainModel, rng, count: int,
                    shrink: float = DEFAULT_SHRINK) -> list[np.ndarray]:
    """``count`` points of shrink * domain, reproducible from ``rng``.

    ``count`` is integral (``as_integer``).  All returned points are checked
    in one ``domain.contains(points / shrink)`` call; if any fails,
    ``MembershipError`` names the first failing point.
    """
    count = as_integer(count, "count")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if not 0.0 < shrink <= 1.0:
        raise ValueError("shrink must be in (0, 1]")
    leaves = _leaves(domain)
    draws = [[_draw(f, rng) for f in leaves] for _ in range(count)]
    blocks = [_place(f, [row[i] for row in draws], shrink)
              for i, f in enumerate(leaves)]
    points = np.concatenate(blocks, axis=1)
    inside = np.asarray(domain.contains(points / shrink), dtype=bool)
    outside = np.flatnonzero(np.logical_not(inside))
    if outside.size:
        raise MembershipError(
            f"sampled {points[outside[0]]!r} is not in "
            f"{shrink:g} * {domain.label}"
        )
    return list(points)


def _leaves(d: DomainModel) -> list:
    """The non-product factors of ``d``, in coordinate order."""
    if d.kind == PRODUCT:
        return [leaf for f in d.factors for leaf in _leaves(f)]
    return [d]


def _draw(d: DomainModel, rng):
    """One point's draws on a non-product kind: (its normals, rho)."""
    return rng.standard_normal((2, d.n)), rng.uniform()


def _place(d: DomainModel, draws: list, shrink: float) -> np.ndarray:
    """The (count, d.n) block of one factor's points from its draws."""
    normals = np.array([g for g, _ in draws]).reshape(-1, 2, d.n)
    u = normals[:, 0] + 1j * normals[:, 1]
    rho = np.array([rho for _, rho in draws])
    return (shrink * rho)[:, None] * u / gauge(d, u)[:, None]
