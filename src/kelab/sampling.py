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

The seeded stream is read one point at a time, factor by factor: each
factor's 2n normals go straight into its row of a preallocated
(count, 2, n) buffer, then its rho.  ``rng`` is a
``numpy.random.Generator``, whose ``random()`` reads the same double
``uniform()`` does, so the stream is that of a per-point sampler.  Each
factor then builds its directions from its buffers and takes one stacked
``gauge`` call, and the returned points take one stacked ``contains``
check; a point is a stack of one, so the points keep the bits of a
per-point sampler.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import MembershipError
from .domains import PRODUCT, DomainModel, gauge
from .jets import as_integer

DEFAULT_SHRINK = 0.95


def sample_interior(domain: DomainModel, rng, count: int,
                    shrink: float = DEFAULT_SHRINK) -> np.ndarray:
    """``count`` points of shrink * domain, reproducible from ``rng``, as
    the rows of one (count, n) array.

    ``rng`` is a ``numpy.random.Generator`` (``np.random.default_rng``);
    anything else, a legacy ``RandomState`` included, is a TypeError.
    ``count`` is integral (``as_integer``).  All returned points are checked
    in one ``domain.contains(points / shrink)`` call; if any fails,
    ``MembershipError`` names the first failing point.
    """
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy.random.Generator, "
                        f"got {type(rng).__name__}")
    count = as_integer(count, "count")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if not 0.0 < shrink <= 1.0:
        raise ValueError("shrink must be in (0, 1]")
    leaves = _leaves(domain)
    normals = [np.empty((count, 2, f.n)) for f in leaves]
    rho = [0.0] * (count * len(leaves))
    normal, uniform = rng.standard_normal, rng.random
    # the rows in draw order: point by point, factor by factor
    for j, row in enumerate(itertools.chain.from_iterable(zip(*normals))):
        normal(out=row)
        rho[j] = uniform()
    radii = np.reshape(rho, (count, len(leaves))).T
    blocks = [_place(f, g, r, shrink)
              for f, g, r in zip(leaves, normals, radii)]
    points = np.concatenate(blocks, axis=1)
    inside = np.asarray(domain.contains(points / shrink), dtype=bool)
    outside = np.flatnonzero(np.logical_not(inside))
    if outside.size:
        raise MembershipError(
            f"sampled {points[outside[0]]!r} is not in "
            f"{shrink:g} * {domain.label}"
        )
    return points


def _leaves(d: DomainModel) -> list:
    """The non-product factors of ``d``, in coordinate order."""
    if d.kind == PRODUCT:
        return [leaf for f in d.factors for leaf in _leaves(f)]
    return [d]


def _place(d: DomainModel, normals, rho, shrink: float) -> np.ndarray:
    """The (count, d.n) block of one factor's points from its (count, 2, n)
    normals and (count,) radii."""
    u = normals[:, 0] + 1j * normals[:, 1]
    return (shrink * rho)[:, None] * u / gauge(d, u)[:, None]
