"""Mixed Wirtinger derivatives of real scalar functions on C^n.

A ``Jet`` holds the value and the partial derivatives

    d(a, b) = (prod_{alpha in a} d/dz^alpha) (prod_{beta in b} d/dzbar^beta) f

of the bidegrees (m, l) = (|a|, |b|) with m + l <= order (at most 4) and
2 >= m >= l (``bidegrees``), as one dense array per bidegree:
``tensors[(m, l)][..., a1..am, b1..bl]``.  A frame reads no more: the
metric (1, 1), the Christoffels (2, 1), the curvature (2, 2) and the
unbarred Hessian (2, 0), which only the covariant Hessian and the
curvature read, both from order 3 up; so an order-2 jet leaves (2, 0)
out.  The function is real, so the (l, m) tensor is the conjugate
transpose of the (m, l) one, its mirror, and is not stored.  A jet of a
single point has arrays of shape (n,)*(m+l); a jet of a stack of N
points carries a leading axis of N.

``fd_jet`` is the finite-difference oracle, valid for any smooth real
function: tensor-product central stencils in the underlying real
coordinates with one Richardson extrapolation (steps h and h/2).  It reads
only values of the function, which maps an (M, n) stack of points to M
values; the stencils of a whole stack of base points go to it in one
call.  Closed-form jets live with the potentials' parts, and
``field.PotentialField.jet`` is the one place that picks between the two
paths.

Wirtinger convention: d/dz = (d/dx - i d/dy)/2 and d/dzbar = (d/dx + i d/dy)/2.
Each tensor is symmetric within its holomorphic and within its
antiholomorphic indices.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, UnsupportedOrderError

MAX_ORDER = 4

#: default finite-difference steps by derivative order.  Orders 1-2 use a
#: step large enough that rounding noise (eps*|f|/h^2 ~ 1e-9) stays well
#: under the 1e-6 oracle tolerance while h^4 truncation remains ~1e-7.
DEFAULT_STEP_LOW = 5e-4
DEFAULT_STEP_HIGH = 1e-2


def default_step(order: int) -> float:
    return DEFAULT_STEP_LOW if order <= 2 else DEFAULT_STEP_HIGH


def as_points(coords) -> np.ndarray:
    """A point as a 1-d complex vector, or a stack of N points as (N, n);
    a scalar is a one-coordinate point, and more axes a ValueError."""
    z = np.asarray(coords, dtype=complex)
    if z.ndim == 0:
        z = z.reshape(1)
    if z.ndim > 2:
        raise ValueError(f"points must be a point (n,) or a stack (N, n), "
                         f"got shape {z.shape}")
    if z.shape[-1] < 1:
        raise ValueError(f"points need at least one coordinate, got {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError(f"non-finite coordinates: {z}")
    return z


def as_point(coords) -> np.ndarray:
    """``as_points`` of a single point: a stack is a ValueError."""
    z = as_points(coords)
    if z.ndim != 1:
        raise ValueError(f"a point has shape (n,), got {z.shape}")
    return z


def as_integer(value, name: str = "value") -> int:
    """``value`` as an int: 3, 3.0 and "3" pass; 2.9, None and a bool raise
    ValueError, naming ``name``, instead of being truncated or read as 1."""
    try:
        if not isinstance(value, bool) and (isinstance(value, str)
                                            or int(value) == value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@functools.lru_cache(maxsize=None)
def bidegrees(order: int) -> tuple:
    """The (m, l) with m + l <= order and 2 >= m >= l that a frame of this
    order reads, the (l, m) tensors being their mirrors; (2, 0) only from
    order 3 up, where the covariant Hessian and the curvature read it.
    ``field._emit_log`` builds them from these alone, since each of its
    terms keeps the first holomorphic slot."""
    return tuple((m, k - m) for k in range(order + 1)
                 for m in range(min(k, 2), (k + 1) // 2 - 1, -1)
                 if order > 2 or (m, k - m) != (2, 0))


@dataclass(frozen=True)
class Jet:
    """Value plus mixed Wirtinger derivatives of a real scalar, dense."""

    point: np.ndarray
    order: int
    tensors: dict

    def at(self, i: int) -> "Jet":
        """The single-point jet of row ``i`` of a stacked jet."""
        return Jet(self.point[i], self.order,
                   {k: t[i] for k, t in self.tensors.items()})

    def _tensor(self, key):
        """tensors[key], or UnsupportedOrderError naming the bidegree and
        the order it needs when this jet's order leaves it out."""
        try:
            return self.tensors[key]
        except KeyError:
            need = next(k for k in range(MAX_ORDER + 1) if key in bidegrees(k))
            raise UnsupportedOrderError(
                f"an order-{self.order} jet holds no {key} derivatives; "
                f"they need order >= {need}") from None

    def value(self):
        v = np.real(self.tensors[(0, 0)])
        return float(v) if v.ndim == 0 else v

    def holo_gradient(self) -> np.ndarray:
        """(d f / dz^alpha), shape [..., n]."""
        return self._tensor((1, 0))

    def mixed_hessian(self) -> np.ndarray:
        """H[a, b] = d^2 f / dz^a dzbar^b (the metric candidate)."""
        return self._tensor((1, 1))

    def pure_hessian(self) -> np.ndarray:
        """Unbarred second derivatives d^2 f / dz^a dz^b (order >= 3)."""
        return self._tensor((2, 0))

    def third_tensor(self) -> np.ndarray:
        """T[a, b, m] = d^3 f / dz^a dz^b dzbar^m (source of Christoffels)."""
        return self._tensor((2, 1))

    def conjugation_defect(self) -> float:
        """max |d(a, b) - conj(d(b, a))| over the (m, m) tensors, their
        Hermitian defect; zero for derivatives of real functions, NaN
        where a tensor holds one."""
        n = self.point.shape[-1]
        worst = []
        for (m, l), t in self.tensors.items():
            if m == l:  # as n^m x n^m matrices, whose mirror is t^H
                t = t.reshape(-1, n ** m, n ** m)
                worst.append(np.max(np.abs(t - np.conj(t.swapaxes(1, 2)))))
        return float(np.max(worst))


# 1-d central stencils with O(h^2) truncation, as {offset: coefficient};
# the h^{-order} factor is applied separately.
_STENCILS = {
    0: {0: 1.0},
    1: {-1: -0.5, 1: 0.5},
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
    4: {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0},
}


def _wirtinger_expansion(a, b, n):
    """Expand prod d/dz^a prod d/dzbar^b into real partials.

    Returns {real multi-index: complex coefficient}; real dimension 2k is
    Re z^k and 2k+1 is Im z^k.
    """
    factors = [((2 * i, 0.5), (2 * i + 1, -0.5j)) for i in a]
    factors += [((2 * i, 0.5), (2 * i + 1, 0.5j)) for i in b]
    terms = {}
    for combo in itertools.product(*factors):
        midx = [0] * (2 * n)
        coeff = 1.0 + 0.0j
        for dim, c in combo:
            midx[dim] += 1
            coeff *= c
        key = tuple(midx)
        terms[key] = terms.get(key, 0.0 + 0.0j) + coeff
    return terms


@dataclass(frozen=True)
class _StencilPlan:
    """The finite-difference stencil of one (n, order), planned once.

    ``offsets[p]`` is a stencil point in units of h/2.  Row r < R of
    (``rows``, ``cols``, ``weights``) is real partial r at step h, row R + r
    the same partial at step h/2, each a sum of exact 1-d stencil
    coefficients times f-values; ``real_order[r]`` is its order k, scaled
    by step^-k.  Jet entry e is the sum of ``wirtinger`` coefficients
    times the Richardson-combined partials, and ``layout`` lists, per
    bidegree, the entry of every tensor element.
    """

    offsets: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    real_order: np.ndarray
    wirtinger: tuple  # (entry index, partial index, complex coefficient)
    layout: tuple


@functools.lru_cache(maxsize=None)
def _stencil_plan(n: int, order: int) -> _StencilPlan:
    entries, layout = {}, []
    for m, l in bidegrees(order):
        index = []
        for a in itertools.product(range(n), repeat=m):
            for b in itertools.product(range(n), repeat=l):
                key = (tuple(sorted(a)), tuple(sorted(b)))
                index.append(entries.setdefault(key, len(entries)))
        layout.append(((m, l), np.array(index)))
    partials, wirtinger = {}, []
    for (a, b), e in entries.items():
        for midx, c in _wirtinger_expansion(a, b, n).items():
            wirtinger.append((e, partials.setdefault(midx, len(partials)), c))
    points, stencil = {}, []
    for midx, r in partials.items():
        dims = [d for d in range(2 * n) if midx[d] > 0]
        for combo in itertools.product(*[_STENCILS[midx[d]].items() for d in dims]):
            coeff = math.prod(c for _, c in combo)
            for row, unit in ((r, 2), (len(partials) + r, 1)):
                off = [0] * (2 * n)
                for d, (o, _) in zip(dims, combo):
                    off[d] = unit * o
                stencil.append((row, points.setdefault(tuple(off), len(points)),
                                coeff))
    offsets = np.array(list(points), dtype=float).reshape(len(points), 2 * n)
    rows, cols, weights = (np.array(col) for col in zip(*stencil))
    e, r, c = (np.array(col) for col in zip(*wirtinger))
    return _StencilPlan(
        offsets=offsets[:, 0::2] + 1j * offsets[:, 1::2], rows=rows, cols=cols,
        weights=weights, real_order=np.array([sum(m) for m in partials], float),
        wirtinger=(e, r, c), layout=tuple(layout),
    )


def _row_sums(bins, weights, size):
    """``np.bincount(bins, w, size)`` of every row w of ``weights``, in one
    call: row i's bins are offset by i * size, so each row sums in the
    order it would alone."""
    N = len(weights)
    offset = size * np.arange(N)[:, None]
    return np.bincount((bins + offset).ravel(), weights.ravel(),
                       N * size).reshape(N, size)


def fd_jet(f, z, order: int, step: float | None = None) -> Jet:
    """Finite-difference jet of a real scalar function.

    Central differences at steps h and h/2 combined by one Richardson
    extrapolation, giving O(h^4) truncation on smooth functions.  ``z`` is
    a point (n,) or a stack of N points (N, n); ``f`` maps an (M, n) stack
    to M values and is called once, on the stencils of all N points.  The
    stencil of each (n, order) is planned once, and a stacked jet equals
    its points' jets bit for bit.
    """
    z = as_points(z)
    order = as_integer(order, "order")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {order}")
    h = default_step(order) if step is None else float(step)
    if not 0 < h < math.inf:
        raise ValueError(f"step must be positive and finite, got {h}")
    Z = z.reshape(-1, z.shape[-1])
    N, n = Z.shape
    plan = _stencil_plan(n, order)
    P = len(plan.offsets)
    stencil = (Z[:, None, :] + (h / 2) * plan.offsets).reshape(N * P, n)
    values = np.asarray(f(stencil), dtype=float).reshape(N * P)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise EvaluationError(f"non-finite value at stencil point "
                              f"{stencil[bad[0]]!r} (base {Z[bad[0] // P]!r})")
    R = len(plan.real_order)
    values = values.reshape(N, P)
    acc = _row_sums(plan.rows, plan.weights * values[:, plan.cols], 2 * R)
    coarse = acc[:, :R] * h ** -plan.real_order
    fine = acc[:, R:] * (h / 2) ** -plan.real_order
    # Richardson: leading error of every stencil above is O(h^2).
    partials = (4.0 * fine - coarse) / 3.0
    e, r, c = plan.wirtinger
    E = e.max() + 1
    flat = (_row_sums(e, c.real * partials[:, r], E)
            + 1j * _row_sums(e, c.imag * partials[:, r], E))
    tensors = {(m, l): flat[:, index].reshape((N,) + (n,) * (m + l))
               for (m, l), index in plan.layout}
    jet = Jet(point=Z, order=order, tensors=tensors)
    return jet if z.ndim == 2 else jet.at(0)
