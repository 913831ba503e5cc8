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


def _sorted_tuples(n: int, m: int):
    """The sorted m-tuples of range(n) as rows, in lexicographic order,
    which is the order in which they first appear among all m-tuples in
    ``itertools.product`` order; and, for each of those m-tuples, the row
    of its sorted form."""
    tuples = list(itertools.combinations_with_replacement(range(n), m))
    row = {t: i for i, t in enumerate(tuples)}
    return (np.array(tuples, dtype=int).reshape(len(tuples), m),
            np.array([row[tuple(sorted(t))]
                      for t in itertools.product(range(n), repeat=m)]))


def _wirtinger_terms(m: int, l: int):
    """The 2^(m+l) terms of prod_{m} d/dz prod_{l} d/dzbar in real
    partials: per term, which factor takes the imaginary part (1) or the
    real part (0), and its coefficient, in ``itertools.product`` order."""
    picks = list(itertools.product((0, 1), repeat=m + l))
    coeffs = []
    for pick in picks:
        coeff = 1.0 + 0.0j
        for j, imag in enumerate(pick):
            coeff *= (-0.5j if j < m else 0.5j) if imag else 0.5
        coeffs.append(coeff)
    return (np.array(picks, dtype=int).reshape(len(picks), m + l),
            np.array(coeffs))


def _first_seen(keys):
    """The positions of each distinct key's first occurrence, in order of
    appearance, and for every key the number of its value in that order.
    (``np.unique`` would do it, but its first call imports ``numpy.ma``,
    about 20 ms.  The planner sorts only with ``kind="stable"``: each
    sort kernel numpy runs first pages in 128-256 KB of its code.)"""
    by_value = np.argsort(keys, kind="stable")
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[by_value[1:]] != keys[by_value[:-1]]
    first = by_value[new]  # the stable sort keeps first occurrences first
    seen = np.argsort(first, kind="stable")
    number = np.empty_like(seen)
    number[seen] = np.arange(len(seen))
    value = np.empty_like(by_value)
    value[by_value] = np.cumsum(new) - 1
    return first[seen], number[value]


@functools.lru_cache(maxsize=None)
def _stencil_plan(n: int, order: int) -> _StencilPlan:
    # Jet entries are the (sorted a, sorted b) pairs in order of first
    # appearance.  Each expands into real partials, keyed here by their
    # sorted real dimensions (2k is Re z^k, 2k+1 Im z^k) as the digits
    # 1 + dimension in base 2n + 1.
    base, E = 2 * n + 1, 0
    layout, entry, key, coeff = [], [], [], []
    for m, l in bidegrees(order):
        (A, a_row), (B, b_row) = _sorted_tuples(n, m), _sorted_tuples(n, l)
        layout.append(((m, l), (E + a_row[:, None] * len(B) + b_row).ravel()))
        index = np.hstack([np.repeat(A, len(B), 0), np.tile(B, (len(A), 1))])
        picks, pick_coeff = _wirtinger_terms(m, l)
        dims = np.sort(2 * index[:, None, :] + picks, axis=2, kind="stable")
        entry.append(np.repeat(E + np.arange(len(index)), len(picks)))
        key.append(((dims + 1) * base ** np.arange(m + l)).sum(2).ravel())
        coeff.append(np.tile(pick_coeff, len(index)))
        E += len(index)
    entry, key, coeff = map(np.concatenate, (entry, key, coeff))
    # Terms of one entry with equal partials merge, their coefficients
    # summed in order; partials are numbered in order of first appearance.
    term, merged = _first_seen(entry * base ** MAX_ORDER + key)
    c = np.zeros(len(term), complex)
    c.real = np.bincount(merged, coeff.real, len(term))
    c.imag = np.bincount(merged, coeff.imag, len(term))
    first, r = _first_seen(key[term])
    digits = key[term][first, None] // base ** np.arange(MAX_ORDER) % base - 1
    midx = (digits[:, :, None] == np.arange(2 * n)).sum(1)
    R = len(midx)
    # Partials with the same orders along their ascending dimensions (a
    # pattern, coded in base 5) share one product of 1-d stencils.  Each of
    # its terms gives row r at step h (offsets in units of h/2: 2) and then
    # row R + r at step h/2 (unit 1).  A point is keyed by the digits
    # 9 * dimension + offset + 5 of its nonzero offsets (each in -4..4), in
    # ascending dimension, in base 18n + 1.
    nz_row, nz_dim = np.nonzero(midx)
    rank = np.arange(len(nz_row)) - np.searchsorted(nz_row, nz_row)
    pattern = np.bincount(nz_row, midx[nz_row, nz_dim] * 5 ** rank,
                          R).astype(int)
    unit, pbase = np.array([2, 1]), 18 * n + 1
    part, point, row, weight = [], [], [], []
    for p in sorted(set(pattern.tolist())):
        orders = [p // 5 ** j % 5 for j in range(MAX_ORDER) if p // 5 ** j]
        ps = np.flatnonzero(pattern == p)
        dims = nz_dim[np.searchsorted(nz_row, ps)[:, None]
                      + np.arange(len(orders))]
        combos = list(itertools.product(*[_STENCILS[k].items()
                                          for k in orders]))
        shift = np.array([[o for o, _ in combo] for combo in combos],
                         dtype=int).reshape(len(combos), len(orders))
        place = np.where(shift, pbase ** np.cumsum(shift != 0, 1) // pbase, 0)
        pkey = (((9 * dims + 5)[:, None, :] * place).sum(2)[:, :, None]
                + unit * (shift * place).sum(1)[:, None])
        w = np.array([math.prod(c for _, c in combo) for combo in combos],
                     dtype=float)
        part.append(np.broadcast_to(ps[:, None, None], pkey.shape).ravel())
        point.append(pkey.ravel())
        row.append(np.broadcast_to(ps[:, None, None] + R * np.arange(2),
                                   pkey.shape).ravel())
        weight.append(np.broadcast_to(w[:, None], pkey.shape).ravel())
    # Back to partial order; within a partial each pattern kept its order.
    by_part = np.argsort(np.concatenate(part), kind="stable")
    point, rows, weights = (np.concatenate(a)[by_part]
                            for a in (point, row, weight))
    first, cols = _first_seen(point)
    pdigits = point[first, None] // pbase ** np.arange(MAX_ORDER) % pbase - 1
    at, j = np.nonzero(pdigits + 1)
    offsets = np.zeros((len(first), 2 * n))
    offsets[at, pdigits[at, j] // 9] = pdigits[at, j] % 9 - 4
    return _StencilPlan(
        offsets=offsets[:, 0::2] + 1j * offsets[:, 1::2], rows=rows, cols=cols,
        weights=weights, real_order=(digits >= 0).sum(1).astype(float),
        wirtinger=(entry[term], r, c), layout=tuple(layout),
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
