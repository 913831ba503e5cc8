"""Scalar potentials with closed-form derivative access.

A ``PotentialField`` is a real scalar function on a domain.  Its
``parts``, a list of (coefficient, part) summands whose mixed Wirtinger
derivatives are known exactly to order ``jets.MAX_ORDER``, pick the
derivative path: with parts, ``PotentialField.jet`` is the closed form;
without, it is ``fd_jet`` of ``fn``, which maps an (M, n) stack of points
to M values.  A part maps a stack Z of N points, shape (N, n), and an
order to its dense jet tensors
{(m, l): array of shape (N,) + (n,)*(m+l)} over ``jets.bidegrees``
(m + l <= order and 2 >= m >= l, (2, 0) from order 3: what a frame
reads), leaving out the bidegrees that vanish identically; the potential
is real, so no part nor jet holds the (l, m) tensors, the mirrors of
these.  The parts implemented here cover every potential the package
constructs:

* ``BallLog``           -- -A log(1 - |z|^2) on the unit ball
                           (the ball kernel and its Einstein rescalings)
* ``Constant``          -- 1, the one way to add a constant to a potential
* ``SquaredNorm``       -- |z|^2 (the flat test quadratic)
* ``HermitianNormPart`` -- -kappa log N for a signed Hermitian form
                           N = sum_j w_j |h_j(z)|^2 in holomorphic polynomials
                           (the polydisc and type I-IV generic norms)
* ``BoundaryLog``       -- 2 log|N(z, e)| for the same form at a point e,
                           holomorphic in z (the Siegel term on every kind)

A log part takes the log of a function N whose jet is finite; one
recursion, ``_log_jet``, serves all three: differentiating N dF = dN
gives each tensor of F = log N from N's tensors and lower ones of F: 7
products for (2, 2), the one bidegree of order 4, and 3 for (2, 1).  It
needs N's tensors to (2, 2) only, so the two form parts share one
contraction, ``_contract``, for the derivatives of the h_j to the top
holomorphic degree of the jet's bidegrees: 2 from order 3, 1 at order 2.
The ball is the rank-1 form too, but its own part is cheaper.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, UnsupportedOrderError
from .jets import (MAX_ORDER, Jet, as_integer, as_points, bidegrees,
                   fd_jet, mirror)

def _check(ok, Z, what, values):
    """Raise EvaluationError naming the first point of Z where ``ok`` fails."""
    if not ok.all():
        i = np.flatnonzero(~ok)[0]
        raise EvaluationError(f"{what} {values[i]} at z={Z[i]!r}")


def _complete(total, order, N, n):
    """The jet tensors of N points over ``bidegrees`` from the parts' sum.

    Absent tensors are zero.  Entries equal by symmetry are copied from the
    one with sorted indices, and (m, m) tensors are made Hermitian, so both
    symmetries hold exactly.
    """
    out = {}
    for key, shape, index, hermitian in _complete_plan(order, n):
        t = total.get(key)
        if t is None:
            t = np.zeros((N,) + shape, dtype=complex)
        if index is not None:
            t = t.reshape(N, -1).take(index, axis=1).reshape(t.shape)
        if hermitian:
            t = 0.5 * (t + mirror(t, *key))
        out[key] = t
    return out


@functools.lru_cache(maxsize=None)
def _complete_plan(order, n):
    """Per bidegree (m, l) of ``bidegrees(order)``: the key, the shape
    after the point axis, the ``_sorted_index`` copying its symmetric
    entries (None below degree 2 on both sides) and whether it is (m, m)."""
    return tuple(((m, l), (n,) * (m + l),
                  _sorted_index(n, m, l) if m > 1 or l > 1 else None,
                  0 < m == l) for m, l in bidegrees(order))


@functools.lru_cache(maxsize=None)
def _sorted_index(n, m, l):
    """For each element of an (m, l) tensor, the flat index of the element
    with its holomorphic and antiholomorphic indices sorted."""
    shape = (n,) * (m + l)
    ix = np.indices(shape).reshape(m + l, -1)
    ix = np.concatenate([np.sort(ix[:m], axis=0), np.sort(ix[m:], axis=0)])
    return np.ravel_multi_index(ix, shape)


# ---------------------------------------------------------------------------
# the log-jet recursion

@functools.lru_cache(maxsize=None)
def _log_terms(m, l, n):
    """The terms of ``_log_jet`` at bidegree (m, l) on C^n: per nonempty
    subset B of the slots after the first (holomorphic 0..m-1, then
    antiholomorphic), the bidegrees of B and of the slots left, and the
    shapes that broadcast their tensors onto their slots."""
    terms = []
    for size in range(1, m + l):
        for B in itertools.combinations(range(1, m + l), size):
            b = (sum(i < m for i in B), sum(i >= m for i in B))
            terms.append((b, (m - b[0], l - b[1]),
                          (-1,) + tuple(n if i in B else 1
                                        for i in range(m + l)),
                          (-1,) + tuple(1 if i in B else n
                                        for i in range(m + l))))
    return tuple(terms)


def _either(jet, key):
    """jet[key], or for l > m the mirror of jet[(l, m)], which is then
    kept in ``jet``; None where both are absent."""
    if key not in jet:
        m, l = key
        if m >= l or (l, m) not in jet:
            return None
        jet[key] = mirror(jet[(l, m)], l, m)
    return jet[key]


def _log_jet(inner, order, n, scale):
    """Jet (m >= l half, no value) of scale * log N from a nonzero N's jet.

    ``inner`` maps bidegrees to N's tensors (leading axis N or 1); None or
    absent ones vanish, but an absent (l, m) with l > m mirrors (m, l), as
    a real N's does.  With s0 the first holomorphic slot of a slot set S,
    differentiating N d_s0 F = d_s0 N over the other slots of S gives

        N F_S = N_S - sum over nonempty B in S - {s0} of N_B F_(S - B),

    so each bidegree of order k takes 2^(k-1) - 1 products of tensors
    already known: 7 for (2, 2).  S - B keeps s0, so F's tensors stay
    within ``bidegrees`` and F_(1, 2), a mirror like N's l > m ones.
    """
    N0 = inner[(0, 0)]
    inner = dict(inner)
    out = {}
    for key, terms, lead in _log_plan(order, n):
        total = scale * inner[key] if key in inner else None
        for b, rest, b_shape, rest_shape in terms:
            nb, f = _either(inner, b), _either(out, rest)
            if nb is None or f is None:
                continue
            term = nb.reshape(b_shape) * f.reshape(rest_shape)
            total = -term if total is None else total - term
        if total is not None:
            out[key] = total / N0.reshape(lead)
    return {key: t for key, t in out.items() if key[0] >= key[1]}


@functools.lru_cache(maxsize=None)
def _log_plan(order, n):
    """Per bidegree (m, l) of ``bidegrees(order)`` but (0, 0): the key, its
    ``_log_terms`` and the shape that puts N's value on its point axis."""
    return tuple(((m, l), _log_terms(m, l, n), (-1,) + (1,) * (m + l))
                 for m, l in bidegrees(order) if m + l)


# ---------------------------------------------------------------------------
# the unit ball's log, the constant and the flat quadratic

class BallLog:
    """-A log(1 - |z|^2) on the unit ball, the ball kernel's log.

    1 - |z|^2 has first derivatives -zbar_a / -z_b and the constant mixed
    second derivative -delta_ab, and ``_log_jet`` takes its log.
    """

    def __init__(self, amplitude: float):
        self.amplitude = float(amplitude)

    def jet(self, Z, order):
        s = (np.abs(Z) ** 2).sum(axis=1)
        _check(s < 1.0, Z, "ball log evaluated at |z|^2 >= 1: |z|^2 =", s)
        inner = {(0, 0): 1.0 - s, (1, 0): -np.conj(Z),
                 (1, 1): -_eye(Z.shape[1])}
        out = _log_jet(inner, order, Z.shape[1], -self.amplitude)
        out[(0, 0)] = -self.amplitude * np.log1p(-s)
        return out


class Constant:
    """1: its value, with every derivative absent (``_complete`` fills
    zeros).  A coefficient c on it adds the constant c to a potential."""

    def jet(self, Z, order):
        return {(0, 0): np.ones(len(Z))}


class SquaredNorm:
    """|z|^2, the flat quadratic: its own jet, zbar_a / z_b and delta_ab."""

    def jet(self, Z, order):
        N, n = Z.shape
        out = {(0, 0): (np.abs(Z) ** 2).sum(axis=1), (1, 0): np.conj(Z),
               (1, 1): np.broadcast_to(_eye(n), (N, n, n))}
        return {key: t for key, t in out.items() if sum(key) <= order}


@functools.lru_cache(maxsize=None)
def _eye(n):
    """The identity of C^n as one (1, n, n) row."""
    return np.eye(n)[None]


# ---------------------------------------------------------------------------
# signed Hermitian forms

@functools.lru_cache(maxsize=None)
def _top_degree(order):
    """The top holomorphic degree m of ``bidegrees(order)``: the form
    parts contract their polynomials that far (1 at order 2)."""
    return max(m for m, _ in bidegrees(order))


def _contract(form, Z, order):
    """H[m] = d^m h of the form's degrees k >= m, stacked, (N, J_(k>=m), n^m),
    at each row of Z for m <= order (and m <= the form's top degree)."""
    N, n = Z.shape
    # contraction i takes z / i, so after i of them t = D.z^i / i!; the
    # first takes z itself, as z / 1 is z bit for bit
    column = Z[:, :, None]
    steps = [column] + [column / i for i in range(2, len(form))]
    dh = [[] for _ in range(min(order, len(form) - 1) + 1)]
    for k, (_, D) in enumerate(form):
        t = D.reshape(1, len(D), -1)
        if N > 1:
            t = t.repeat(N, axis=0)
        for i in range(k + 1):
            if i:
                # row by row, so a stacked point gets its lone bits
                t = t.reshape(N, -1, n) @ steps[i - 1]
            if k - i < len(dh):
                dh[k - i].append(t.reshape(N, len(D), -1))
    return [np.concatenate(hs, axis=1) for hs in dh]


class HermitianNormPart:
    """-kappa log N for the signed Hermitian form N = sum_j w_j |h_j(z)|^2.

    ``form`` holds, for each degree k = 0..r, the weight w_k of its
    homogeneous polynomials h_j and their constant k-th derivatives
    D_k[j] = d^k h_j, shape (J_k,) + (n,)*k, so h_j = D_k[j].z^k / k!
    (``domains.norm_form``).  The h_j are holomorphic, so N's jet is
    N_(m,l) = sum_j w_j d^m h_j (x) conj(d^l h_j), one batched product per
    bidegree, and ``_log_jet`` takes its log.  ``domains`` shares one
    part per kind, so its arrays are read-only.

    Membership needs no gauge.  With P_k the sum of |h_j|^2 over degree
    k, q(s) = N(sqrt(s) z, sqrt(s) zbar) = sum_k w_k P_k s^k is
    prod_i (1 - s sigma_i^2) for the spectral values sigma_i of z, with
    real roots; so z is inside exactly when q(1 - v) has a positive
    constant term and no negative coefficient.
    """

    def __init__(self, form, kappa):
        self.form = form
        self.kappa = float(kappa)
        r = len(form) - 1
        # q(1 - v) = sum_m v^m sum_k (-1)^m binom(k, m) w_k P_k
        self.taylor = np.array([[(-1) ** m * math.comb(k, m) * w
                                 for k, (w, _) in enumerate(form)]
                                for m in range(r + 1)])
        weights = np.concatenate([np.full(len(D), w) for w, D in form])
        self.start = np.cumsum([0] + [len(D) for _, D in form])
        for a in (self.taylor, weights, self.start):
            a.setflags(write=False)
        # per degree m >= 1: the weights of the degrees k >= m, as a column
        self.weights = tuple(weights[first:, None]
                             for first in self.start[:-1])

    def _derivatives(self, Z, order):
        """H from ``_contract`` and q(1 - v)'s checked coefficients."""
        H = _contract(self.form, Z, order)
        P = np.add.reduceat(H[0].real[..., 0] ** 2 + H[0].imag[..., 0] ** 2,
                            self.start[:-1], axis=1)
        coeffs = (P[:, None, :] * self.taylor).sum(axis=2)
        _check((coeffs[:, 0] > 0) & (coeffs[:, 1:] >= 0).all(axis=1), Z,
               "outside the domain: q(1 - v) has coefficients", coeffs)
        return H, coeffs

    def norm(self, Z):
        """N at each row of an (N, n) stack inside the domain."""
        return self._derivatives(Z, 0)[1][:, 0]

    def jet(self, Z, order):
        N, n = Z.shape
        H, coeffs = self._derivatives(Z, _top_degree(order))
        inner = {(0, 0): coeffs[:, 0]}
        conj = [np.conj(h) for h in H[:order // 2 + 1]]  # l <= order - m
        for m in range(1, len(H)):
            first = self.start[m]
            A = (H[m] * self.weights[m]).swapaxes(1, 2)
            for l in range(min(m, order - m) + 1):
                B = conj[l][:, first - self.start[l]:]
                inner[(m, l)] = (A @ B).reshape((N,) + (n,) * (m + l))
        out = _log_jet(inner, order, n, -self.kappa)
        out[(0, 0)] = -self.kappa * np.log(coeffs[:, 0])
        return out


class BoundaryLog:
    """2 log|N(z, e)| for a signed Hermitian form N and a point e.

    N(z, e) = sum_j w_j conj(h_j(e)) h_j(z) is holomorphic in z, with
    derivatives v . H[m] over ``_contract``'s H, v = w conj(h(e)); v is
    folded into the form, one read-only flat tensor per degree (a part
    can be shared, as ``potentials._siegel_log`` does).  ``_log_jet`` takes
    the log with the antiholomorphic inner tensors absent, so only the
    (m, 0) tensors, those of log N(., e), come out: it is pluriharmonic,
    and past order 2 its jet has nothing more.
    """

    def __init__(self, form, e):
        start = np.cumsum([0] + [len(D) for _, D in form])
        v = np.conj(_contract(form, np.array([e], complex), 0)[0][0, :, 0])
        self.form = tuple((1.0, w * (v[a:b] @ D.reshape(b - a, -1))[None])
                          for (w, D), a, b in zip(form, start, start[1:]))
        for _, t in self.form:
            t.setflags(write=False)

    def jet(self, Z, order):
        N, n = Z.shape
        H = [h.sum(axis=1)
             for h in _contract(self.form, Z, _top_degree(order))]
        value = H[0][:, 0]
        _check(np.abs(value) > 0, Z, "log|N(z, e)| singular: N =", value)
        inner = {(0, 0): value}
        for m in range(1, len(H)):
            inner[(m, 0)] = H[m].reshape((N,) + (n,) * m)
            inner[(0, m)] = None  # holomorphic: not the mirror of (m, 0)
        out = _log_jet(inner, order, n, 1.0)
        out[(0, 0)] = 2.0 * np.log(np.abs(value))
        return out


# ---------------------------------------------------------------------------
# the potential field itself

@dataclass
class PotentialField:
    """A real potential on a domain, with analytic or FD derivatives.

    ``parts`` is a list of (coefficient, part) summands defining both the
    value and the closed-form jet to order ``MAX_ORDER``; FD-only
    potentials set ``parts=None`` and provide ``fn``.  ``ricci_constant``
    is the K > 0 the associated metric is normalized to (Ric = -K g);
    constructions that have no Einstein normalization use nan.  ``fn``
    maps an (M, n) stack to M values.  Values and jets are taken at a
    point (n,) or at a stack of points (N, n).
    """

    domain: object
    ricci_constant: float
    parts: list | None
    label: str
    fn: object = None

    def _sum(self, Z, order):
        total = {(0, 0): np.zeros(len(Z))}
        for c, part in self.parts:
            for key, t in part.jet(Z, order).items():
                total[key] = total[key] + c * t if key in total else c * t
        return total

    def __call__(self, z):
        z = as_points(z)
        Z = z.reshape(-1, z.shape[-1])
        if self.fn is not None:
            values = np.asarray(self.fn(Z), dtype=float).reshape(len(Z))
        else:
            values = self._sum(Z, 0)[(0, 0)]
        return float(values[0]) if z.ndim == 1 else values

    def analytic_jet(self, z, order: int) -> Jet:
        order = as_integer(order, "order")
        if self.parts is None or not 0 <= order <= MAX_ORDER:
            raise UnsupportedOrderError(
                f"{self.label}: no closed-form derivatives at order {order}"
            )
        z = as_points(z)
        Z = z.reshape(-1, z.shape[-1])
        tensors = _complete(self._sum(Z, order), order, *Z.shape)
        jet = Jet(point=Z, order=order, tensors=tensors)
        return jet if z.ndim == 2 else jet.at(0)

    def jet(self, z, order: int) -> Jet:
        """The closed form when ``parts`` is set, else ``fd_jet`` of
        ``fn``, which takes orders 1..MAX_ORDER."""
        if self.parts is not None:
            return self.analytic_jet(z, order)
        return fd_jet(self, z, order)

    def scaled(self, factor: float, label: str | None = None) -> "PotentialField":
        """The potential c*phi; its metric is c*g, so K becomes K/c.  The
        factor c is positive and finite, and the potential has ``parts``;
        else a ValueError names what is wrong."""
        if not 0 < factor < math.inf:
            raise ValueError(f"scaling factor must be positive and finite, "
                             f"got {factor!r}")
        if self.parts is None:
            raise ValueError(f"{self.label}: only a potential with parts "
                             f"can be scaled")
        return PotentialField(
            domain=self.domain,
            ricci_constant=self.ricci_constant / factor,
            parts=[(c * factor, part) for c, part in self.parts],
            label=label or f"{factor:g}*{self.label}",
        )

    def __repr__(self):  # keep frames and reports readable
        return f"PotentialField({self.label}, K={self.ricci_constant:g})"

