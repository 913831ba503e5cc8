"""Scalar potentials with closed-form derivative access.

A ``PotentialField`` is a real scalar function on a domain.  Its
``parts``, a list of (coefficient, part) summands whose mixed Wirtinger
derivatives are known exactly to order ``jets.MAX_ORDER``, pick the
derivative path: with parts, ``PotentialField.jet`` is the closed form;
without, it is ``fd_jet`` of ``fn``, which maps an (M, n) stack of points
to M values.  A part maps a stack Z of N points, shape (N, n), and an
order to its dense jet tensors
{(m, l): array of shape (N,) + (n,)*(m+l)} for m >= l, leaving out the
bidegrees that vanish identically; the potential is real, so the (l, m)
tensors are the conjugates.  The parts implemented here cover every
potential the package constructs:

* ``RadialBlock``      -- f(s) with s = sum of |z^a|^2 over a coordinate set
                          (unit-ball logs, flat quadratics, per-factor disks)
* ``LinearLog``        -- 2 log|c0 + c.z| for a holomorphic affine form
                          (the pluriharmonic rescaling term)
* ``MatrixLogDetPart`` -- -kappa log det(I - Z Z*) on matrix balls, with a
                          linear parametrization for symmetry-constrained Z
                          (traces of matrix words, closed form to order 4)
* ``LogOfInnerPart``   -- -kappa log w(z) for an inner function with a known
                          finite jet (the type-IV generic norm)

``RadialBlock`` and ``LogOfInnerPart`` are a profile composed with an inner
function whose jet is finite; one tensor chain rule (Faa di Bruno over the
set partitions of the derivative slots, at most 15 at order 4) serves
both.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, UnsupportedOrderError
from .jets import MAX_ORDER, Jet, as_points, bidegrees, fd_jet

_FACT = [1, 1, 2, 6, 24]


def _check(ok, Z, what, values):
    """Raise EvaluationError naming the first point of Z where ``ok`` fails."""
    if not ok.all():
        i = np.flatnonzero(~ok)[0]
        raise EvaluationError(f"{what} {values[i]} at z={Z[i]!r}")


def _log_derivs(u, order, scale):
    """scale * d^k/du^k log u for k = 0..order."""
    return [scale * np.log(u)] + [
        scale * (-1.0) ** (k - 1) * _FACT[k - 1] / u ** k
        for k in range(1, order + 1)
    ]


def _mirror(t, m, l):
    """The (l, m) tensor conj(d(b, a)) of a real function from its (m, l) one."""
    axes = (0,) + tuple(range(1 + m, 1 + m + l)) + tuple(range(1, 1 + m))
    return np.conj(t.transpose(axes))


def _complete(total, order, N, n):
    """Both halves of a real jet of N points from its m >= l half.

    Absent tensors are zero.  Entries equal by symmetry are copied from the
    one with sorted indices, and (m, m) tensors are made Hermitian, so both
    symmetries hold exactly.
    """
    out = {}
    for m, l in bidegrees(order):
        if m < l:
            continue
        t = total.get((m, l))
        if t is None:
            t = np.zeros((N,) + (n,) * (m + l), dtype=complex)
        if m > 1 or l > 1:
            t = t.reshape(N, -1)[:, _sorted_index(n, m, l)].reshape(t.shape)
        if 0 < m == l:
            t = 0.5 * (t + _mirror(t, m, l))
        elif m > l:
            out[(l, m)] = _mirror(t, m, l)
        out[(m, l)] = t
    return out


@functools.lru_cache(maxsize=None)
def _sorted_index(n, m, l):
    """For each element of an (m, l) tensor, the flat index of the element
    with its holomorphic and antiholomorphic indices sorted."""
    shape = (n,) * (m + l)
    ix = np.indices(shape).reshape(m + l, -1)
    ix = np.concatenate([np.sort(ix[:m], axis=0), np.sort(ix[m:], axis=0)])
    return np.ravel_multi_index(ix, shape)


# ---------------------------------------------------------------------------
# the tensor chain rule

def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


@functools.lru_cache(maxsize=None)
def _chain_terms(m, l, n):
    """Faa di Bruno terms of bidegree (m, l) on C^n: per set partition of
    the slots (holomorphic 0..m-1, then antiholomorphic; each block comes
    sorted), the number of blocks and, per block, its bidegree and the
    shape that broadcasts its tensor onto its slots."""
    return tuple(
        (len(part), tuple(
            ((sum(i < m for i in b), sum(i >= m for i in b)),
             (-1,) + tuple(n if i in b else 1 for i in range(m + l)))
            for b in part))
        for part in _set_partitions(list(range(m + l)))
    )


def _compose(dg, inner, order, n):
    """Jet (m >= l half) of g(w(z)) from dg[k] = g^(k)(w) and the jet of w.

    ``inner`` maps bidegrees of both halves to w's tensors (leading axis N
    or 1), absent ones vanishing; ``dg[k]`` is None where g^(k) vanishes.
    """
    out = {(0, 0): dg[0]}
    for m, l in bidegrees(order):
        if m < l or m + l == 0:
            continue
        total = None
        for k, blocks in _chain_terms(m, l, n):
            if dg[k] is None:
                continue
            term = dg[k].reshape((-1,) + (1,) * (m + l))
            for kind, shape in blocks:
                if kind not in inner:
                    break
                term = term * inner[kind].reshape(shape)
            else:
                total = term if total is None else total + term
        if total is not None:
            out[(m, l)] = total
    return out


# ---------------------------------------------------------------------------
# radial profiles

class LogProfile:
    """f(s) = -A log(1 - s) + offset, the model-domain log profile."""

    def __init__(self, amplitude: float, offset: float = 0.0):
        self.amplitude = float(amplitude)
        self.offset = float(offset)

    def derivs(self, s, order, Z):
        _check(s < 1.0, Z, "log profile evaluated at s >= 1: s =", s)
        return [-self.amplitude * np.log1p(-s) + self.offset] + [
            self.amplitude * _FACT[k - 1] / (1.0 - s) ** k
            for k in range(1, order + 1)
        ]


class LinearProfile:
    """f(s) = slope * s (flat quadratic fixture)."""

    def __init__(self, slope: float = 1.0):
        self.slope = float(slope)

    def derivs(self, s, order, Z):
        return [self.slope * s, np.full_like(s, self.slope)] + [None] * 3


class RadialBlock:
    """f(s) with s = sum_{a in indices} |z^a|^2.

    Within the block s has first derivatives zbar_a / z_b and the constant
    mixed second derivative delta_ab; indices outside the block see 0.
    """

    def __init__(self, indices, profile):
        self.indices = frozenset(indices)
        self.profile = profile

    def jet(self, Z, order):
        mask, delta = _block_mask(self.indices, Z.shape[1])
        u = Z * mask
        s = (np.abs(u) ** 2).sum(axis=1)
        dg = self.profile.derivs(s, order, Z)
        if order == 0:
            return {(0, 0): dg[0]}
        inner = {(1, 0): np.conj(u), (0, 1): u, (1, 1): delta}
        return _compose(dg, inner, order, Z.shape[1])


@functools.lru_cache(maxsize=None)
def _block_mask(indices, n):
    """The 0/1 mask of a coordinate block in C^n and its diagonal matrix."""
    mask = np.zeros(n)
    mask[sorted(indices)] = 1.0
    return mask, np.diag(mask)[None]


@functools.lru_cache(maxsize=None)
def _coefficients(coeffs, n):
    """The vector c in C^n of a linear form given as (index, value) pairs."""
    c = np.zeros(n, dtype=complex)
    for a, v in coeffs:
        c[a] = v
    return c


class LinearLog:
    """2 log |w(z)| for the holomorphic affine form w = c0 + sum c_a z^a.

    Pluriharmonic: mixed derivatives vanish; the pure ones are the
    derivatives of log w, c^{(x)k} (-1)^(k-1) (k-1)! / w^k, and conjugates.
    """

    def __init__(self, c0, coeffs):
        self.c0 = complex(c0)
        self.coeffs = tuple((int(k), complex(v)) for k, v in coeffs.items())

    def jet(self, Z, order):
        c = _coefficients(self.coeffs, Z.shape[1])
        w = self.c0 + Z @ c
        _check(np.abs(w) >= 1e-300, Z, "log|w| singular: w(z) =", w)
        out = {(0, 0): 2.0 * np.log(np.abs(w))}
        ck = np.ones(())
        for k in range(1, order + 1):
            ck = np.multiply.outer(ck, c)
            dw = (-1.0) ** (k - 1) * _FACT[k - 1] / w ** k
            out[(k, 0)] = dw.reshape((-1,) + (1,) * k) * ck
        return out


class MatrixLogDetPart:
    """-kappa log det(I_p - Z Z*) with Z = sum_a z^a L_a linear.

    ``lifts[a]`` lists (i, j, weight) triples: L_a = sum weight * E_ij.
    With A = (I - Z Z*)^-1, P = Z* A and Q = I + P Z, the letters

        X_a = L_a P,    G_ad = L_a Q L_d* A,    R_d = Z L_d* A

    differentiate as d_c X_a = X_a X_c, dbar_d X_a = G_ad,
    d_c G_ad = X_a G_cd + G_ad X_c and dbar_e G_ad = G_ae R_d + G_ad R_e,
    so every derivative is kappa times a sum of traces of words:

        d_a            =  tr X_a
        d_a dbar_d     =  tr G_ad
        d_a d_b        =  tr(X_a X_b)
        d_a d_c dbar_d =  tr(X_a G_cd) + tr(G_ad X_c)
        d_a d_b d_c    =  tr(X_a X_c X_b) + tr(X_a X_b X_c)
        d_a d_b d_c d_e        =  sum over the orderings s of (b, c, e)
                                  of tr(X_a X_s1 X_s2 X_s3)
        d_a d_b d_c dbar_d     =  dbar_d of the two (3, 0) words, each X
                                  in turn replaced by its G (6 terms)
        d_a d_c dbar_d dbar_e  =  tr((G_ae R_d + G_ad R_e) X_c + G_ad G_ce
                                     + G_ae G_cd + X_a (G_ce R_d + G_cd R_e))

    plus conjugates; exact to order 4.
    """

    def __init__(self, p, q, kappa, lifts):
        self.p = int(p)
        self.q = int(q)
        self.kappa = float(kappa)
        self.L = np.zeros((len(lifts), self.p, self.q), dtype=complex)
        for a, lift in enumerate(lifts):
            for i, j, w in lift:
                self.L[a, i, j] += w

    def jet(self, Z, order):
        k, L = self.kappa, self.L
        Zm = (Z @ L.reshape(len(L), -1)).reshape(len(Z), self.p, self.q)
        Zh = np.conj(Zm.transpose(0, 2, 1))
        M = np.eye(self.p) - Zm @ Zh
        eigs = np.linalg.eigvalsh(M)
        # the domain is I - Z Z* > 0; det > 0 alone admits points far outside
        _check(eigs[:, 0] > 0, Z, "I - Z Z* not positive: min eigenvalue",
               eigs[:, 0])
        out = {(0, 0): -k * np.log(eigs).sum(axis=1)}
        if order == 0:
            return out
        A = np.linalg.inv(M)
        P = Zh @ A
        LP = L @ P[:, None]
        out[(1, 0)] = k * np.trace(LP, axis1=2, axis2=3)
        if order >= 2:
            IQ = np.eye(self.q) + P @ Zm
            LhA = np.conj(L.transpose(0, 2, 1)) @ A[:, None]
            G = np.einsum("Naij,Nbjk->Nabik", L @ IQ[:, None], LhA)
            out[(1, 1)] = k * np.einsum("Nabii->Nab", G)
            out[(2, 0)] = k * np.einsum("Naik,Nbki->Nab", LP, LP)
        if order >= 3:
            out[(2, 1)] = k * (np.einsum("Naik,Ncbki->Nacb", LP, G)
                               + np.einsum("Nabik,Ncki->Nacb", G, LP))
            LPLP = np.einsum("Naik,Nbkj->Nabij", LP, LP)
            out[(3, 0)] = k * (np.einsum("Nacij,Nbji->Nabc", LPLP, LP)
                               + np.einsum("Nabij,Ncji->Nabc", LPLP, LP))
        if order >= 4:
            out.update(_matrix_order_four(k, LP, LPLP, G, Zm[:, None] @ LhA))
        return out


def _matrix_order_four(k, X, XX, G, R):
    """The (4, 0), (3, 1) and (2, 2) tensors of ``MatrixLogDetPart``.

    X[N, a] = X_a, XX[N, a, b] = X_a X_b, G[N, a, d] = G_ad and
    R[N, d] = R_d.  A trace of four letters is the trace of a product of
    two two-letter words; each tensor sums such traces over index orders.
    """
    def orders(t, labels, out):
        return k * sum(np.einsum(f"N{s}->N{out}", t) for s in labels)

    W = np.einsum("Nabij,Nceji->Nabce", XX, XX)  # tr(X_a X_b X_c X_e)
    V = np.einsum("Ngdij,Nxyji->Ngdxy", G, XX)   # tr(G_gd X_x X_y)
    V = V + np.einsum("Ngdyx->Ngdxy", V)
    U = np.einsum("Naeij,Ndcji->Naedc", G,       # tr(G_ae R_d X_c)
                  np.einsum("Ndij,Ncjk->Ndcik", R, X))
    Y = np.einsum("Nadij,Nceji->Nadce", G, G)    # tr(G_ad G_ce)
    return {
        (4, 0): orders(W, ("abce", "abec", "acbe", "aceb", "aebc", "aecb"),
                       "abce"),
        (3, 1): orders(V, ("adbc", "bdac", "cdab"), "abcd"),
        (2, 2): orders(U, ("aedc", "adec", "ceda", "cdea"), "acde")
                + orders(Y, ("adce", "aecd"), "acde"),
    }


class TypeIVNorm:
    """The degree-(2,2) polynomial 1 - 2 z.zbar + |z.z|^2 and its jet.

    ``jet`` gives every bidegree of both halves; those above (2, 2) vanish.
    """

    def jet(self, Z):
        zb = np.conj(Z)
        ub = np.conj(np.sum(Z * Z, axis=1))
        eye = np.eye(Z.shape[1])[None]
        out = {
            (0, 0): 1.0 - 2.0 * np.sum(np.abs(Z) ** 2, axis=1) + np.abs(ub) ** 2,
            (1, 0): -2.0 * zb + 2.0 * Z * ub[:, None],
            (1, 1): -2.0 * eye + 4.0 * Z[:, :, None] * zb[:, None, :],
            (2, 0): 2.0 * eye * ub[:, None, None],
            (2, 1): 4.0 * eye[..., None] * zb[:, None, None, :],
            (2, 2): 4.0 * eye[:, :, :, None, None] * eye[:, None, None, :, :],
        }
        for m, l in ((1, 0), (2, 0), (2, 1)):
            out[(l, m)] = _mirror(out[(m, l)], m, l)
        return out


class LogOfInnerPart:
    """-kappa log w(z) for an inner function with a known finite jet."""

    def __init__(self, inner, kappa):
        self.inner = inner
        self.kappa = float(kappa)

    def jet(self, Z, order):
        inner = self.inner.jet(Z)
        w = np.real(inner[(0, 0)])
        _check(w > 0, Z, "inner norm not positive:", w)
        return _compose(_log_derivs(w, order, -self.kappa), inner, order,
                        Z.shape[1])


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
        """The closed form when ``parts`` is set, finite differences of
        ``fn`` otherwise."""
        if self.parts is not None:
            return self.analytic_jet(z, order)
        if order == 0:
            z = as_points(z)
            return Jet(point=z, order=0, tensors={(0, 0): np.array(self(z))})
        return fd_jet(self, z, order)

    def scaled(self, factor: float, label: str | None = None) -> "PotentialField":
        """The potential c*phi; its metric is c*g, so K becomes K/c."""
        if factor <= 0:
            raise ValueError("scaling factor must be positive")
        new_parts = None
        fn = None
        if self.parts is not None:
            new_parts = [(c * factor, part) for c, part in self.parts]
        else:
            base = self.fn
            fn = lambda Z: factor * np.asarray(base(Z), dtype=float)  # noqa: E731
        return PotentialField(
            domain=self.domain,
            ricci_constant=self.ricci_constant / factor,
            parts=new_parts,
            label=label or f"{factor:g}*{self.label}",
            fn=fn,
        )

    def __repr__(self):  # keep frames and reports readable
        return f"PotentialField({self.label}, K={self.ricci_constant:g})"

