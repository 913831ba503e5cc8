"""Catalog of model domains.

Bounded realizations: the unit ball, the polydisc, and the classical
matrix domains

    type I   (p x q matrices,  I - Z Z* > 0),         n = pq,       rank p
    type II  (antisymmetric m x m, I - Z Z* > 0),     n = m(m-1)/2, rank [m/2]
    type III (symmetric m x m,  I - Z Z* > 0),        n = m(m+1)/2, rank m
    type IV  (z in C^m, Lie norm < 1),                n = m,        rank 2

plus their products, and two exceptional invariant records that exist
only as (c, n, rank) data.  Every kind is bounded; the unbounded Cayley
images of the ball and polydisc enter only through the Siegel-side
functions at the end (``cayley``, the half-plane kernel and its slice).

Matrix coordinates are flattened row-major; the symmetry-constrained kinds
are parametrized by their independent entries (type II strictly upper
triangular, type III upper triangular).  Generic norms are normalized to 1
at the origin and vanish on the boundary, and K ~ N^(-c) with the kind's
c; the Einstein suite validates each pairing numerically (Ricci of
dd^c log K equals -1).  The norm of every non-product kind is one
signed Hermitian form in holomorphic polynomials of degree at most the
rank (``norm_form``), and its kernel potential is one
``field.HermitianNormPart``; the ball keeps its own ``field.BallLog``.
The form at a maximal tripotent (``tripotent``) gives the Siegel term
N(z, e) of ``potentials.kai_ohsawa_potential``.
Membership is one Minkowski gauge, ``gauge`` < 1; the sampler uses the
same gauge.  Both ``gauge`` and ``DomainModel.contains`` take a point or
an (N, n) stack.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    MembershipError,
    SingularTransformError,
    UnsupportedDomainError,
    UnsupportedPointError,
)
from .field import BallLog, HermitianNormPart, PotentialField
from .jets import as_point, as_points

BALL = "ball"
POLYDISC = "polydisc"
TYPE_I = "type1"
TYPE_II = "type2"
TYPE_III = "type3"
TYPE_IV = "type4"
PRODUCT = "product"

#: each kind's parameter names, in constructor order: the keys of its JSON
#: record; its label is kind(values joined by ",").
PARAMETERS = {BALL: ("n",), POLYDISC: ("r",), TYPE_I: ("p", "q"),
              TYPE_II: ("m",), TYPE_III: ("m",), TYPE_IV: ("m",)}

#: minimum matrix sizes; smaller parameters coincide with other kinds
#: (type II with m<=2 and type IV with m<=2 are ball/disc products) and the
#: invariant table does not apply to them.
MIN_TYPE_II = 3
MIN_TYPE_IV = 3


@dataclass(frozen=True)
class InvariantsRecord:
    """Row of the invariant table: kernel exponent c, dimension, rank."""

    label: str
    c: float
    n: int
    rank: int

    @property
    def rc(self) -> float:
        return self.rank * self.c


#: exceptional domains enter only through their invariants.
EXCEPTIONAL_INVARIANTS = (
    InvariantsRecord("exceptional-16", c=12.0, n=16, rank=2),
    InvariantsRecord("exceptional-27", c=18.0, n=27, rank=3),
)


@dataclass(frozen=True)
class DomainModel:
    kind: str
    params: tuple
    n: int
    rank: int
    c: float | None
    factors: tuple = ()

    # -- membership -------------------------------------------------------
    def contains(self, z):
        """Membership of a point (a bool back) or of each row of an (N, n)
        stack (a bool array back); a point is a stack of one."""
        z = as_points(z)
        if z.shape[-1] != self.n:
            raise ValueError(
                f"{self.label} expects {self.n} coordinates, got {z.shape[-1]}")
        inside = _gauge(self, np.atleast_2d(z)) < 1.0
        return bool(inside[0]) if z.ndim == 1 else inside

    def require_member(self, z) -> np.ndarray:
        z = as_point(z)
        if not self.contains(z):
            raise MembershipError(f"{z!r} is not in {self.label}")
        return z

    # -- descriptive ------------------------------------------------------
    @property
    def label(self) -> str:
        if self.kind == PRODUCT:
            return " x ".join(f.label for f in self.factors)
        return f"{self.kind}({','.join(map(str, self.params))})"

    def invariants(self) -> InvariantsRecord:
        if self.c is None:
            raise UnsupportedDomainError(
                f"{self.label} has no single kernel exponent"
            )
        return InvariantsRecord(self.label, c=self.c, n=self.n, rank=self.rank)

    def to_json(self) -> dict:
        if self.kind == PRODUCT:
            return {
                "kind": PRODUCT,
                "factors": [f.to_json() for f in self.factors],
            }
        return {"kind": self.kind,
                **dict(zip(PARAMETERS[self.kind], self.params))}

    def __repr__(self):
        return f"DomainModel({self.label})"


# ---------------------------------------------------------------------------
# constructors

def ball(n: int) -> DomainModel:
    if n < 1:
        raise ValueError("ball dimension must be >= 1")
    return DomainModel(BALL, (n,), n=n, rank=1, c=float(n + 1))


def polydisc(r: int) -> DomainModel:
    """Product of r unit discs; the per-factor kernel exponent is 2."""
    if r < 1:
        raise ValueError("polydisc rank must be >= 1")
    return DomainModel(POLYDISC, (r,), n=r, rank=r, c=2.0)


def type_i(p: int, q: int) -> DomainModel:
    if not 1 <= p <= q:
        raise ValueError("type I requires 1 <= p <= q")
    return DomainModel(TYPE_I, (p, q), n=p * q, rank=p, c=float(p + q))


def type_ii(m: int) -> DomainModel:
    if m < MIN_TYPE_II:
        raise ValueError(f"type II restricted to m >= {MIN_TYPE_II}")
    return DomainModel(TYPE_II, (m,), n=m * (m - 1) // 2, rank=m // 2,
                       c=float(2 * (m - 1)))


def type_iii(m: int) -> DomainModel:
    if m < 1:
        raise ValueError("type III requires m >= 1")
    return DomainModel(TYPE_III, (m,), n=m * (m + 1) // 2, rank=m, c=float(m + 1))


def type_iv(m: int) -> DomainModel:
    if m < MIN_TYPE_IV:
        raise ValueError(f"type IV restricted to m >= {MIN_TYPE_IV}")
    return DomainModel(TYPE_IV, (m,), n=m, rank=2, c=float(m))


def product(*factors: DomainModel) -> DomainModel:
    factors = tuple(factors)
    if not factors:
        raise ValueError("product needs at least one factor")
    n = sum(f.n for f in factors)
    rank = sum(f.rank for f in factors)
    cs = {f.c for f in factors}
    c = cs.pop() if len(cs) == 1 else None
    return DomainModel(PRODUCT, (), n=n, rank=rank, c=c, factors=factors)


def from_json(obj: dict) -> DomainModel:
    """The domain of a ``to_json`` record.  A parameter takes an integral
    value such as 3, 3.0 or "3" (see ``as_integer``)."""
    kind = obj.get("kind")
    if kind == PRODUCT:
        return product(*[from_json(f) for f in obj["factors"]])
    if kind not in PARAMETERS:
        raise UnsupportedDomainError(f"unknown domain kind {kind!r}")
    build = {BALL: ball, POLYDISC: polydisc, TYPE_I: type_i, TYPE_II: type_ii,
             TYPE_III: type_iii, TYPE_IV: type_iv}[kind]
    return build(*(as_integer(obj[key], key) for key in PARAMETERS[kind]))


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


# ---------------------------------------------------------------------------
# matrix embeddings

def _matrix_lifts(d: DomainModel):
    """Per-coordinate (i, j, weight) lifts into the full matrix space."""
    if d.kind == POLYDISC:
        r = d.params[0]
        return r, r, tuple(((a, a, 1.0),) for a in range(r))
    if d.kind in (BALL, TYPE_I):  # the ball is type1(1, n)
        p, q = (1, d.n) if d.kind == BALL else d.params
        return p, q, tuple(
            ((i, j, 1.0),) for i in range(p) for j in range(q)
        )
    if d.kind == TYPE_III:
        m = d.params[0]
        lifts = []
        for i in range(m):
            for j in range(i, m):
                if i == j:
                    lifts.append(((i, i, 1.0),))
                else:
                    lifts.append(((i, j, 1.0), (j, i, 1.0)))
        return m, m, tuple(lifts)
    if d.kind == TYPE_II:
        m = d.params[0]
        lifts = []
        for i in range(m):
            for j in range(i + 1, m):
                lifts.append(((i, j, 1.0), (j, i, -1.0)))
        return m, m, tuple(lifts)
    raise UnsupportedDomainError(f"{d.label} is not a matrix kind")


@functools.lru_cache(maxsize=None)
def _matrix_plan(d: DomainModel):
    """The lifts as one scatter: (shape, flat cells, coordinate index,
    weight), one entry per matrix cell a coordinate reaches."""
    p, q, lifts = _matrix_lifts(d)
    cells, alpha, w = zip(*[(i * q + j, a, w) for a, lift in enumerate(lifts)
                            for i, j, w in lift])
    return (p, q), np.array(cells), np.array(alpha), np.array(w)


def as_matrix(d: DomainModel, z) -> np.ndarray:
    """The matrix realization of a flattened coordinate vector, (p, q), or
    of each row of an (N, n) stack, (N, p, q)."""
    z = as_points(z)
    shape, cells, alpha, w = _matrix_plan(d)
    Z = np.zeros(z.shape[:-1] + (shape[0] * shape[1],), dtype=complex)
    Z[..., cells] = w * z[..., alpha]
    return Z.reshape(z.shape[:-1] + shape)


# ---------------------------------------------------------------------------
# membership and generic norms

def gauge(d: DomainModel, z):
    """The Minkowski gauge of a bounded kind: d = {z : gauge(d, z) < 1}.

    Every bounded kind is circled and convex, so this one homogeneous
    norm carries its whole shape: |z| for the ball, max |z^a| for the
    polydisc, the operator norm of the matrix realization for types I-III
    and the Lie norm sqrt(|z|^2 + sqrt(|z|^4 - |z.z|^2)) for type IV; a
    product takes the largest of its factors' gauges.  Takes a point (a
    float back) or an (N, n) stack (an array of N back); a point is a
    stack of one, so both give the same bits.
    """
    z = as_points(z)
    g = _gauge(d, np.atleast_2d(z))
    return float(g[0]) if z.ndim == 1 else g


def _gauge(d: DomainModel, z: np.ndarray) -> np.ndarray:
    """``gauge`` of a validated (N, n) stack."""
    if d.kind == BALL:
        # the row-wise form of np.linalg.norm's re.re + im.im
        re, im = z.real, z.imag
        sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
        return np.sqrt(sq[:, 0, 0])
    if d.kind == POLYDISC:
        return np.max(np.abs(z), axis=-1)
    if d.kind in (TYPE_I, TYPE_II, TYPE_III):
        return np.linalg.norm(as_matrix(d, z), 2, axis=(-2, -1))
    if d.kind == TYPE_IV:
        # the row-wise forms of np.vdot(z, z).real and abs(np.sum(z * z))
        s = (z.conj()[:, None, :] @ z[:, :, None])[:, 0, 0].real
        zz = np.sum(z * z, axis=-1)
        u = np.hypot(zz.real, zz.imag)
        # |z.z| <= |z|^2; the max absorbs rounding in the difference
        return np.sqrt(s + np.sqrt(np.maximum(s * s - u * u, 0.0)))
    if d.kind == PRODUCT:
        return np.max([_gauge(f, block) for f, block in _blocks(d, z)],
                      axis=0)
    raise UnsupportedDomainError(f"{d.label} has no Minkowski gauge")


def _blocks(d: DomainModel, z: np.ndarray):
    """(factor, its columns of z) for each factor of a product."""
    off = np.cumsum([0] + [f.n for f in d.factors])
    return [(f, z[..., a:b]) for f, a, b in zip(d.factors, off, off[1:])]


def generic_norm(d: DomainModel, z) -> float:
    """The boundary-vanishing polynomial norm N with K = const * N^(-c).

    N(0) = 1.  A non-product kind gives the value of its ``norm_form``;
    a product gives the product of its factors' norms.
    """
    z = d.require_member(z)
    if d.kind == PRODUCT:
        return math.prod(generic_norm(f, block) for f, block in _blocks(d, z))
    return float(HermitianNormPart(norm_form(d), d.c).norm(z[None])[0])


@functools.lru_cache(maxsize=None)
def norm_form(d: DomainModel) -> tuple:
    """The generic norm of a non-product kind as a signed Hermitian form.

    N(z, zbar) = sum_k w_k sum_j |h_j(z)|^2 over holomorphic polynomials
    h_j homogeneous of degree k = 0..rank (Loos, *Bounded Symmetric
    Domains and Jordan Pairs*, 1977; Faraut-Koranyi, *Analysis on
    Symmetric Cones*, 1994):

    * types I and III: the k x k minors of Z, w_k = (-1)^k (Cauchy-Binet
      on det(I - Z Z*)); the ball is type1(1, n), N = 1 - |z|^2, though
      its kernel potential keeps ``field.BallLog``;
    * the polydisc: the same on Z = diag(z), whose nonzero minors are the
      principal ones, the monomials z_S over k-sets S, so
      N = prod_a (1 - |z^a|^2);
    * type II: the Pfaffians of the 2k x 2k principal blocks of Z,
      w_k = (-1)^k, which sum to det(I - Z Z*)^(1/2);
    * type IV: 1, the coordinates z^a and z.z, with w = (1, -2, 1).

    One (w_k, D_k) pair per degree k, where D_k[j] = d^k h_j is the
    constant symmetric k-th derivative tensor, shape (J_k,) + (n,)*k, so
    h_j = D_k[j].z^k / k!.
    """
    if d.kind == TYPE_IV:
        eye = np.eye(d.n)
        form = ((1.0, np.ones(1)), (-2.0, eye), (1.0, 2.0 * eye[None]))
    else:  # a matrix kind, or UnsupportedDomainError from _matrix_lifts
        L = as_matrix(d, np.eye(d.n)).real  # Z = sum_a z^a L_a
        p, q = L.shape[1:]
        sets = itertools.combinations
        form = []
        for k in range(d.rank + 1):
            if d.kind == TYPE_II:
                polys = [_matchings(I) for I in sets(range(p), 2 * k)]
            elif d.kind == POLYDISC:
                polys = [_leibniz(I, I) for I in sets(range(p), k)]
            else:
                polys = [_leibniz(I, J) for I in sets(range(p), k)
                         for J in sets(range(q), k)]
            form.append(((-1.0) ** k, np.array([_derivative(L, terms)
                                                for terms in polys])))
    for _, D in form:
        D.setflags(write=False)
    return tuple(form)


def _leibniz(rows, cols):
    """det Z[rows, cols] as (sign, cells) terms, along its first row."""
    if not rows:
        return [(1, ())]
    return [((-1) ** t * sign, ((rows[0], cols[t]),) + cells)
            for t in range(len(cols))
            for sign, cells in _leibniz(rows[1:], cols[:t] + cols[t + 1:])]


def _matchings(idx):
    """Pf Z[idx, idx] as (sign, cells) terms, along its first row."""
    if not idx:
        return [(1, ())]
    return [((-1) ** (t - 1) * sign, ((idx[0], idx[t]),) + cells)
            for t in range(1, len(idx))
            for sign, cells in _matchings(idx[1:t] + idx[t + 1:])]


def _derivative(L, terms):
    """The constant k-th derivative tensor of sum sign * prod of the k
    cells of Z = sum_a z^a L_a: each term's k! orderings of its cells."""
    k = len(terms[0][1])
    D = np.zeros((len(L),) * k)
    for sign, cells in terms:
        for order in itertools.permutations(cells):
            D += sign * functools.reduce(np.multiply.outer,
                                         [L[:, i, j] for i, j in order],
                                         np.ones(()))
    return D


def tripotent(d: DomainModel) -> np.ndarray:
    """A maximal tripotent e of a non-product kind, a boundary point with
    N(z, e) != 0 on the domain: [I | 0] for the ball, the polydisc and
    types I and III, the [[0, 1], [-1, 0]] blocks for type II and e_1 for
    type IV, in flattened coordinates."""
    if d.kind == TYPE_IV:
        return np.eye(d.n)[0]
    step = 2 if d.kind == TYPE_II else 1  # type II: the cells (2i, 2i + 1)
    return np.array([float(i % step == 0 and j == i + step - 1)
                     for (i, j, _), *_ in _matrix_lifts(d)[2]])


# ---------------------------------------------------------------------------
# canonical Bergman-type potentials

def bergman_potential(d: DomainModel) -> PotentialField:
    """log of the Bergman kernel, normalized to vanish at the origin.

    Its metric dd^c log K is the complete Kaehler-Einstein metric with
    Ricci constant K = 1; that is the correctness check for each norm
    formula above.
    """
    if d.kind == BALL:
        parts = [(1.0, BallLog(d.c))]
    elif d.kind in (POLYDISC, TYPE_I, TYPE_II, TYPE_III, TYPE_IV):
        parts = [(1.0, HermitianNormPart(norm_form(d), d.c))]
    elif d.kind == PRODUCT:
        parts = product_parts([bergman_potential(f) for f in d.factors])
    else:
        raise UnsupportedDomainError(f"no kernel potential for {d.kind!r}")
    return PotentialField(
        domain=d,
        ricci_constant=1.0,
        parts=parts,
        label=f"log-kernel[{d.label}]",
    )


def ke_potential(d: DomainModel, K: float) -> PotentialField:
    """Rescale the kernel potential so its metric has Ricci constant K."""
    if K <= 0:
        raise ValueError("Ricci constant must be positive")
    p = bergman_potential(d).scaled(1.0 / K, label=f"ke[{d.label},K={K:g}]")
    return p


def product_parts(potentials) -> list:
    """The parts of pi_1^* phi_1 + pi_2^* phi_2 + ... on the product of
    the potentials' domains: each one's parts re-indexed into its
    consecutive coordinate block."""
    parts, off = [], 0
    for p in potentials:
        width = p.domain.n
        parts += [(c, _OffsetPart(part, off, width)) for c, part in p.parts]
        off += width
    return parts


class _OffsetPart:
    """Re-index a jet part into a product's coordinate block."""

    def __init__(self, part, offset, width):
        self.part = part
        self.offset = offset
        self.width = width

    def jet(self, Z, order):
        block = slice(self.offset, self.offset + self.width)
        out = {}
        for (m, l), t in self.part.jet(Z[:, block], order).items():
            full = np.zeros(Z.shape[:1] + Z.shape[1:] * (m + l), dtype=t.dtype)
            full[(slice(None),) + (block,) * (m + l)] = t
            out[(m, l)] = full
        return out


# ---------------------------------------------------------------------------
# Cayley transform and the half-plane kernel

def cayley(d: DomainModel, z) -> np.ndarray:
    """Map to the unbounded Siegel-type model.

    Polydisc: componentwise z -> (z-1)/(z+1) onto the product of left
    half-planes.  Ball: (z1, z') -> ((z1-1)/(z1+1), sqrt(2) z'/(z1+1)) onto
    {Re w1 + ||w'||^2 / 2 < 0}.  ``z`` is a point or an (N, n) stack.
    """
    z = as_points(z)
    if d.kind not in (BALL, POLYDISC):
        raise UnsupportedDomainError(
            f"explicit Cayley transform implemented for ball and polydisc, "
            f"not {d.label}")
    if not np.all(d.contains(z)):
        raise MembershipError(f"{z!r} is not in {d.label}")
    if d.kind == POLYDISC:
        if np.any(np.abs(z + 1.0) < 1e-14):
            raise SingularTransformError("Cayley transform singular at z = -1")
        return (z - 1.0) / (z + 1.0)
    z1 = z[..., :1]
    if np.any(np.abs(z1 + 1.0) < 1e-14):
        raise SingularTransformError("Cayley transform singular at z1 = -1")
    return np.concatenate([(z1 - 1.0) / (z1 + 1.0),
                           np.sqrt(2.0) * z[..., 1:] / (z1 + 1.0)], axis=-1)


def halfplane_kernel(w):
    """Reproducing kernel of the left half-plane: 2 / (w + wbar)^2, of a
    value (a float back) or an array (an array back)."""
    w = np.asarray(w, dtype=complex)
    if not np.all(w.real < 0):
        raise MembershipError(f"{w} is not in the left half-plane")
    k = 2.0 / (w + np.conj(w)).real ** 2
    return float(k) if k.ndim == 0 else k


def siegel_log_kernel_on_polydisc_slice(d: DomainModel, w):
    """(c/2) sum_a log K_H(w^a) on the embedded half-plane slice.

    ``w`` is a point or an (N, n) stack; each must have its first ``rank``
    coordinates in the left half-plane and the remaining ones exactly
    zero.  The multiplicative kernel constant is dropped.
    """
    w = as_points(w)
    r = d.rank
    if d.kind not in (BALL, POLYDISC):
        raise UnsupportedDomainError(
            f"slice kernel implemented for ball and polydisc, not {d.label}"
        )
    if w.shape[-1] != d.n:
        raise UnsupportedPointError(
            f"expected {d.n} coordinates for {d.label}, got {w.shape[-1]}"
        )
    if np.any(w[..., r:] != 0):
        raise UnsupportedPointError(
            f"point {w!r} leaves the rank-{r} half-plane slice"
        )
    total = np.sum(np.log(halfplane_kernel(w[..., :r])), axis=-1)
    value = d.c / 2.0 * total
    return float(value) if w.ndim == 1 else value
