"""Catalog of model domains.

Bounded realizations: the unit ball, the polydisc, and the classical
matrix domains

    type I   (p x q matrices,  I - Z Z* > 0),         n = pq,       rank p
    type II  (antisymmetric m x m, I - Z Z* > 0),     n = m(m-1)/2, rank [m/2]
    type III (symmetric m x m,  I - Z Z* > 0),        n = m(m+1)/2, rank m
    type IV  (z in C^m, Lie norm < 1),                n = m,        rank 2

plus their products, and two exceptional invariant records that exist
only as (rank, a, b) data.  Every kind is bounded; the unbounded Cayley
images of the ball and polydisc enter only through the Siegel-side
functions at the end (``cayley``, the half-plane kernel and its slice).

An irreducible kind's invariants are its rank r and multiplicities a
and b alone: the ball(n) is (1, 2, n-1), the polydisc(r) (r, 0, 0),
type I(p, q) (p, 2, q-p), type II(m) ([m/2], 4, 2 (m mod 2)), type
III(m) (m, 1, 0) and type IV(m) (2, m-2, 0).  ``_Invariants`` derives n,
c, rank*c and the integer gap rank*c - (n+1) from them, and a product
from its factors'.

A matrix kind's coordinates are those of one basis of its matrix space
(``_basis``): the cells in row-major order, and for the symmetry-
constrained kinds their independent entries (type II strictly upper
triangular, type III upper triangular).  Generic norms are normalized to 1
at the origin and vanish on the boundary, and K ~ N^(-c) with the kind's
c; the Einstein suite validates each pairing numerically (Ricci of
dd^c log K equals -1).  The norm of every non-product kind is one
signed Hermitian form in holomorphic polynomials of degree at most the
rank (``norm_form``), and its kernel potential is one
``field.HermitianNormPart``, built once per kind; the ball keeps its own
``field.BallLog``.
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
from .field import BallLog, HermitianNormPart, Part, PotentialField
from .jets import as_integer, as_point, as_points

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

#: minimum matrix sizes.  Smaller ones coincide with other kinds: type2(2)
#: is (1, 4, 0), the disc, and type4(2) is (2, 0, 0), the bidisc.  They
#: fit the invariant formulas, but the catalog builds them as ball(1) and
#: polydisc(2).
MIN_TYPE_II = 3
MIN_TYPE_IV = 3


class _Invariants:
    """n, c, ``rc`` = rank*c (the constant gradient length of the Siegel
    potential) and ``gap`` = rank*c - (n+1) of a kind of
    rank r and multiplicities a and b (Loos, *Bounded Symmetric Domains
    and Jordan Pairs*, 1977; Faraut-Koranyi, *Analysis on Symmetric
    Cones*, 1994), set once at construction:

        n = r + a r(r-1)/2 + b r,   c = 2 + a(r-1) + b,
        gap = (r-1)(2 + a r)/2.

    ``gap`` is an integer, 0 exactly when r = 1: the paper's rank*c >=
    n+1, with equality only on the balls, decided without a float
    comparison.  ``c`` and ``rc`` are floats.
    """

    def __post_init__(self):
        for key in ("rank", "a", "b"):
            object.__setattr__(self, key, as_integer(getattr(self, key), key))
        r, a, b = self.rank, self.a, self.b
        self._derive(n=r + a * r * (r - 1) // 2 + b * r,
                     c=float(2 + a * (r - 1) + b),
                     gap=(r - 1) * (2 + a * r) // 2)

    def _derive(self, n, c, gap):
        for key, value in (("n", n), ("c", c), ("gap", gap),
                           ("rc", float(n + 1 + gap))):
            object.__setattr__(self, key, value)


@dataclass(frozen=True)
class InvariantsRecord(_Invariants):
    """A kind that enters only through its invariants."""

    label: str
    rank: int
    a: int
    b: int


#: exceptional domains enter only through their invariants: E6 gives
#: (n, c, rank) = (16, 12, 2), E7 (27, 18, 3).
EXCEPTIONAL_INVARIANTS = (
    InvariantsRecord("exceptional-16", rank=2, a=6, b=4),
    InvariantsRecord("exceptional-27", rank=3, a=8, b=0),
)


@dataclass(frozen=True)
class DomainModel(_Invariants):
    """A constructed kind: an irreducible one of rank r and multiplicities
    a and b, or a product of ``factors`` (rank their sum, a and b None).
    A product's n is its factors' sum, its c their common c or None, and
    its gap sum(gap_i + 1) - 1, so its rc is the sum of their rank*c."""

    kind: str
    params: tuple
    rank: int
    a: int | None = None
    b: int | None = None
    factors: tuple = ()

    def __post_init__(self):
        if self.kind != PRODUCT:
            return super().__post_init__()
        cs = {f.c for f in self.factors}
        self._derive(n=sum(f.n for f in self.factors),
                     c=cs.pop() if len(cs) == 1 else None,
                     gap=sum(f.gap + 1 for f in self.factors) - 1)

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
    n = as_integer(n, "n")
    if n < 1:
        raise ValueError("ball dimension must be >= 1")
    return DomainModel(BALL, (n,), rank=1, a=2, b=n - 1)


def polydisc(r: int) -> DomainModel:
    """Product of r unit discs; the per-factor kernel exponent is 2."""
    r = as_integer(r, "r")
    if r < 1:
        raise ValueError("polydisc rank must be >= 1")
    return DomainModel(POLYDISC, (r,), rank=r, a=0, b=0)


def type_i(p: int, q: int) -> DomainModel:
    p, q = as_integer(p, "p"), as_integer(q, "q")
    if not 1 <= p <= q:
        raise ValueError("type I requires 1 <= p <= q")
    return DomainModel(TYPE_I, (p, q), rank=p, a=2, b=q - p)


def type_ii(m: int) -> DomainModel:
    m = as_integer(m, "m")
    if m < MIN_TYPE_II:
        raise ValueError(f"type II restricted to m >= {MIN_TYPE_II}")
    return DomainModel(TYPE_II, (m,), rank=m // 2, a=4, b=2 * (m % 2))


def type_iii(m: int) -> DomainModel:
    m = as_integer(m, "m")
    if m < 1:
        raise ValueError("type III requires m >= 1")
    return DomainModel(TYPE_III, (m,), rank=m, a=1, b=0)


def type_iv(m: int) -> DomainModel:
    m = as_integer(m, "m")
    if m < MIN_TYPE_IV:
        raise ValueError(f"type IV restricted to m >= {MIN_TYPE_IV}")
    return DomainModel(TYPE_IV, (m,), rank=2, a=m - 2, b=0)


def product(*factors: DomainModel) -> DomainModel:
    factors = tuple(factors)
    if not factors:
        raise ValueError("product needs at least one factor")
    return DomainModel(PRODUCT, (), rank=sum(f.rank for f in factors),
                       factors=factors)


def from_json(obj: dict) -> DomainModel:
    """The domain of a ``to_json`` record, which holds "kind" and exactly
    its kind's keys ("factors" for a product); a missing or unknown key is
    a ValueError that names the keys taken and given.  A parameter takes
    an integral value such as 3, 3.0 or "3", as every constructor does
    (see ``as_integer``)."""
    if not isinstance(obj, dict):
        raise ValueError(f"a domain record is an object, got {obj!r}")
    kind = obj.get("kind")
    if kind != PRODUCT and kind not in PARAMETERS:
        raise UnsupportedDomainError(f"unknown domain kind {kind!r}")
    keys = ("factors",) if kind == PRODUCT else PARAMETERS[kind]
    if set(obj) != {"kind", *keys}:
        raise ValueError(f"a {kind} record takes the keys kind, "
                         f"{', '.join(keys)}; got "
                         f"{', '.join(sorted(map(str, obj)))}")
    if kind == PRODUCT:
        factors = obj["factors"]
        if not isinstance(factors, list):
            raise ValueError(f"product factors must be a list, got {factors!r}")
        return product(*[from_json(f) for f in factors])
    build = {BALL: ball, POLYDISC: polydisc, TYPE_I: type_i, TYPE_II: type_ii,
             TYPE_III: type_iii, TYPE_IV: type_iv}[kind]
    return build(*(obj[key] for key in keys))


def check_ricci_constant(K) -> None:
    """A ValueError naming K unless 0 < K < inf, the Ricci constant of an
    Einstein metric Ric = -K g."""
    if not 0 < K < math.inf:
        raise ValueError(f"Ricci constant K must be positive and finite, "
                         f"got {K!r}")


# ---------------------------------------------------------------------------
# matrix embeddings

@functools.lru_cache(maxsize=None)
def _basis(d: DomainModel) -> np.ndarray:
    """The matrix realization of a matrix kind as one read-only basis L,
    shape (n, p, q), with Z = sum_a z^a L[a]: E_ij over the row-major
    cells for type I and the ball (type1(1, n)), E_aa for the polydisc,
    E_ij + E_ji over i <= j for type III and E_ij - E_ji over i < j for
    type II.  The cells come from ``params``, so ``len(L)`` checks the n
    derived from the kind's (rank, a, b)."""
    if d.kind == POLYDISC:
        p = q = d.params[0]
        i = j = np.arange(p)
    elif d.kind in (BALL, TYPE_I):
        p, q = (1,) + d.params if d.kind == BALL else d.params
        i, j = np.divmod(np.arange(p * q), q)
    elif d.kind in (TYPE_II, TYPE_III):
        p = q = d.params[0]
        i, j = np.triu_indices(p, 1 if d.kind == TYPE_II else 0)
    else:
        raise UnsupportedDomainError(f"{d.label} is not a matrix kind")
    a = np.arange(len(i))
    L = np.zeros((len(i), p, q))
    if d.kind in (TYPE_II, TYPE_III):
        L[a, j, i] = -1.0 if d.kind == TYPE_II else 1.0
    L[a, i, j] = 1.0
    L.setflags(write=False)
    return L


def as_matrix(d: DomainModel, z) -> np.ndarray:
    """The matrix realization of a flattened coordinate vector, (p, q), or
    of each row of an (N, n) stack, (N, p, q)."""
    z = as_points(z)
    L = _basis(d)
    return (z @ L.reshape(len(L), -1)).reshape(z.shape[:-1] + L.shape[1:])


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
        # the largest singular value, which np.linalg.norm(., 2) takes
        # from this same svd
        return np.linalg.svd(as_matrix(d, z), compute_uv=False)[..., 0]
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
    return float(_norm_part(d).norm(z[None])[0])


@functools.lru_cache(maxsize=None)
def _norm_part(d: DomainModel) -> HermitianNormPart:
    """-c log N over the ``norm_form`` of a non-product kind, built once
    per kind: its kernel potential's part, and its ``generic_norm``."""
    return HermitianNormPart(norm_form(d), d.c)


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
    h_j = D_k[j].z^k / k!.  A matrix kind reads its top degree from the
    shape of Z, min(p, q), halved for type II, so the form's length checks
    the derived rank.
    """
    if d.kind == TYPE_IV:
        eye = np.eye(d.n)
        form = ((1.0, np.ones(1)), (-2.0, eye), (1.0, 2.0 * eye[None]))
    else:  # a matrix kind, or UnsupportedDomainError from _basis
        L = _basis(d)
        p, q = L.shape[1:]
        top = min(p, q) // 2 if d.kind == TYPE_II else min(p, q)
        sets = itertools.combinations
        form = []
        for k in range(top + 1):
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
    N(z, e) != 0 on the domain, in flattened coordinates: e_1 for type IV,
    and for a matrix kind the coordinates <L[a], E> / <L[a], L[a]> of the
    matrix E = [I | 0] (the ball, the polydisc, types I and III) or E =
    the [[0, 1], [-1, 0]] blocks down the diagonal (type II)."""
    if d.kind == TYPE_IV:
        return np.eye(d.n)[0]
    L = _basis(d)
    E = np.eye(*L.shape[1:])
    if d.kind == TYPE_II:  # 1 at (i, i + 1) for even i, mirrored to -1
        E = np.eye(len(E), k=1) * (np.arange(len(E)) % 2 == 0)[:, None]
        E = E - E.T
    return np.sum(L * E, axis=(1, 2)) / np.sum(L * L, axis=(1, 2))


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
        parts = [(1.0, _norm_part(d))]
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
    check_ricci_constant(K)
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


class _OffsetPart(Part):
    """Re-index a jet part into a product's coordinate block."""

    def __init__(self, part, offset, width):
        self.part = part
        self.offset = offset
        self.width = width

    def layout(self, order):
        return (type(self), self.part.layout(order))

    @staticmethod
    def emit(P, layout, me, z, n, order):
        block = P.const(f"slice({me}.offset, {me}.offset + {me}.width)")
        inner = layout[1][0].emit(P, layout[1], f"{me}.part",
                                  P("{}[:, {}]", z, block),
                                  P.const(f"{me}.width"), order)
        out = {}
        for (m, l), t in inner.items():
            kind = P.dtype(t)
            full = out[(m, l)] = P("np.zeros((N, %s), %s)" % (
                ", ".join([n] * (m + l)), kind), kind=kind)
            P.do("{}[:, %s] = {}" % ", ".join([block] * (m + l)), full, t)
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
