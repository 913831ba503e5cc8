"""Scalar potentials with closed-form derivative access.

A ``PotentialField`` is a real scalar function on a domain.  Its
``parts``, a list of (coefficient, part) summands whose mixed Wirtinger
derivatives are known exactly to order ``jets.MAX_ORDER``, pick the
derivative path: with parts, ``PotentialField.jet`` is the closed form;
without, it is ``fd_jet`` of ``fn``, which maps an (M, n) stack of points
to M values.  The closed form of a stack Z of N points, shape (N, n), is
its dense jet tensors {(m, l): array of shape (N,) + (n,)*(m+l)} over
``jets.bidegrees`` (m + l <= order and 2 >= m >= l, (2, 0) from order 3:
what a frame reads); the potential is real, so no jet holds the (l, m)
tensors, the mirrors of these.  The parts implemented here cover every
potential the package constructs:

* ``BallLog``           -- -A log(1 - |z|^2) on the unit ball
                           (the ball kernel and its Einstein rescalings)
* ``Constant``          -- 1, the one way to add a constant to a potential
* ``SquaredNorm``       -- |z|^2 (the flat test quadratic)
* ``HermitianNormPart`` -- -kappa log N for a signed Hermitian form
                           N = sum_j w_j |h_j(z)|^2 in holomorphic polynomials
                           (the polydisc and type I-IV generic norms)
* ``BoundaryLog``       -- 2 log|N(z, e)| for the same form at a point e,
                           holomorphic in z (the Siegel term on every kind)

A jet is a straight-line program of numpy operations.  A part's
``layout(order)`` is its structure at that order: its class and, for a
form part, the dtype of each derivative tensor of the form that its jet
reads.  ``_emit_jet`` plans the program of the layouts of a potential's
parts at an order once per process (``_PLANS``): each part ``emit``s the
operations of its jet, then come each coefficient's product, the sum
over the parts and the completion of the symmetric entries.  Every
structural choice is made while planning: which bidegrees exist, which
terms of the log recursion vanish, which tensors are mirrors.  Every
value of a part, its coefficient or the dimension is a constant that the
program computes when it is bound to a potential, together with the
operations on constants alone; a scalar constant is cast to the dtype of
the array it meets, as numpy casts it at every call.  So a call runs the
operations that choosing at every call would run, on the same operands,
and its bits are theirs.  A potential keeps the programs bound to it;
one built anew, even with parts built anew, plans nothing.

A log part takes the log of a function N whose jet is finite; one
recursion, ``_emit_log``, serves all three: differentiating N dF = dN
gives each tensor of F = log N from N's tensors and lower ones of F: 7
products for (2, 2), the one bidegree of order 4, and 3 for (2, 1).  It
needs N's tensors to (2, 2) only, so the two form parts share one
contraction, ``_contraction``, for the derivatives of the h_j to the top
holomorphic degree of the jet's bidegrees: 2 from order 3, 1 at order 2;
it is a program of its own per form length, bound to each form part when
the part is built.
The ball is the rank-1 form too, but its own part is cheaper.
"""

from __future__ import annotations

import functools
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from .errors import EvaluationError, UnsupportedOrderError
from .jets import MAX_ORDER, Jet, as_integer, as_points, bidegrees, fd_jet

def _check(ok, Z, what, values):
    """Raise EvaluationError naming the first point of Z where ``ok`` fails."""
    if not np.logical_and.reduce(ok, axis=None):
        i = np.flatnonzero(~ok)[0]
        raise EvaluationError(f"{what} {values[i]} at z={Z[i]!r}")


# ---------------------------------------------------------------------------
# straight-line programs

#: a template that names N, the stack's length, runs at every call
_STACK = re.compile(r"\bN\b")


class _Program:
    """A straight-line program of numpy operations on a stack ``Z`` of N
    points, compiled into ``make(n, c, p)``: bound to the dimension n, the
    coefficients c and the parts p, it returns the function of Z.

    ``P(template, *args)`` fills each ``{}`` of the template with an
    argument and returns the name of its value; a str argument is the
    name of an earlier value (``Z``, a temp ``t#`` or a constant ``k#``),
    any other is written as it prints.  A line that reads only constants,
    and not N, is a constant itself.  A value is complex when it reads a
    complex one, unless ``kind`` says otherwise.  Templates reduce with
    the ufuncs that ``ndarray.sum`` and ``ndarray.all`` call
    (``np.add.reduce``, ``np.logical_and.reduce``), past the methods'
    wrappers, as ``_check`` does.
    """

    def __init__(self):
        self.consts, self.lines, self.complex = {}, [], {"Z"}
        self.env = {"np": np, "_check": _check, "_sorted_index": _sorted_index}

    def __call__(self, template, *args, kind=None):
        names = [a for a in args if isinstance(a, str)]
        if kind is None:
            kind = "complex" if self.complex.intersection(names) else "float"
        if _STACK.search(template) or any(a[0] != "k" for a in names):
            name = f"t{len(self.lines)}"
            self.lines.append((name, template, args))
        else:
            name = self.const(template.format(*args))
        if kind == "complex":
            self.complex.add(name)
        return name

    def do(self, statement, *args):
        """Add a statement that names no value, such as a check."""
        self.lines.append((None, statement, args))

    def dtype(self, name):
        return "complex" if name in self.complex else "float"

    def const(self, source, like=None, kind=None):
        """The name of a constant: a source that reads n, c, p and earlier
        constants, computed when the program is bound, or a number, made
        now; cast to the dtype of ``like`` if given.  Equal constants share
        one name."""
        if like is not None:
            kind = self.dtype(like)
            if isinstance(source, str):
                source = f"np.array({source}, {kind})"
        key = source if isinstance(source, str) else (source, kind)
        name = self.consts.setdefault(key, f"k{len(self.consts)}")
        if not isinstance(source, str):
            self.env[name] = np.array(source, kind)
        if kind == "complex":
            self.complex.add(name)
        return name

    def compile(self, result):
        """``make`` for the program that returns ``result``, {key: name};
        ``make.kinds`` holds each result's dtype.  A temp read once joins
        its reader's line, one never read is dropped, and any other is
        deleted after its last reader, so that large stacks reuse memory."""
        reads = Counter(a for *_, args in self.lines for a in args
                        if isinstance(a, str))
        inline, lines, last = {}, [], {}
        for name, template, args in self.lines:
            read = [b for a in args if isinstance(a, str)
                    for b in (inline[a][1] if a in inline else [a])]
            line = template.format(*(inline.pop(a, (a,))[0] for a in args))
            if name is None or reads[name] > 1 or name in result.values():
                lines.append(line if name is None else f"{name} = {line}")
                last.update(dict.fromkeys(read, len(lines) - 1))
            elif reads[name]:
                inline[name] = (f"({line})", read)
        dead = {}
        for name, i in last.items():
            if name[0] == "t" and name not in result.values():
                dead.setdefault(i, []).append(name)
        body = "".join(f"        {line}\n" + (
            f"        del {', '.join(dead[i])}\n" if i in dead else "")
            for i, line in enumerate(lines))
        source = ("def make(n, c, p):\n" + "".join(
            f"    {k} = {key}\n" for key, k in self.consts.items()
            if isinstance(key, str))
                  + f"    def run(Z):\n        N = len(Z)\n{body}"
                  "        return {%s}\n    return run\n" % ", ".join(
                      f"{key!r}: {t}" for key, t in result.items()))
        exec(source, self.env)
        make = self.env["make"]
        make.kinds = {key: self.dtype(t) for key, t in result.items()}
        return make


def _build_plan(emit):
    """Plan the program whose results ``emit(P)`` returns: its ``make``."""
    P = _Program()
    return P.compile(emit(P))


#: the ``make`` of each program planned, by its structure
_PLANS = {}


def _plan(key, emit):
    """The ``make`` of the program of structure ``key``, planned by
    ``emit`` on its first use in this process."""
    if key not in _PLANS:
        _PLANS[key] = _build_plan(emit)
    return _PLANS[key]


def _dims(n, k):
    """k axes of length n, the name of a constant, as a template's text."""
    return ", ".join([n] * k)


def _emit_jet(P, layouts, order):
    """The jet of sum c[i] * p[i] on C^n, the parts of these ``layouts``.

    Absent tensors are zero.  Entries equal by symmetry are copied from the
    one with sorted indices, and (m, m) tensors are made Hermitian, so both
    symmetries hold exactly; zeros are their own copy and average.
    """
    n = P.const("n")
    total = {(0, 0): P("np.zeros(N)")}
    for i, layout in enumerate(layouts):
        for key, t in layout[0].emit(P, layout, f"p[{i}]", "Z", n,
                                     order).items():
            t = P("{} * {}", P.const(f"c[{i}]", like=t), t)
            total[key] = P("{} + {}", total[key], t) if key in total else t
    jet = {}
    for m, l in bidegrees(order):
        t = total.get((m, l))
        if t is None:
            t = P("np.zeros((N, %s), complex)" % _dims(n, m + l),
                  kind="complex")
        elif m > 1 or l > 1:
            t = P("{}.reshape(N, {}).take({}, axis=1).reshape({}.shape)",
                  t, P.const(f"n ** {m + l}"),
                  P.const(f"_sorted_index(n, {m}, {l})"), t)
        if 0 < m == l and (m, l) in total:
            t = P("{} * ({} + {})", P.const(0.5, like=t), t,
                  _emit_mirror(P, t, m, m))
        jet[(m, l)] = t
    return jet


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

def _emit_mirror(P, t, m, l):
    """A real function's stacked (l, m) tensor from its (m, l) one."""
    return P("np.conj({}.transpose({}))", t,
             (0, *range(1 + m, 1 + m + l), *range(1, 1 + m)))


def _mirrored(P, jet, key):
    """jet[key], or for l > m the mirror of jet[(l, m)], which is then
    kept in ``jet``; None where both are absent."""
    m, l = key
    if key not in jet and m < l and (l, m) in jet:
        jet[key] = _emit_mirror(P, jet[(l, m)], l, m)
    return jet.get(key)


def _emit_log(P, inner, order, n, scale):
    """Jet (m >= l half, no value) of scale * log N from a nonzero N's jet
    on C^n, scale being a source.

    ``inner`` maps bidegrees to N's tensors (leading axis N or 1); None or
    absent ones vanish, but an absent (l, m) with l > m mirrors (m, l), as
    a real N's does.  With s0 the first holomorphic slot of a slot set S,
    differentiating N d_s0 F = d_s0 N over the other slots of S gives

        N F_S = N_S - sum over nonempty B in S - {s0} of N_B F_(S - B),

    so each bidegree of order k takes 2^(k-1) - 1 products of tensors
    already known: 7 for (2, 2).  S - B keeps s0, so F's tensors stay
    within ``bidegrees`` and F_(1, 2), a mirror like N's l > m ones.
    """
    inner, out = dict(inner), {}
    for m, l in bidegrees(order)[1:]:
        t, slots = inner.get((m, l)), range(1, m + l)
        total = t and P("{} * {}", P.const(scale, like=t), t)
        for B in chain(*(combinations(slots, size) for size in slots)):
            b = (sum(i < m for i in B), sum(i >= m for i in B))
            nb = _mirrored(P, inner, b)
            f = nb and _mirrored(P, out, (m - b[0], l - b[1]))
            if f:
                shapes = [", ".join(n if (i in B) == side else "1"
                                    for i in range(m + l))
                          for side in (True, False)]
                term = P("{}.reshape(-1, %s) * {}.reshape(-1, %s)"
                         % tuple(shapes), nb, f)
                total = P("{} - {}", total, term) if total else P("-{}", term)
        if total:
            out[(m, l)] = P("{} / {}.reshape({})", total, inner[(0, 0)],
                            (-1,) + (1,) * (m + l))
    return {key: t for key, t in out.items() if key[0] >= key[1]}


class Part:
    """A summand of a potential.  ``layout()`` is its structure, and
    ``emit(P, layout, me, z, n, order)`` adds the operations of the jet of
    the part named ``me`` at the stack named z on C^n, n the name of a
    constant, to the program P and returns {(m, l): name} over
    ``bidegrees(order)``, leaving out the bidegrees that vanish
    identically.  It reads the layout, never the part: every value of the
    part is a constant whose source reads ``me``.
    """

    def layout(self, order):
        return (type(self),)


# ---------------------------------------------------------------------------
# the unit ball's log, the constant and the flat quadratic

class BallLog(Part):
    """-A log(1 - |z|^2) on the unit ball, the ball kernel's log.

    1 - |z|^2 has first derivatives -zbar_a / -z_b and the constant mixed
    second derivative -delta_ab, and ``_emit_log`` takes its log.
    """

    def __init__(self, amplitude: float):
        self.amplitude = float(amplitude)

    @staticmethod
    def emit(P, layout, me, z, n, order):
        s = P("np.add.reduce(np.abs({}) ** 2, axis=1)", z, kind="float")
        one = P.const(1.0, like=s)
        P.do("_check({} < {}, {}, %r, {})"
             % "ball log evaluated at |z|^2 >= 1: |z|^2 =", s, one, z, s)
        inner = {(0, 0): P("{} - {}", one, s), (1, 0): P("-np.conj({})", z),
                 (1, 1): P("-np.eye(%s)[None]" % n)}
        out = _emit_log(P, inner, order, n, f"-{me}.amplitude")
        out[(0, 0)] = P("{} * np.log1p(-{})",
                        P.const(f"-{me}.amplitude", like=s), s)
        return out


class Constant(Part):
    """1: its value, one row that broadcasts over the stack, with every
    derivative absent (``_emit_jet`` fills zeros).  A coefficient c on it
    adds the constant c to a potential."""

    @staticmethod
    def emit(P, layout, me, z, n, order):
        return {(0, 0): P("np.ones(1)")}


class SquaredNorm(Part):
    """|z|^2, the flat quadratic: its own jet, zbar_a / z_b and delta_ab."""

    @staticmethod
    def emit(P, layout, me, z, n, order):
        out = {(0, 0): P("np.add.reduce(np.abs({}) ** 2, axis=1)", z,
                         kind="float")}
        if order > 0:
            out[(1, 0)] = P("np.conj({})", z)
        if order > 1:
            out[(1, 1)] = P("np.broadcast_to({}, (N, %s, %s))" % (n, n),
                            P("np.eye(%s)[None]" % n))
        return out


# ---------------------------------------------------------------------------
# signed Hermitian forms

def _h_kinds(form, order):
    """A form part's structure at ``order``: the dtype of each H[m] of
    ``_contraction`` that its jet reads, to the top holomorphic degree of
    ``bidegrees(order)`` (1 at order 2); H[m] is complex where z or a
    complex tensor reaches it.  Forms of any length share it."""
    top = min(max(m for m, _ in bidegrees(order)), len(form) - 1)
    return tuple("complex" if form[m][1].dtype.kind == "c" or m < len(form) - 1
                 else "float" for m in range(top + 1))


def _contraction(form):
    """H[m] = d^m h of the form's degrees k >= m, stacked, (N, J_(k>=m), n^m),
    at each row of a stack Z for m up to 2, the top holomorphic degree of
    any jet, and the form's top degree: a program bound to the form, on
    C^n for n the last axis of its degree-1 tensor.  Forms of one length
    share the program.  A jet of a lower order reads fewer of the H, and
    the others cost at most a reshape per degree and a concatenation:
    every tensor they stack is on the way to H[0]."""
    make = _plan(("contract", len(form)), lambda P: _emit_contraction(
        P, len(form), min(2, len(form) - 1)))
    return make(form[1][1].shape[-1], (), (form,))


def _emit_contraction(P, degrees, top):
    """``_contraction``'s H, {m: name}."""
    n = P.const("n")
    # contraction i takes z / i, so after i of them t = D.z^i / i!; the
    # first takes z itself, as z / 1 is z bit for bit
    column = P("{}[:, :, None]", "Z")
    steps = [column] + [P("{} / {}", column, P.const(i, like=column))
                        for i in range(2, degrees)]
    dh = [[] for _ in range(top + 1)]
    for k in range(degrees):
        D = P.const(f"p[0][{k}][1]")
        J = P.const(f"len({D})")
        t = P("{}.reshape(1, {}, -1)", D, J)
        t = P("{}.repeat(N, axis=0) if N != 1 else {}", t, t)
        for i in range(k + 1):
            if i:
                # sizes, not -1, which an empty stack leaves undetermined
                size = P.const(f"n ** {k - i}")
                # row by row, so a stacked point gets its lone bits
                t = P("{}.reshape(N, {} * {}, %s) @ {}" % n, t, J, size,
                      steps[i - 1])
            if k - i <= top:  # t is (N, J, n^(k - i)) if i is 0 or k
                dh[k - i].append(t if i in (0, k) else
                                 P("{}.reshape(N, {}, {})", t, J, size))
    return {m: P("np.concatenate([%s], axis=1)" % ", ".join(["{}"] * len(hs)),
                 *hs) if len(hs) > 1 else hs[0] for m, hs in enumerate(dh)}


def _emit_contract(P, h_kinds, part, z):
    """The H, of ``h_kinds``, of the form part named ``part`` at the
    stack z, by the contraction it holds."""
    H = P("{}({})", P.const(f"{part}.contract"), z)
    return [P("{}[{}]", H, m, kind=kind) for m, kind in enumerate(h_kinds)]


class HermitianNormPart(Part):
    """-kappa log N for the signed Hermitian form N = sum_j w_j |h_j(z)|^2.

    ``form`` holds, for each degree k = 0..r, the weight w_k of its
    homogeneous polynomials h_j and their constant k-th derivatives
    D_k[j] = d^k h_j, shape (J_k,) + (n,)*k, so h_j = D_k[j].z^k / k!
    (``domains.norm_form``).  The h_j are holomorphic, so N's jet is
    N_(m,l) = sum_j w_j d^m h_j (x) conj(d^l h_j), one batched product per
    bidegree, and ``_emit_log`` takes its log.  ``domains`` shares one
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
        self.contract, self._norm = _contraction(form), None

    def layout(self, order):
        return (type(self), _h_kinds(self.form, order))

    @staticmethod
    def _emit_derivatives(P, layout, me, z):
        """H from ``_emit_contract`` and q(1 - v)'s checked coefficients."""
        H = _emit_contract(P, layout[1], me, z)
        sq = P("np.add.reduceat({}.real[..., 0] ** 2 + {}.imag[..., 0] ** 2,"
               " {}, axis=1)", H[0], H[0], P.const(f"{me}.start[:-1]"),
               kind="float")
        coeffs = P("np.add.reduce({}[:, None, :] * {}, axis=2)", sq,
                   P.const(f"{me}.taylor"))
        P.do("_check(({}[:, 0] > 0) & np.logical_and.reduce({}[:, 1:] >= 0, "
             "axis=1), {}, %r, {})"
             % "outside the domain: q(1 - v) has coefficients",
             coeffs, coeffs, z, coeffs)
        return H, coeffs

    def norm(self, Z):
        """N at each row of an (N, n) stack inside the domain; the program
        is bound to the part on its first call."""
        if self._norm is None:
            layout = self.layout(0)
            self._norm = _plan(("norm", layout), lambda P: {0: P(
                "{}[:, 0]", self._emit_derivatives(
                    P, layout, "p[0]", "Z")[1])})(Z.shape[1], (), (self,))
        return self._norm(Z)[0]

    @staticmethod
    def emit(P, layout, me, z, n, order):
        H, coeffs = HermitianNormPart._emit_derivatives(P, layout, me, z)
        value = P("{}[:, 0]", coeffs)
        inner = {(0, 0): value}
        conj = [P("np.conj({})", h) for h in H[:order // 2 + 1]]
        for m in range(1, len(H)):
            A = P("({} * {}).swapaxes(1, 2)", H[m],
                  P.const(f"{me}.weights[{m}]", like=H[m]))
            for l in range(min(m, order - m) + 1):  # l <= order - m
                B = P("{}[:, {}:]", conj[l],
                      P.const(f"int({me}.start[{m}] - {me}.start[{l}])"))
                inner[(m, l)] = P("({} @ {}).reshape(N, %s)"
                                  % _dims(n, m + l), A, B)
        out = _emit_log(P, inner, order, n, f"-{me}.kappa")
        out[(0, 0)] = P("{} * np.log({})", P.const(f"-{me}.kappa",
                                                   like=value), value)
        return out


class BoundaryLog(Part):
    """2 log|N(z, e)| for a signed Hermitian form N and a point e.

    N(z, e) = sum_j w_j conj(h_j(e)) h_j(z) is holomorphic in z, with
    derivatives v . H[m] over ``_contraction``'s H, v = w conj(h(e)); v
    is folded into the form, one read-only flat tensor per degree (a part
    can be shared, as ``potentials._siegel_log`` does).  ``_emit_log``
    takes the log with the antiholomorphic inner tensors absent, so only
    the (m, 0) tensors, those of log N(., e), come out: it is
    pluriharmonic, and past order 2 its jet has nothing more.
    """

    def __init__(self, form, e):
        start = np.cumsum([0] + [len(D) for _, D in form])
        h = _contraction(form)(np.array([e], complex))[0]  # H[0] at e
        v = np.conj(h[0, :, 0])
        self.form = tuple((1.0, w * (v[a:b] @ D.reshape(b - a, -1))[None])
                          for (w, D), a, b in zip(form, start, start[1:]))
        for _, t in self.form:
            t.setflags(write=False)
        self.contract = _contraction(self.form)

    def layout(self, order):
        return (type(self), _h_kinds(self.form, order))

    @staticmethod
    def emit(P, layout, me, z, n, order):
        H = [P("np.add.reduce({}, axis=1)", h)
             for h in _emit_contract(P, layout[1], me, z)]
        value = P("{}[:, 0]", H[0])
        size = P("np.abs({})", value, kind="float")
        P.do("_check({} > 0, {}, %r, {})" % "log|N(z, e)| singular: N =",
             size, z, value)
        inner = {(0, 0): value}
        for m in range(1, len(H)):
            inner[(m, 0)] = P("{}.reshape(N, %s)" % _dims(n, m), H[m])
            inner[(0, m)] = None  # holomorphic: not the mirror of (m, 0)
        out = _emit_log(P, inner, order, n, "1.0")
        out[(0, 0)] = P("{} * np.log({})", P.const(2.0, like=size), size)
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
    _runs: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def _run(self, Z, order):
        """The completed jet of the parts' sum at the (N, n) stack Z: the
        program of the parts' layouts and the order, planned once per
        process, bound to this potential on its first use at (order, n),
        so the parts stay as built."""
        run = self._runs.get((order, Z.shape[1]))
        if run is None:
            layouts = tuple(part.layout(order) for _, part in self.parts)
            make = _plan((order, layouts),
                         lambda P: _emit_jet(P, layouts, order))
            run = self._runs[(order, Z.shape[1])] = make(
                Z.shape[1], tuple(c for c, _ in self.parts),
                tuple(part for _, part in self.parts))
        return run(Z)

    def __call__(self, z):
        z = as_points(z)
        Z = z.reshape(-1, z.shape[-1])
        if self.fn is not None:
            values = np.asarray(self.fn(Z), dtype=float).reshape(len(Z))
        else:
            values = self._run(Z, 0)[(0, 0)]
        return float(values[0]) if z.ndim == 1 else values

    def analytic_jet(self, z, order: int) -> Jet:
        order = as_integer(order, "order")
        if self.parts is None or not 0 <= order <= MAX_ORDER:
            raise UnsupportedOrderError(
                f"{self.label}: no closed-form derivatives at order {order}"
            )
        z = as_points(z)
        Z = z.reshape(-1, z.shape[-1])
        tensors = self._run(Z, max(order, 2))
        if order < 2:  # the order-2 program's lower tensors, one plan fewer
            tensors = {key: tensors[key] for key in bidegrees(order)}
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
