"""Radially reduced Kaehler-Einstein solver on circular domains.

For a radial potential phi = phi(t), t = |z|^2, the complex Hessian has
eigenvalues phi' (n-1 times) and phi' + t phi'', so the canonical-potential
normalization phi = (1/K) log det g becomes the scalar ODE

    (n-1) log phi'(t) + log(phi'(t) + t phi''(t)) = K phi(t),

with the regular-singular start phi'(0) = exp(K phi(0) / n) forced at
t = 0.  The complete solution blows up exactly at t = 1; ``shoot`` finds
it by a bracketing regula falsi (Illinois form) on phi(0), scoring each
candidate by the growth of the boundary weight phi' (1-t) at the end of
a search window, +inf when it blows up inside it.  On the ball the
closed form is

    phi(t) = -A log(1 - t) + (n/K) log A,      A = (n+1)/K,

and the radial gradient length t phi'^2 / (phi' + t phi'') equals A t,
so its boundary limit is (n+1)/K.

RK4 runs in tau = -log(1 - t), from the centre series to t^4 at t = 2e-3:
the grid is geometric in (1 - t), which resolves the logarithmic blow-up.
The search window ends at tau = 2, with the watched step at tau = 1.
Every candidate and the returned run step through the same tau grid, so
tau and t at each step's middle and end come from one table
(``_tau_steps``), built once.
The independent check of the ODE residual is a five-point stencil in
tau, ~dtau^4 up to the boundary.
"""

from __future__ import annotations

import csv
import functools
import math
from array import array
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import BracketingError, DegenerateMetricError, ResolutionError
from .domains import ball, check_ricci_constant
from .field import BallLog, Constant, PotentialField
from .jets import as_integer

BLOWUP_THRESHOLD = 1e8
_EXP_LIMIT = 690.0       # K phi past this is a blow-up: e^(K phi) nears overflow
_SERIES_START = 2e-3     # switch from the t ~ 0 series to RK4
_SEARCH_DTAU = 5e-4      # the step of the search and the returned solution
_FINAL_EDGE = 2e-4       # returned grid reaches t = 1 - _FINAL_EDGE
_SEARCH_TAU = 2.0        # the search integrates this far


@dataclass(frozen=True)
class RadialPotential:
    """Grid solution phi(t), phi'(t) on [0, 1)."""

    n: int
    K: float
    grid: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray

    def index_of(self, t):
        """The grid index of ``t`` (an int back), or of each point of an
        array ``t`` (an index array back); all from one searchsorted."""
        t = np.asarray(t, dtype=float)
        j = np.minimum(np.searchsorted(self.grid, t - 1e-12),
                       len(self.grid) - 1)
        off = ~(abs(self.grid[j] - t) <= 1e-12)
        if off.any():
            raise ValueError(f"t={float(np.extract(off, t)[0])!r} is not a "
                             "grid point")
        return int(j) if t.ndim == 0 else j

    @property
    def amplitude_target(self) -> float:
        return (self.n + 1) / self.K


def ball_amplitude(n: int, K: float) -> float:
    """(n+1)/K, for a K that ``check_ricci_constant`` accepts."""
    check_ricci_constant(K)
    return (n + 1) / K


def ball_center_value(n: int, K: float) -> float:
    """phi(0) of the complete radial solution: (n/K) log((n+1)/K)."""
    return (n / K) * math.log(ball_amplitude(n, K))


def ball_closed_form(n: int, K: float, grid=None) -> RadialPotential:
    """The exact solution sampled on a grid (default: the solver's grid).
    ``n`` is an integer (``as_integer``) and K positive and finite."""
    n = as_integer(n, "n")
    A = ball_amplitude(n, K)
    B = ball_center_value(n, K)
    grid = np.asarray(_solver_grid() if grid is None else grid, dtype=float)
    phi = -A * np.log1p(-grid) + B
    dphi = A / (1.0 - grid)
    return RadialPotential(n=n, K=K, grid=grid, phi=phi, dphi=dphi)


def closed_form_field(n: int, K: float) -> PotentialField:
    """The radial solution as an analytic potential on the ball in C^n;
    ``n`` is an integer (``as_integer``) and K positive and finite."""
    n = as_integer(n, "n")
    A = ball_amplitude(n, K)
    B = ball_center_value(n, K)
    return PotentialField(
        domain=ball(n),
        ricci_constant=K,
        parts=[(1.0, BallLog(A)), (B, Constant())],
        label=f"radial-closed-form[n={n},K={K:g}]",
    )


# ---------------------------------------------------------------------------
# derivatives on the grid, uniform in tau after t = 0

#: row r: five-point first-derivative weights (times dtau) at stencil point r
_FIVE_POINT = np.array([[-25, 48, -36, 16, -3], [-3, -10, 18, -6, 1],
                        [1, -8, 0, 8, -1], [-1, 6, -18, 10, 3],
                        [3, -16, 36, -48, 25]]) / 12.0


def _dphi_dt(rp: RadialPotential, i):
    """phi''(t_i) at grid indices ``i`` (an index array) by differentiating
    the stored phi' grid (independent of the ODE, so residuals below are
    genuine checks): phi'' = (dphi'/dtau) / (1-t), with the five-point
    stencil in tau centred at i, one-sided at the two ends of the grid.

    The grid must be t = 0 followed by points uniform in tau; index 0 only
    enters multiplied by t = 0, so its phi'' is 0.
    """
    tau = -np.log1p(-rp.grid[1:])
    if len(tau) < 5:
        raise ResolutionError("the stencil needs t = 0 and 5 more points")
    h = (tau[-1] - tau[0]) / (len(tau) - 1)
    if rp.grid[0] != 0.0 or np.max(abs(np.diff(tau) - h)) > 1e-6 * h:
        raise ResolutionError("grid is not t = 0, then uniform in tau")
    j = np.maximum(i - 1, 0)
    start = np.clip(j - 2, 0, len(tau) - 5)
    window = rp.dphi[1:][start[:, None] + np.arange(5)]
    dpsi = np.sum(_FIVE_POINT[j - start] * window, axis=1) / h
    return np.where(i > 0, dpsi / (1.0 - rp.grid[i]), 0.0)


def _require_positive(t, values, name):
    bad = np.flatnonzero(values <= 0)
    if len(bad):
        j = bad[0]
        raise DegenerateMetricError(
            f"radial metric degenerate at t={t[j]}: {name}={values[j]}")


def _radial_eigenvalues(rp: RadialPotential, i):
    """(phi', phi' + t phi'') at grid indices ``i``, the eigenvalues of the
    complex Hessian; both must be positive.  phi' is checked first, so a
    degenerate grid too short for the stencil still reports degeneracy."""
    t, dp = rp.grid[i], rp.dphi[i]
    _require_positive(t, dp, "phi'")
    radial_dir = dp + t * _dphi_dt(rp, i)
    _require_positive(t, radial_dir, "phi'+t phi''")
    return dp, radial_dir


def radial_ode_residual(rp: RadialPotential, t):
    """(n-1) log phi' + log(phi' + t phi'') - K phi at a grid point ``t``
    (a float back) or an array of grid points (an array back, from one
    stencil call)."""
    i = np.atleast_1d(rp.index_of(t))
    dp, radial_dir = _radial_eigenvalues(rp, i)
    r = (rp.n - 1) * np.log(dp) + np.log(radial_dir) - rp.K * rp.phi[i]
    return float(r[0]) if np.ndim(t) == 0 else r


def _gradient_lengths(rp: RadialPotential, i) -> np.ndarray:
    dp, radial_dir = _radial_eigenvalues(rp, i)
    return rp.grid[i] * dp * dp / radial_dir


def radial_gradient_length(rp: RadialPotential, t: float) -> float:
    """t phi'^2 / (phi' + t phi''), the gradient length of the radial
    potential in its own metric."""
    return float(_gradient_lengths(rp, np.array([rp.index_of(t)]))[0])


def boundary_limit_estimate(rp: RadialPotential) -> tuple[float, float]:
    """(extrapolated t->1 limit of the gradient length, gap to (n+1)/K).

    Linear Richardson over the last grid decade: the limit of L(1-u) as
    u -> 0 is estimated from u and u/2.
    """
    t_end = rp.grid[-1]
    if t_end < 1.0 - 1e-3:
        raise ResolutionError(
            f"grid ends at t={t_end:.6f}; need at least 1 - 1e-3"
        )
    u = 10.0 * (1.0 - t_end)
    i1 = int(np.searchsorted(rp.grid, 1.0 - u))
    i2 = int(np.searchsorted(rp.grid, 1.0 - u / 2.0))
    if i1 >= i2 or i2 >= len(rp.grid):
        raise ResolutionError("too few grid points in the last decade")
    t1, t2 = rp.grid[i1], rp.grid[i2]
    L1, L2 = _gradient_lengths(rp, np.array([i1, i2]))
    u1, u2 = 1.0 - t1, 1.0 - t2
    # linear model L(1-u) = L* - c u through the two samples
    limit = (L2 * u1 - L1 * u2) / (u1 - u2)
    return float(limit), float(limit - rp.amplitude_target)


# ---------------------------------------------------------------------------
# shooting

def _series_start(n, K, phi0):
    """phi, phi' at t = d = _SERIES_START from the centre series to t^4.

    The ODE gives p_k = p1 q^(k-1)/k for t^k, p1 = e^(K phi0/n), q =
    K p1/(n+1): the Taylor coefficients of phi0 - A' log(1 - p1 t/A'),
    A' = (n+1)/K, which solves the ODE for every phi0.  x = q d below.
    """
    p1 = math.exp(K * phi0 / n)
    d = _SERIES_START
    x = K * p1 / (n + 1) * d
    return (phi0 + p1 * d * (1.0 + x * (0.5 + x * (1.0 / 3.0 + 0.25 * x))),
            p1 * (1.0 + x * (1.0 + x * (1.0 + x))))


@functools.lru_cache(maxsize=None)
def _tau_steps():
    """The step table of every RK4 run, at step ``_SEARCH_DTAU`` from the
    series start to tau = -log(_FINAL_EDGE): per step, 1 - t and t at the
    mid-step, then tau, t and 1 - t at its end, five float arrays.

    The search and the returned solution all step through this one tau
    grid.  tau accumulates by the loop's own adds (a cumulative sum adds
    in order), and t = 1 - e^(-tau) takes math.exp, since np.exp differs
    from it in the last bit at some steps.
    """
    tau0, dtau = -math.log1p(-_SERIES_START), _SEARCH_DTAU
    steps = math.ceil((-math.log(_FINAL_EDGE) - tau0) / dtau)
    taus = np.cumsum(np.concatenate(([tau0], np.full(steps, dtau))))
    t_mid = 1.0 - np.fromiter(map(math.exp, -(taus[:-1] + 0.5 * dtau)),
                              float, steps)
    t_end = 1.0 - np.fromiter(map(math.exp, -taus[1:]), float, steps)
    return tuple(array("d", c.tobytes()) for c in
                 (1.0 - t_mid, t_mid, taus[1:], t_end, 1.0 - t_end))


def _solver_grid() -> np.ndarray:
    """The t-grid of the returned solution: t = 0, then 1 - e^(-tau) over
    the series start and every step of ``_tau_steps()``, up to
    t = 1 - ``_FINAL_EDGE``."""
    taus = np.concatenate(([-math.log1p(-_SERIES_START)], _tau_steps()[2]))
    return np.concatenate(([0.0], 1.0 - np.exp(-taus)))


def _integrate(n, K, phi0, tau_end, watch=math.inf, record=None):
    """RK4 in tau = -log(1-t) for the state y = (phi, psi), psi = phi', at
    step ``_SEARCH_DTAU``.

    dy/dtau = (1-t) (psi, phi'') with phi'' = (e^(K phi) psi^(1-n) - psi)/t
    from the ODE.  A start with K phi0/n > ``_EXP_LIMIT`` is a blow-up at
    the series start: e^(K phi0/n), which overflows past 709.78, is not
    taken, nothing is recorded, and phi and psi read inf.  A stage with
    K phi > ``_EXP_LIMIT`` or psi <= 0, an overflow, or psi past
    ``BLOWUP_THRESHOLD`` after a step ends the run as a blow-up.

    Returns (blow-up tau or None, (tau, phi, psi) at the last step,
    (tau, psi) at the step whose tau is nearest ``watch``, the first on
    ties, of the steps kept: the start and every step before any blow-up).
    ``record``, a pair of lists or float arrays, receives phi and psi at
    the start and after every step, a last step past the threshold
    included; without it the run records into lists of its own (a list
    append costs about a quarter of a float array's, and a search run is
    at most 3,996 steps), and the watched step is read from the record
    after the loop.  The loop is written out by hand and reads tau and t
    from ``_tau_steps``; a ``tau_end`` past that table is a ValueError.
    """
    table = _tau_steps()
    tau_col, dtau = table[2], _SEARCH_DTAU
    tau0 = -math.log1p(-_SERIES_START)
    steps = max(int(math.ceil((tau_end - tau0) / dtau)), 0)
    if steps > len(tau_col):
        raise ValueError(f"tau_end={tau_end!r} is past the step table, "
                         f"which ends at tau={tau_col[-1]!r}")
    if K * phi0 / n > _EXP_LIMIT:
        return tau0, (tau0, math.inf, math.inf), (tau0, math.inf)
    phis, psis = ([], []) if record is None else record
    first = len(psis)
    add_phi, add_psi = phis.append, psis.append
    exp, isfinite = math.exp, math.isfinite
    limit, threshold = _EXP_LIMIT, BLOWUP_THRESHOLD
    phi, psi = _series_start(n, K, phi0)
    add_phi(phi)
    add_psi(psi)
    e = 1.0 - n
    half = 0.5 * dtau
    sixth = dtau / 6.0
    t = 1.0 - exp(-tau0)
    om = 1.0 - t
    blown, cut = True, 0  # cut: the last step recorded is past the threshold
    try:
        for om_m, t_m, t_next, om_next in islice(
                zip(table[0], table[1], table[3], table[4]), steps):
            kp = K * phi
            if kp > limit or psi <= 0.0:
                break
            a1 = om * psi
            b1 = om * ((exp(kp) * psi ** e - psi) / t)
            phi_s = phi + half * a1
            psi_s = psi + half * b1
            kp = K * phi_s
            if kp > limit or psi_s <= 0.0:
                break
            a2 = om_m * psi_s
            b2 = om_m * ((exp(kp) * psi_s ** e - psi_s) / t_m)
            phi_s = phi + half * a2
            psi_s = psi + half * b2
            kp = K * phi_s
            if kp > limit or psi_s <= 0.0:
                break
            a3 = om_m * psi_s
            b3 = om_m * ((exp(kp) * psi_s ** e - psi_s) / t_m)
            t, om = t_next, om_next
            phi_s = phi + dtau * a3
            psi_s = psi + dtau * b3
            kp = K * phi_s
            if kp > limit or psi_s <= 0.0:
                break
            a4 = om * psi_s
            b4 = om * ((exp(kp) * psi_s ** e - psi_s) / t)
            # a + a: the bits of 2 * a, without an int-by-float multiply
            phi += sixth * (a1 + (a2 + a2) + (a3 + a3) + a4)
            psi += sixth * (b1 + (b2 + b2) + (b3 + b3) + b4)
            add_phi(phi)
            add_psi(psi)
            if not isfinite(psi) or psi > threshold:
                cut = 1
                break
        else:
            blown = False
    except OverflowError:
        pass
    # the run's taus: the start, then one per step recorded
    run = np.concatenate(([tau0], np.frombuffer(tau_col,
                                                count=len(psis) - first - 1)))
    tau = float(run[-1])
    i = int(np.argmin(np.abs(run[:len(run) - cut] - watch)))
    return (tau if blown else None, (tau, phi, psi),
            (float(run[i]), psis[first + i]))


def _boundary_growth(n, K, phi0):
    """g = w(end) - w(watch) over the search window from phi(0) = phi0, with
    the boundary weight w = psi e^(-tau) = phi' (1-t) and the watched step
    one unit of tau before the end; +inf when the run blows up.  Returns
    (g, blow-up tau or None)."""
    tau_star, (tau, _, psi), (tau_w, psi_w) = _integrate(
        n, K, phi0, _SEARCH_TAU, watch=_SEARCH_TAU - 1.0)
    if tau_star is not None:
        return math.inf, tau_star
    return psi * math.exp(-tau) - psi_w * math.exp(-tau_w), None


def shoot(n: int, K: float, phi0_bracket=(-1.0, 3.0),
          tol: float = 1e-12) -> RadialPotential:
    """Find the complete radial solution by bracketing regula falsi on phi(0).

    A candidate phi(0) is super-critical when phi' crosses the blow-up
    threshold inside the search window (its blow-up sits at some t < 1),
    or -- for candidates that survive to the window's edge -- when the
    boundary weight w = phi' (1-t) is still growing there:
    ``_boundary_growth`` g > 0.  w tends to the finite amplitude (n+1)/K
    on the complete solution, decays for sub-critical starts and grows
    for super-critical ones, so the root of g is the solution whose
    blow-up converges to t = 1.  On it w is exactly (n+1)/K, so the sign
    of g does not depend on the window's length; the window only has to
    be long enough for g to resolve tol.  At tau <= 2 it is: at phi(0)
    1e-12 off the root g still reads about 7e-12 (at (n, K) = (2, 3)).
    At tau <= 1 it is not, and the root moves by several times tol.

    The bracket lo < hi with g(lo) <= 0 < g(hi) shrinks by regula falsi
    in its Illinois form (Dowell & Jarratt, 1971): the next candidate is
    the secant root through (lo, g(lo)) and (hi, g(hi)), or the midpoint
    while hi is a blow-up (g = +inf), kept at least tol/2 inside the
    bracket; an end that stays through two secant steps in a row has its
    g halved.  Near the root g is smooth and almost linear in phi(0), so
    few candidates integrate the whole window.  The search stops at
    hi - lo <= tol and returns the midpoint; the boundary amplifies its
    distance from the root about 7000-fold in phi, hence the default tol
    of 1e-12.  Recorded blow-up times must decrease strictly with phi(0).

    hi is classified first, and the given lo only when a secant step
    reads g(lo) or the search ends on it: the midpoint steps read neither
    end's g, and a candidate that replaces lo first leaves it unread (at
    (2, 3), the 3,996-step run from -1).  A lo with g > 0 still raises
    ``BracketingError``, once a secant step reads it or the midpoints
    collapse onto it.  A candidate with K phi(0)/n > 690 blows up at the
    series start, so at large K the search ends in a ``BracketingError``
    too, and so does a returned midpoint past that bound.  A tol below the
    float spacing of the bracket, where a candidate kept tol/2 inside
    rounds onto an end and the bracket stops shrinking, raises
    ``ResolutionError``.  ``n`` is an integer (``as_integer``).
    """
    n = as_integer(n, "n")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    check_ricci_constant(K)
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    lo, hi = float(phi0_bracket[0]), float(phi0_bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"phi0_bracket must be finite, got {phi0_bracket!r}")
    if not lo < hi:
        raise BracketingError(f"empty bracket {phi0_bracket!r}")

    history = []

    def growth(phi0):
        g, tau_star = _boundary_growth(n, K, phi0)
        history.append((phi0, tau_star))
        return g

    g_hi = growth(hi)
    if not g_hi > 0:
        raise BracketingError(
            f"phi(0)={hi} stays complete past t=1; raise the bracket"
        )

    def lower_growth():
        # only while lo is the bracket's own end: a candidate that
        # replaces it has been classified
        g = growth(lo)
        if g > 0:
            raise BracketingError(
                f"phi(0)={lo} already blows up before t=1; lower the bracket"
            )
        return g

    g_lo = None  # read by secant steps only
    kept = 0  # +1 (-1) after a secant step that kept lo (hi)
    while hi - lo > tol:
        secant = g_hi < math.inf
        if secant:
            if g_lo is None:
                g_lo = lower_growth()
            x = lo - g_lo * (hi - lo) / (g_hi - g_lo)
        else:
            x = 0.5 * (lo + hi)
        x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        if not lo < x < hi:  # tol/2 rounds away next to lo or hi
            raise ResolutionError(f"tol={tol!r} is below the float spacing "
                                  f"of the bracket ({lo!r}, {hi!r})")
        g = growth(x)
        if g > 0:
            hi, g_hi = x, g
            if secant and kept > 0:
                g_lo *= 0.5
            kept = 1 if secant else 0
        else:
            lo, g_lo = x, g
            if secant and kept < 0:
                g_hi *= 0.5
            kept = -1 if secant else 0
    if g_lo is None:
        lower_growth()
    phi0 = 0.5 * (lo + hi)

    _assert_monotone(history)
    # lo is classified, so only a tol near the bracket's width returns a
    # midpoint whose run blows up at the series start
    if K * phi0 / n > _EXP_LIMIT:
        raise BracketingError(f"phi(0)={phi0} blows up at the series start; "
                              f"lower tol")

    # float arrays, not lists: a third of the memory of the 17k-step grid;
    # each starts at t = 0, with phi(0) and phi'(0)
    phis, psis = array("d", [phi0]), array("d", [math.exp(K * phi0 / n)])
    _integrate(n, K, phi0, -math.log(_FINAL_EDGE), record=(phis, psis))
    grid = _solver_grid()[:len(phis)]  # short after a blow-up
    return RadialPotential(n=n, K=K, grid=grid, phi=np.array(phis),
                           dphi=np.array(psis))


def _assert_monotone(history):
    finite = sorted((p0, ts) for p0, ts in history if ts is not None)
    for (a, ta), (b, tb) in zip(finite, finite[1:]):
        if a < b and not tb < ta:
            raise BracketingError(
                f"blow-up location not strictly monotone in phi(0): "
                f"phi0={a}->tau={ta}, phi0={b}->tau={tb}"
            )


def solution_to_csv(rp: RadialPotential, path) -> None:
    """Write (t, phi, dphi, gradient length) rows, the fine solver grid
    thinned to roughly 2000 rows; the last grid point is always kept."""
    idx = np.arange(0, len(rp.grid), max(1, len(rp.grid) // 2000))
    if idx[-1] != len(rp.grid) - 1:
        idx = np.append(idx, len(rp.grid) - 1)
    if len(rp.grid) >= 3:
        lengths = [f"{L:.17g}" for L in _gradient_lengths(rp, idx).tolist()]
    else:
        lengths = [""] * len(idx)
    columns = (rp.grid[idx].tolist(), rp.phi[idx].tolist(),
               rp.dphi[idx].tolist())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "phi", "dphi", "gradient_length"])
        for t, phi, dphi, L in zip(*columns, lengths):
            writer.writerow([f"{t:.17g}", f"{phi:.17g}", f"{dphi:.17g}", L])
