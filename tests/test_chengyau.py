"""Radial Monge-Ampere solver: closed forms, shooting, boundary limits."""

import csv
import json
import math

import numpy as np
import pytest

from kelab import chengyau, domains, hermgeo, potentials
from kelab.errors import (BracketingError, DegenerateMetricError, KelabError,
                          ResolutionError)
from kelab.chengyau import (
    RadialPotential,
    _assert_monotone,
    _integrate,
    ball_center_value,
    ball_closed_form,
    boundary_limit_estimate,
    closed_form_field,
    radial_gradient_length,
    radial_ode_residual,
    shoot,
)
from kelab.suites import run_suite


def test_residual_vanishes_on_closed_form():
    for (n, K) in [(2, 3.0), (1, 2.0), (3, 4.0)]:
        rp = ball_closed_form(n, K)
        sel = rp.grid[2:-2:4000]
        worst = max(abs(radial_ode_residual(rp, t)) for t in sel)
        assert worst <= 1e-8


def test_residual_poincare_disc():
    # n=1, K=2: amplitude 1, center value 0, phi = -log(1-t)
    rp = ball_closed_form(1, 2.0)
    assert rp.phi[0] == pytest.approx(0.0, abs=1e-15)
    i = len(rp.grid) // 2
    assert abs(radial_ode_residual(rp, rp.grid[i])) <= 1e-8


def test_degenerate_radial_metric():
    rp = RadialPotential(n=2, K=3.0, grid=np.array([0.0, 0.1, 0.2, 0.3]),
                         phi=np.ones(4), dphi=np.zeros(4))
    with pytest.raises(DegenerateMetricError):
        radial_ode_residual(rp, 0.1)
    with pytest.raises(DegenerateMetricError):
        radial_gradient_length(rp, 0.1)


AGREEMENT_CASES = [(1, 1.0), (1, 2.0), (2, 3.0), (3, 4.0), (2, 1.0)]


@pytest.fixture(scope="module")
def searches():
    """shoot at every AGREEMENT_CASES entry, with the (phi0, g, blow-up tau)
    of every candidate its search classified, in order, and the number of
    RK4 steps the search took (the runs that record nothing), counted
    from each run's blow-up tau or end tau."""
    real_growth, real_integrate = chengyau._boundary_growth, _integrate
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for n, K in AGREEMENT_CASES:
            seen, steps = [], []

            def growth_spy(n, K, phi0, seen=seen):
                g, tau_star = real_growth(n, K, phi0)
                seen.append((phi0, g, tau_star))
                return g, tau_star

            def integrate_spy(n, K, phi0, tau_end, watch=math.inf,
                              record=None, steps=steps):
                result = real_integrate(n, K, phi0, tau_end, watch, record)
                if record is None:
                    blow_up, (tau, _, _), _ = result
                    start = -math.log1p(-chengyau._SERIES_START)
                    stop = tau if blow_up is None else blow_up
                    steps.append(round((stop - start)
                                       / chengyau._SEARCH_DTAU))
                return result

            mp.setattr(chengyau, "_boundary_growth", growth_spy)
            mp.setattr(chengyau, "_integrate", integrate_spy)
            out[(n, K)] = (shoot(n, K), seen, sum(steps))
    return out


@pytest.fixture(scope="module")
def solutions(searches):
    return {case: sol for case, (sol, _, _) in searches.items()}


@pytest.mark.parametrize("n,K", AGREEMENT_CASES)
def test_shoot_recovers_ball_solution(n, K, solutions):
    sol = solutions[(n, K)]
    assert abs(sol.phi[0] - ball_center_value(n, K)) <= 1e-6
    exact = ball_closed_form(n, K, grid=sol.grid)
    assert np.max(np.abs(sol.phi - exact.phi)) <= 1e-5
    sel = sol.grid[2:-2][::len(sol.grid) // 200]  # the suite's selection
    assert np.max(np.abs(radial_ode_residual(sol, sel))) <= 1e-8


def test_stacked_ode_residual_equals_per_point(solutions):
    sol = solutions[(2, 3.0)]
    sel = np.concatenate((sol.grid[:3], sol.grid[2:-2][::len(sol.grid) // 200],
                          sol.grid[-3:]))
    stacked = radial_ode_residual(sol, sel)
    assert stacked.shape == sel.shape
    assert stacked.tolist() == [radial_ode_residual(sol, t) for t in sel]
    assert sol.index_of(sel).tolist() == [sol.index_of(t) for t in sel]
    between = 0.5 * (sol.grid[7] + sol.grid[8])
    with pytest.raises(ValueError):
        radial_ode_residual(sol, np.append(sel, between))


def test_residual_vanishes_at_every_closed_form_grid_point():
    """Every row of the stencil, the one-sided ones at both ends too."""
    for (n, K) in [(2, 3.0), (1, 2.0)]:
        rp = ball_closed_form(n, K)
        assert np.max(np.abs(radial_ode_residual(rp, rp.grid))) <= 1e-8


def test_stencil_needs_t0_then_a_grid_uniform_in_tau():
    rp = ball_closed_form(2, 3.0)
    for grid, dphi in [(np.linspace(0.0, 0.5, 8), np.ones(8)),
                       (rp.grid[:5], rp.dphi[:5]),
                       (rp.grid[1:], rp.dphi[1:])]:
        bad = RadialPotential(n=2, K=3.0, grid=grid, phi=np.ones(len(grid)),
                              dphi=dphi)
        with pytest.raises(ResolutionError):
            radial_ode_residual(bad, grid[2])


@pytest.mark.parametrize("offset", [-0.3, 0.3])
@pytest.mark.parametrize("n,K", AGREEMENT_CASES)
def test_series_start_is_the_closed_family(n, K, offset):
    """phi0 - A' log(1 - p1 t/A') with psi = p1 / (1 - p1 t/A'), A' =
    (n+1)/K, solves the radial ODE for every phi0; the centre series is its
    Taylor polynomial to t^4, so the two differ by the family's tail."""
    A = (n + 1) / K
    phi0 = ball_center_value(n, K) + offset
    p1 = math.exp(K * phi0 / n)
    x = p1 * chengyau._SERIES_START / A
    phi, psi = chengyau._series_start(n, K, phi0)
    phi_tail = A * sum(x ** k / k for k in range(5, 30))
    psi_tail = p1 * x ** 4 / (1.0 - x)
    assert abs(phi0 - A * math.log1p(-x) - phi - phi_tail) <= 1e-13
    assert abs(p1 / (1.0 - x) - psi - psi_tail) <= 1e-13


def _super_critical(n, K, phi0, tau_end=None):
    """The classification rule of the search: a blow-up inside the window
    tau <= tau_end (default: the search window), or a boundary weight
    psi e^(-tau) that still grows over its last unit of tau."""
    if tau_end is None:
        tau_end = chengyau._SEARCH_TAU
    tau_star, (tau, _, psi), (tau_w, psi_w) = _integrate(
        n, K, phi0, tau_end, watch=tau_end - 1.0)
    if tau_star is not None:
        return True
    return psi * math.exp(-tau) > psi_w * math.exp(-tau_w)


def _bisection_phi0(n, K, lo=-1.0, hi=3.0, tol=1e-11):
    """phi(0) by plain bisection on ``_super_critical``: the reference for
    the regula falsi in ``shoot``."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _super_critical(n, K, mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("n,K", AGREEMENT_CASES)
def test_search_agrees_with_bisection(n, K, searches):
    sol, seen, _ = searches[(n, K)]
    assert abs(sol.phi[0] - _bisection_phi0(n, K)) <= 1e-11
    for phi0, g, tau_star in seen:
        assert (g > 0) == _super_critical(n, K, phi0)
        assert (g == math.inf) == (tau_star is not None)
    # the upper end is classified first; the lower end at most once, when
    # a secant step reads it; every other candidate lies inside the bracket
    assert seen[0][0] == 3.0
    later = [phi0 for phi0, _, _ in seen[1:]]
    assert later.count(-1.0) <= 1
    assert all(-1.0 < phi0 < 3.0 for phi0 in later if phi0 != -1.0)


def test_search_never_classifies_an_unread_lower_end(searches):
    """At (2, 3) the bisection replaces the lower end before any secant
    step reads g there, so phi(0) = -1 is never integrated."""
    _, seen, _ = searches[(2, 3.0)]
    assert -1.0 not in [phi0 for phi0, _, _ in seen]


@pytest.mark.parametrize("n,K", AGREEMENT_CASES)
def test_search_root_is_the_long_window_root(n, K, solutions):
    """The search window is short, but its root is the root of the same
    classification on the window tau <= 4, watched at tau = 3, to within
    2e-12: on the complete solution the boundary weight is constant, so the
    window only has to be long enough for g to resolve the tolerance."""
    phi0 = float(solutions[(n, K)].phi[0])
    assert not _super_critical(n, K, phi0 - 2e-12, tau_end=4.0)
    assert _super_critical(n, K, phi0 + 2e-12, tau_end=4.0)


def test_search_classifies_few_candidates(searches):
    _, seen, steps = searches[(2, 3.0)]
    assert len(seen) <= 24
    assert steps <= 20_000


def test_search_bracket_within_tol_runs_no_iteration(monkeypatch):
    calls = []
    real = chengyau._boundary_growth

    def spy(n, K, phi0):
        calls.append(phi0)
        return real(n, K, phi0)

    monkeypatch.setattr(chengyau, "_boundary_growth", spy)
    sol = shoot(2, 3.0, phi0_bracket=(-0.01, 0.01), tol=0.05)
    # the upper end first; the loop ends on the lower one, still unread
    assert calls == [0.01, -0.01]
    assert sol.phi[0] == 0.0


@pytest.mark.parametrize("args", [
    dict(n=1, K=1.0, tol=1e-17),
    dict(n=2, K=1e-6, phi0_bracket=(2e7, 4e7))])
def test_shoot_ends_when_tol_is_below_the_float_spacing(args, monkeypatch):
    """A candidate kept tol/2 inside the bracket rounds onto an end when
    tol is below the float spacing there, so the bracket stops shrinking:
    the search raises ResolutionError instead of running on."""
    calls = []
    real = chengyau._boundary_growth

    def spy(n, K, phi0):
        calls.append(phi0)
        if len(calls) > 200:
            raise AssertionError("still searching after 200 candidates")
        return real(n, K, phi0)

    monkeypatch.setattr(chengyau, "_boundary_growth", spy)
    with pytest.raises(ResolutionError, match="below the float spacing"):
        shoot(**args)


def test_bracket_ends_are_still_classified():
    """A bracket within tol classifies both ends; a super-critical lower
    end fails once the midpoints collapse onto it."""
    with pytest.raises(BracketingError, match="lower the bracket"):
        shoot(2, 3.0, phi0_bracket=(1.0, 1.01), tol=0.05)
    with pytest.raises(BracketingError, match="phi\\(0\\)=1.0 already"):
        shoot(2, 3.0, phi0_bracket=(1.0, 3.0))
    with pytest.raises(BracketingError, match="raise the bracket"):
        shoot(2, 3.0, phi0_bracket=(-1.01, -1.0), tol=0.05)


def test_first_secant_step_reads_the_given_lower_end(monkeypatch):
    """With g(hi) finite the first step is a secant step, and it reads
    g(lo) of the given lower end inside the loop: that end is the second
    candidate classified, and a super-critical one fails right there."""
    calls = []
    real = chengyau._boundary_growth

    def spy(n, K, phi0):
        g, tau_star = real(n, K, phi0)
        calls.append((phi0, g))
        return g, tau_star

    monkeypatch.setattr(chengyau, "_boundary_growth", spy)
    sol = shoot(2, 3.0, phi0_bracket=(-0.5, 0.05))
    assert [phi0 for phi0, _ in calls[:2]] == [0.05, -0.5]
    assert 0 < calls[0][1] < math.inf and calls[1][1] <= 0
    assert len(calls) == 15
    assert abs(sol.phi[0] - ball_center_value(2, 3.0)) <= 1e-12
    calls.clear()
    with pytest.raises(BracketingError, match="phi\\(0\\)=0.01 already"):
        shoot(2, 3.0, phi0_bracket=(0.01, 0.05))
    assert [phi0 for phi0, _ in calls] == [0.05, 0.01]
    assert calls[1][1] > 0


def test_coarse_search_of_the_benchmark_probe():
    sol = shoot(2, 3.0, tol=1e-3)
    assert abs(sol.phi[0] - ball_center_value(2, 3.0)) <= 1e-3
    limit, gap = boundary_limit_estimate(sol)
    assert abs(gap) <= 0.02 * sol.amplitude_target


def test_shoot_input_validation():
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerance"):
            shoot(2, 3.0, tol=tol)
    for K in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="Ricci constant"):
            shoot(2, K)
    with pytest.raises(ValueError):
        shoot(0, 1.0)
    with pytest.raises(BracketingError):
        shoot(2, 3.0, phi0_bracket=(1.0, 3.0))  # both ends super-critical
    with pytest.raises(BracketingError):
        shoot(2, 3.0, phi0_bracket=(-3.0, -1.0))  # both ends sub-critical


@pytest.mark.parametrize("bracket", [
    (-1.0, math.inf), (-math.inf, 3.0), (math.nan, 3.0), (-1.0, math.nan),
    (-math.inf, math.inf)])
def test_shoot_rejects_a_non_finite_bracket_end(bracket, monkeypatch):
    """The midpoint of an infinite bracket is infinite, so such a search
    never ends; each end is checked before any integration."""
    def no_integration(*args, **kwargs):
        raise AssertionError("integrated a non-finite bracket")

    monkeypatch.setattr(chengyau, "_integrate", no_integration)
    with pytest.raises(ValueError, match="phi0_bracket"):
        shoot(2, 3.0, phi0_bracket=bracket)


def test_closed_form_default_grid_is_the_solver_grid(solutions):
    """ball_closed_form's default grid is the grid shoot returns, bit for
    bit: one expression over the one step table."""
    grid = ball_closed_form(2, 3.0).grid
    assert grid.tobytes() == solutions[(2, 3.0)].grid.tobytes()
    assert grid.tobytes() == chengyau._solver_grid().tobytes()


def test_dimension_is_an_integer():
    """True would run as n = 1 and 2.5 would be truncated or fail late;
    3.0 reads as 3."""
    for build in (lambda n: shoot(n, 3.0), lambda n: ball_closed_form(n, 3.0),
                  lambda n: closed_form_field(n, 3.0)):
        for n in (True, 2.5):
            with pytest.raises(ValueError, match="n must be an integer"):
                build(n)
    rp = ball_closed_form(3.0, 3.0)
    assert rp.n == 3 and type(rp.n) is int
    assert np.array_equal(rp.phi, ball_closed_form(3, 3.0).phi)
    assert closed_form_field(3.0, 3.0).label == closed_form_field(3, 3.0).label
    assert shoot(3.0, 4.0, tol=1e-3).n == 3


def test_radial_gradient_length_examples():
    rp = ball_closed_form(2, 3.0)  # amplitude 1
    assert radial_gradient_length(rp, rp.grid[0]) == pytest.approx(0.0, abs=1e-12)
    i = int(np.searchsorted(rp.grid, 0.81))
    t = rp.grid[i]
    assert radial_gradient_length(rp, t) == pytest.approx(t, abs=1e-7)


def test_boundary_limit_closed_form():
    limit, gap = boundary_limit_estimate(ball_closed_form(2, 3.0))
    assert limit == pytest.approx(1.0, abs=1e-9)
    assert abs(gap) <= 1e-9


def test_boundary_limit_from_solver(solutions):
    limit, gap = boundary_limit_estimate(solutions[(2, 3.0)])
    assert abs(limit - 1.0) <= 0.02
    limit1, _ = boundary_limit_estimate(solutions[(1, 1.0)])
    assert abs(limit1 - 2.0) <= 0.04


def test_boundary_limit_needs_fine_grid():
    rp = ball_closed_form(2, 3.0)
    coarse = RadialPotential(n=2, K=3.0, grid=rp.grid[:100],
                             phi=rp.phi[:100], dphi=rp.dphi[:100])
    with pytest.raises(ResolutionError):
        boundary_limit_estimate(coarse)


def test_gradient_length_consistent_with_frames():
    """The radial closed form and the full tensor machinery agree."""
    n, K = 2, 3.0
    rp = ball_closed_form(n, K)
    field = closed_form_field(n, K)
    for t in (0.04, 0.25, 0.49, 0.81):
        i = int(np.searchsorted(rp.grid, t))
        tg = rp.grid[i]
        z = np.zeros(n, dtype=complex)
        z[0] = np.sqrt(tg)
        frame = hermgeo.metric_from_potential(field, z)
        full = hermgeo.gradient_length_sq(frame)
        assert radial_gradient_length(rp, tg) == pytest.approx(full, abs=1e-6)


def test_canonical_potential_round_trip(solutions):
    """(1/K) log det g evaluated from the metric reproduces the solver."""
    n, K = 2, 3.0
    sol = solutions[(n, K)]
    canon = potentials.canonical_potential(domains.ball(n), K)
    for t in (0.09, 0.36, 0.64):
        i = int(np.searchsorted(sol.grid, t))
        tg = sol.grid[i]
        z = np.zeros(n, dtype=complex)
        z[0] = np.sqrt(tg)
        assert canon(z) == pytest.approx(sol.phi[i], abs=1e-5)


def test_solution_csv(tmp_path):
    rp = ball_closed_form(1, 2.0)
    path = tmp_path / "radial.csv"
    chengyau.solution_to_csv(rp, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "phi", "dphi", "gradient_length"]
    mid = len(rows) // 2
    t, phi, dphi, grad = (float(x) for x in rows[mid])
    assert phi == pytest.approx(-np.log1p(-t), abs=1e-12)
    assert grad == pytest.approx(t, abs=1e-6)
    # the thinning keeps the endpoints and a manageable row count
    assert 3 <= len(rows) <= 2500
    assert float(rows[1][0]) == 0.0
    assert float(rows[-1][0]) == pytest.approx(rp.grid[-1], abs=1e-15)


def test_solution_csv_column_matches_per_row(tmp_path):
    """The vectorized gradient-length column is the per-row value."""
    rp = ball_closed_form(2, 3.0)
    path = tmp_path / "radial.csv"
    chengyau.solution_to_csv(rp, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))[1:]
    assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == rp.grid[-1]
    for t, _, _, grad in rows:
        expected = radial_gradient_length(rp, float(t))
        assert float(grad) == pytest.approx(expected, rel=1e-12)
    flat = RadialPotential(n=2, K=3.0, grid=np.array([0.0, 0.1, 0.2, 0.3]),
                           phi=np.ones(4), dphi=np.zeros(4))
    with pytest.raises(DegenerateMetricError):
        chengyau.solution_to_csv(flat, tmp_path / "flat.csv")
    short = RadialPotential(n=2, K=3.0, grid=np.array([0.0, 0.1]),
                            phi=np.ones(2), dphi=np.ones(2))
    chengyau.solution_to_csv(short, tmp_path / "short.csv")
    with open(tmp_path / "short.csv") as fh:
        assert [r[3] for r in list(csv.reader(fh))[1:]] == ["", ""]


def test_solution_csv_keeps_the_last_point_a_stride_misses(tmp_path):
    """5,000 grid points thin at stride 2 to indices 0, 2, ..., 4,998, so
    the last point, 4,999, is appended."""
    rp = ball_closed_form(2, 3.0, grid=chengyau._solver_grid()[:5000])
    path = tmp_path / "radial.csv"
    chengyau.solution_to_csv(rp, path)
    with open(path) as fh:
        ts = [float(row[0]) for row in list(csv.reader(fh))[1:]]
    assert len(ts) == 2501
    assert ts[-2:] == [rp.grid[4998], rp.grid[4999]]


def _reference_integrate(n, K, phi0, dtau, tau_end):
    """The RK4 loop written with a stage function: (exit, blow-up tau,
    taus, phis, psis), the exit being "end", "series start", "stage guard:
    K phi", "stage guard: psi", "overflow" or "threshold".  The solver's
    hand-written loop must reproduce it bit for bit."""
    class BlowUp(Exception):
        pass

    def f(tau_c, phi_c, psi_c):
        t = 1.0 - math.exp(-tau_c)
        om = 1.0 - t
        if K * phi_c > 690.0:
            raise BlowUp("stage guard: K phi")
        if psi_c <= 0.0:
            raise BlowUp("stage guard: psi")
        return om * psi_c, om * (
            (math.exp(K * phi_c) * psi_c ** (1.0 - n) - psi_c) / t)

    tau = -math.log1p(-chengyau._SERIES_START)
    if K * phi0 / n > 690.0:
        return "series start", tau, [], [], []
    phi, psi = chengyau._series_start(n, K, phi0)
    taus, phis, psis = [tau], [phi], [psi]
    for _ in range(int(math.ceil((tau_end - tau) / dtau))):
        h = dtau
        try:
            k1 = f(tau, phi, psi)
            k2 = f(tau + 0.5 * h, phi + 0.5 * h * k1[0], psi + 0.5 * h * k1[1])
            k3 = f(tau + 0.5 * h, phi + 0.5 * h * k2[0], psi + 0.5 * h * k2[1])
            k4 = f(tau + h, phi + h * k3[0], psi + h * k3[1])
        except BlowUp as exc:
            return str(exc), tau, taus, phis, psis
        except OverflowError:
            return "overflow", tau, taus, phis, psis
        phi += (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        psi += (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        tau += h
        taus.append(tau)
        phis.append(phi)
        psis.append(psi)
        if not math.isfinite(psi) or psi > chengyau.BLOWUP_THRESHOLD:
            return "threshold", tau, taus, phis, psis
    return "end", None, taus, phis, psis


@pytest.mark.parametrize("n, K, offset, exit", [
    pytest.param(2, 3.0, 0.5, "threshold", id="0.5-True"),
    pytest.param(2, 3.0, -0.5, "end", id="-0.5-False"),
    pytest.param(2, 3.0, 1e-9, None, id="1e-09-None"),
    pytest.param(2, 3.0, 1.0, "stage guard: K phi", id="stage-guard-mid-run"),
    pytest.param(2, 3.0, 10.0, "stage guard: K phi", id="stage-guard-first"),
    pytest.param(1, 50.0, -50.0, "stage guard: psi", id="stage-guard-psi"),
    pytest.param(8, 3.0, -300.0, "overflow", id="overflow"),
    pytest.param(5, 12.0, -72.0, "overflow", id="overflow-mid-run"),
    pytest.param(2, 1e3, 3.0, "series start", id="series-start"),
])
def test_search_integration_records_nothing_and_agrees(n, K, offset, exit):
    """Every way the RK4 loop stops, on the search window and on the
    returned solution's run, which reads the step table past the search's
    prefix: the non-recording run keeps the recording run's final state,
    watched step and blow-up tau, and both match the reference loop bit
    for bit, the recorded steps' tau read from the step table.  The
    watched step is the nearest of the steps kept, the start and the
    steps before any blow-up, the first on ties (at offset 0.5 the run
    blows up at tau ~ 0.64, before the watch at tau = 1).

    The exits: the end of the run; a super-critical run past the
    threshold (0.5), or stopped by the K phi guard mid-run (1.0) or at
    its first stage (10.0); a series start whose e^(K phi0/n) underflows
    to psi = 0 (n = 1, K = 50); a start so small that psi^(1-n)
    overflows at the first stage (n = 8) or, as psi decays, at step 216
    (n = 5, K = 12); and a start with K phi0/n > 690, which blows up at
    the series start and records nothing (K = 1e3, the bracket's upper
    end 3 + phi(0) of the ball)."""
    phi0 = ball_center_value(n, K) + offset
    dtau, watch = chengyau._SEARCH_DTAU, chengyau._SEARCH_TAU - 1.0
    tau0 = -math.log1p(-chengyau._SERIES_START)
    for tau_end in (chengyau._SEARCH_TAU, -math.log(chengyau._FINAL_EDGE)):
        phis, psis = [], []
        recorded = _integrate(n, K, phi0, tau_end, watch=watch,
                              record=(phis, psis))
        blow_up, end, watched = _integrate(n, K, phi0, tau_end, watch=watch)
        ref_exit, ref_blow_up, *ref = _reference_integrate(n, K, phi0, dtau,
                                                           tau_end)
        if exit is not None:
            assert ref_exit == exit
        assert recorded == (blow_up, end, watched)
        assert ref_blow_up == blow_up
        if ref_exit == "series start":
            assert (blow_up, end, watched) == (
                tau0, (tau0, math.inf, math.inf), (tau0, math.inf))
            assert phis == psis == ref[1] == []
            continue
        taus = [tau0] + list(chengyau._tau_steps()[2][:len(phis) - 1])
        assert end == (taus[-1], phis[-1], psis[-1])
        # a step past the blow-up threshold is recorded but never watched
        kept = len(psis) - (ref_exit == "threshold")
        i = min(range(kept), key=lambda i: abs(taus[i] - watch))
        assert watched == (taus[i], psis[i])
        assert [taus, phis, psis] == ref


def test_integration_reads_one_step_table():
    """Every run steps through the one tau table, at ``_SEARCH_DTAU``,
    which holds what the RK4 loop would compute step by step, to the returned grid's
    edge: a longer run is a ValueError.  Without a watch the watched step
    is the start."""
    n, K, dtau = 2, 3.0, chengyau._SEARCH_DTAU
    tau, loop = -math.log1p(-chengyau._SERIES_START), []
    for _ in range(len(chengyau._tau_steps()[2])):
        t_mid = 1.0 - math.exp(-(tau + 0.5 * dtau))
        tau = tau + dtau
        t = 1.0 - math.exp(-tau)
        loop.append((1.0 - t_mid, t_mid, tau, t, 1.0 - t))
    assert list(zip(*chengyau._tau_steps())) == loop
    assert tau >= -math.log(chengyau._FINAL_EDGE)
    phi0 = ball_center_value(n, K) - 0.5
    tau_end = -math.log(chengyau._FINAL_EDGE)
    with pytest.raises(ValueError, match="past the step table"):
        _integrate(n, K, phi0, tau_end + 1.0)
    blow_up, end, watched = _integrate(n, K, phi0, tau_end)
    assert blow_up is None
    assert end[0] == chengyau._tau_steps()[2][-1]
    assert watched == (-math.log1p(-chengyau._SERIES_START),
                       chengyau._series_start(n, K, phi0)[1])


@pytest.mark.parametrize("K", [1e3, 1e6])
def test_cheng_yau_at_a_large_ricci_constant_raises_a_typed_error(K):
    """At K = 1e3 and 1e6 the start K phi(0)/n of the bracket's upper end,
    1500 and 1.5e6, is past the stage guard's bound; the run is a blow-up
    at the series start, and the search ends in a ``KelabError``, not in
    the ``OverflowError`` of e^(K phi(0)/n)."""
    with pytest.raises(KelabError):
        run_suite("cheng-yau", {"ricci": K})


def test_a_returned_start_past_the_bound_is_a_bracketing_error():
    """A tol wider than the bracket returns its midpoint unsearched; at
    phi(0) = 499.5, K phi(0)/n = 749, the returned run would blow up at
    its series start, so ``shoot`` raises instead of overflowing."""
    with pytest.raises(BracketingError, match="series start"):
        shoot(2, 3.0, phi0_bracket=(-1.0, 1000.0), tol=2000.0)


def test_non_monotone_blow_up_history_is_rejected():
    with pytest.raises(BracketingError):
        _assert_monotone([(0.0, 5.0), (1.0, 5.0)])
    with pytest.raises(BracketingError):
        _assert_monotone([(1.0, 4.0), (0.0, 3.0), (0.5, None)])
    _assert_monotone([(1.0, 3.0), (0.0, 5.0), (-1.0, None)])


def _report_data(name, config):
    data = json.loads(run_suite(name, config).to_json())
    data.pop("runtime_ms")
    return data


def test_cheng_yau_report_is_deterministic():
    assert _report_data("cheng-yau", {}) == _report_data("cheng-yau", {})
