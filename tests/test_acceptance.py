"""Acceptance gate: every primary criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Two sub-criteria are stated the way the paper states them, not
the way they were first written (CHANGES.md records why):

* criterion 6b checks |nabla'' V|^2 for the ball's defining-function
  potential against its true closed form.  The field built from that
  potential is V = i sum z^a d/dz^a, which is holomorphic, so the defect is
  identically zero.  The constant-length law, which is identically 1 there,
  is not the defect of a potential whose gradient length is not constant.
* criterion 8c checks that the constant gradient length L equals the
  minimal value (n+1)/K only for the ball.  Equality with the lower bound
  rank*c does not single out the ball: the polydisc attains it too
  (L = 2r = rank*c), as criterion 8a requires.
"""

import time

import numpy as np

from kelab import chengyau, domains, hermgeo, potentials, vfield
from kelab.jets import fd_jet
from kelab.sampling import sample_interior


def _announce(num, ok, detail):
    state = "PASS" if ok else "FAIL"
    print(f"[criterion {num:>3}] {state}  {detail}")
    return ok


def test_criterion_01_ball_gradient_law():
    """|d phi|^2_half of the ball's defining potential equals |z|^2."""
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        p = domains.ke_potential(domains.ball(n), float(n + 1))
        rng = np.random.default_rng(100 + n)
        for z in sample_interior(p.domain, rng, 200):
            frame = hermgeo.metric_from_potential(p, z)
            val = hermgeo.gradient_length_sq(frame)
            worst = max(worst, abs(val - float(np.sum(np.abs(z) ** 2))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    assert _announce(1, ok, f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_constant_length():
    """Rescaled ball potentials have length (n+1)/K to 1e-8 at 200 points."""
    worst = 0.0
    for (n, K) in [(2, 3.0), (2, 1.0), (3, 4.0)]:
        p = potentials.rescaled_ball_potential(n, K)
        target = (n + 1) / K
        rng = np.random.default_rng(17)
        for z in sample_interior(p.domain, rng, 200):
            frame = hermgeo.metric_from_potential(p, z)
            worst = max(worst, abs(hermgeo.gradient_length_sq(frame) - target))
    assert _announce(2, worst <= 1e-8, f"max dev {worst:.2e}")


def test_criterion_03_delta_identity():
    """Delta|dphi|^2 = |Hess|^2 + n - K|dphi|^2 at 50 points per metric."""
    start = time.perf_counter()
    targets = [
        domains.ke_potential(domains.ball(2), 3.0),
        domains.bergman_potential(domains.polydisc(2)),
        domains.bergman_potential(domains.type_i(2, 2)),
    ]
    worst = 0.0
    for p in targets:
        rng = np.random.default_rng(29)
        for z in sample_interior(p.domain, rng, 50, shrink=0.85):
            worst = max(worst, hermgeo.delta_identity_residual(p, z))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 30.0
    assert _announce(3, ok, f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_key_equation():
    """phi_{a;b} phi^a = -phi_b componentwise to 1e-6 at 100 points."""
    p = potentials.rescaled_ball_potential(2, 3.0)
    rng = np.random.default_rng(37)
    worst = max(
        hermgeo.key_equation_residual(p, z)
        for z in sample_interior(p.domain, rng, 100)
    )
    assert _announce(4, worst <= 1e-6, f"max residual {worst:.2e}")


def test_criterion_05_einstein_catalog():
    """Ric + K g vanishes to 1e-3 for every catalog kernel potential."""
    models = [domains.ball(2), domains.ball(3), domains.polydisc(2),
              domains.polydisc(3), domains.type_i(2, 2),
              domains.type_iii(2), domains.type_iv(3)]
    worst = 0.0
    for d in models:
        p = domains.bergman_potential(d)
        rng = np.random.default_rng(41)
        for z in sample_interior(d, rng, 15, shrink=0.8):
            worst = max(worst, hermgeo.einstein_residual(p, z))
    assert _announce(5, worst <= 1e-3, f"max residual {worst:.2e}")


def test_criterion_06a_dbar_defect_certified():
    """|nabla'' V|^2 <= 1e-8 at 100 points for the certified potential."""
    p = potentials.rescaled_ball_potential(2, 3.0)
    potentials.certify_constant_length(p, samples=50, seed=0).require()
    rng = np.random.default_rng(43)
    worst = 0.0
    worst_law = 0.0
    for z in sample_interior(p.domain, rng, 100):
        defect = vfield.dbar_defect(p, z)
        law = vfield.dbar_defect_closed_form(p, z)
        worst = max(worst, defect)
        worst_law = max(worst_law, abs(defect - law))
    ok = worst <= 1e-8 and worst_law <= 1e-6
    assert _announce(
        "6a", ok, f"max defect {worst:.2e}, law gap {worst_law:.2e}"
    )


def test_criterion_06b_closed_form_for_defining_potential():
    """|nabla'' V|^2 for phi_rho matches its closed form 0 to 1e-8.

    For phi_rho = -((n+1)/K) log(1-|z|^2) the factor e^(K phi/(n+1)) is
    1/(1-|z|^2) and grad phi = (1-|z|^2) z, so V^a = i z^a: holomorphic,
    and the true defect vanishes identically.  The constant-length law
    e^(2K phi/(n+1)) ((K/(n+1)) |dphi|^2_half - 1)^2 is identically 1 here;
    its derivation needs the key equation and |Hess phi|^2 = 1, neither of
    which holds for phi_rho.  See CHANGES.md.
    """
    n, K = 2, 3.0
    p = domains.ke_potential(domains.ball(n), K)
    closed_form = 0.0  # the defect of the holomorphic field V^a = i z^a
    rng = np.random.default_rng(47)
    worst = 0.0
    worst_field = 0.0
    for z in sample_interior(p.domain, rng, 25):
        worst = max(worst, abs(vfield.dbar_defect(p, z) - closed_form))
        field = vfield.vector_field(p, z, None)
        worst_field = max(
            worst_field, float(np.max(np.abs(field.components - 1j * z)))
        )
    ok = worst <= 1e-8 and worst_field <= 1e-12
    assert _announce(
        "6b", ok,
        f"max |defect - 0| = {worst:.2e}, max |V - i z| = {worst_field:.2e} "
        f"for the defining potential",
    )


def test_criterion_07_flow():
    """phi conserved along Re W to 1e-6; t=0.5 pullback within 1e-4."""
    p = potentials.rescaled_ball_potential(2, 3.0)
    potentials.certify_constant_length(p, samples=50, seed=0).require()
    z0 = np.array([0.15 + 0.1j, -0.1 + 0.2j])
    traj = vfield.flow_trajectory(p, z0, 5.0, dt=1e-3, generator="re_w",
                                  record_every=250)
    conservation = float(np.max(np.abs(traj["values"] - p(z0))))
    pullback = vfield.pullback_metric_deviation(p, np.zeros(2, complex), 0.5)
    ok = conservation <= 1e-6 and pullback <= 1e-4
    assert _announce(
        7, ok, f"conservation {conservation:.2e}, pullback {pullback:.2e}"
    )


def test_criterion_08a_kai_ohsawa_constants():
    """L = n+1 on balls and 2r on polydiscs to 1e-6; slice derivative c.

    The closed-form slice derivative is read from the potential whose L
    is measured (see CHANGES.md).
    """
    worst = 0.0
    for n in (1, 2, 3):
        L = potentials.kai_ohsawa_constant(domains.ball(n))
        worst = max(worst, abs(L - (n + 1)))
    for r in (1, 2, 3):
        L = potentials.kai_ohsawa_constant(domains.polydisc(r))
        worst = max(worst, abs(L - 2 * r))
    worst_deriv = 0.0
    for d in (domains.ball(2), domains.ball(3), domains.polydisc(2),
              domains.polydisc(3)):
        gradient = potentials.kai_ohsawa_potential(d).jet(
            np.zeros(d.n), 1).holo_gradient()
        for alpha in range(d.rank):
            closed = gradient[alpha]
            worst_deriv = max(worst_deriv, abs(closed - d.c))
            fd = _slice_derivative_fd(d, alpha)
            worst_deriv = max(worst_deriv, abs(fd - d.c))
    ok = worst <= 1e-6 and worst_deriv <= 1e-8
    assert _announce(
        "8a", ok, f"max |L - expected| {worst:.2e}, derivative {worst_deriv:.2e}"
    )


def _slice_derivative_fd(d, alpha, h=1e-5):
    def slice_value(c):
        z = np.zeros(d.n, dtype=complex)
        z[alpha] = c
        return domains.siegel_log_kernel_on_polydisc_slice(
            d, domains.cayley(d, z)
        )

    dx = (slice_value(h) - slice_value(-h)) / (2 * h)
    dy = (slice_value(1j * h) - slice_value(-1j * h)) / (2 * h)
    return 0.5 * (dx - 1j * dy)


#: every kind the catalog constructs, at the sizes the criteria check,
#: and one product
_CONSTRUCTED_KINDS = (
    [domains.ball(n) for n in (1, 2, 3)]
    + [domains.polydisc(r) for r in (1, 2, 3)]
    + [domains.type_i(p, q) for p, q in ((2, 2), (2, 3), (3, 3))]
    + [domains.type_ii(m) for m in (4, 5, 6)]
    + [domains.type_iii(m) for m in (2, 3)]
    + [domains.type_iv(m) for m in (3, 5)]
    + [domains.product(domains.ball(2), domains.type_iv(3))]
)


def test_criterion_08b_lower_bound():
    """L >= rank * c - 1e-9 on every computed kind (a product's bound is
    the sum over its factors)."""
    worst = 0.0
    for d in _CONSTRUCTED_KINDS:
        L = potentials.kai_ohsawa_constant(d)
        worst = max(worst, sum(f.rank * f.c for f in d.factors or (d,)) - L)
    assert _announce("8b", worst <= 1e-9, f"max bound violation {worst:.2e}")


def test_criterion_08c_equality_only_for_ball():
    """L = (n+1)/K, the minimal constant, holds only for the ball.

    K is the Ricci constant of the pulled-back Siegel potential.  The
    polydisc of rank r has L = 2r > r+1 for r >= 2, while its L equals the
    lower bound rank*c (criterion 8a), so that bound is not the equality
    that singles out the ball.  See CHANGES.md.
    """
    offenders = []
    for d in _CONSTRUCTED_KINDS:
        L = potentials.kai_ohsawa_constant(d)
        K = potentials.kai_ohsawa_potential(d).ricci_constant
        equality = abs(L - (d.n + 1) / K) <= 1e-9
        if equality and d.rank != 1:  # the rank-1 kinds are the balls
            offenders.append(d.label)
    ok = not offenders
    assert _announce(
        "8c", ok,
        f"equality with (n+1)/K also attained by: {', '.join(offenders) or 'none'}",
    )


def test_criterion_09_ball_minimality_table():
    """rank*c > n+1 strictly except for type1(1,n), where it is equality."""
    strict_kinds = (
        [domains.type_i(p, q) for p, q in ((2, 2), (2, 3), (3, 3), (2, 5))]
        + [domains.type_ii(m) for m in (5, 6, 7)]
        + [domains.type_iii(m) for m in (2, 3, 4)]
        + [domains.type_iv(m) for m in (3, 4, 5)]
    )
    rows = potentials.ball_minimality_report(
        strict_kinds + list(domains.EXCEPTIONAL_INVARIANTS), K=1.0
    )
    ok = all(r.strict for r in rows)
    eq_rows = potentials.ball_minimality_report(
        [domains.type_i(1, q) for q in (1, 2, 3, 5, 8)], K=1.0
    )
    ok = ok and all(
        not r.strict and abs(r.rc_over_K - r.bound_over_K) < 1e-12
        for r in eq_rows
    )
    assert _announce(9, ok, f"{len(rows)} strict rows, {len(eq_rows)} equality rows")


def test_criterion_10_radial_solver():
    """Shooting recovers the ball solution and its boundary limit."""
    start = time.perf_counter()
    worst_grid = 0.0
    worst_limit = 0.0
    for (n, K) in [(1, 1.0), (2, 3.0), (3, 4.0)]:
        sol = chengyau.shoot(n, K)
        exact = chengyau.ball_closed_form(n, K, grid=sol.grid)
        worst_grid = max(worst_grid, float(np.max(np.abs(sol.phi - exact.phi))))
        limit, gap = chengyau.boundary_limit_estimate(sol)
        worst_limit = max(worst_limit, abs(gap) / ((n + 1) / K))
    elapsed = time.perf_counter() - start
    ok = worst_grid <= 1e-5 and worst_limit <= 0.02 and elapsed < 60.0
    assert _announce(
        10, ok,
        f"grid dev {worst_grid:.2e}, relative limit gap {worst_limit:.2e}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_11_oracle_coherence():
    """Analytic vs FD jets at order <= 2; radial vs tensor gradient length."""
    pots = [
        domains.bergman_potential(domains.ball(2)),
        domains.bergman_potential(domains.polydisc(2)),
        domains.bergman_potential(domains.type_i(2, 2)),
        domains.bergman_potential(domains.type_ii(3)),
        domains.bergman_potential(domains.type_iii(2)),
        domains.bergman_potential(domains.type_iv(3)),
        potentials.rescaled_ball_potential(2, 3.0),
        potentials.kai_ohsawa_potential(domains.polydisc(2)),
    ]
    worst = 0.0
    for p in pots:
        rng = np.random.default_rng(53)
        for z in sample_interior(p.domain, rng, 40, shrink=0.9):
            ja = p.analytic_jet(z, 2)
            jf = fd_jet(p, z, 2)
            worst = max(worst, max(
                float(np.max(np.abs(ja.tensors[k] - jf.tensors[k])))
                for k in ja.tensors))
    rp = chengyau.ball_closed_form(2, 3.0)
    field = chengyau.closed_form_field(2, 3.0)
    worst_radial = 0.0
    for t in (0.09, 0.25, 0.49, 0.81):
        tg = rp.grid[int(np.searchsorted(rp.grid, t))]
        z = np.array([np.sqrt(tg), 0.0], dtype=complex)
        frame = hermgeo.metric_from_potential(field, z)
        worst_radial = max(
            worst_radial,
            abs(chengyau.radial_gradient_length(rp, tg)
                - hermgeo.gradient_length_sq(frame)),
        )
    ok = worst <= 1e-6 and worst_radial <= 1e-6
    assert _announce(
        11, ok, f"jet oracle {worst:.2e}, radial vs tensor {worst_radial:.2e}"
    )
