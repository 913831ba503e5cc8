"""Holomorphic vector field construction and its flows."""

import csv
import json
from fractions import Fraction

import numpy as np
import pytest

from kelab import domains, field, hermgeo, potentials, vfield
from kelab.errors import (CertificateError, DegenerateMetricError,
                          EvaluationError, FlowExitError)
from kelab.field import PotentialField
from kelab.sampling import sample_interior
from kelab.suites import run_suite

from test_hermgeo import _fd_only, _Skewed


@pytest.fixture(scope="module")
def certified():
    return potentials.rescaled_ball_potential(2, 3.0)


@pytest.fixture(scope="module")
def certificate(certified):
    return potentials.certify_constant_length(certified, samples=60, seed=0)


def test_vector_field_at_center(certified, certificate):
    v = vfield.vector_field(certified, np.zeros(2, complex), certificate)
    np.testing.assert_allclose(v.components, [1j, 0.0], atol=1e-14)
    assert v.norm == pytest.approx(1.0, abs=1e-14)


def test_vector_field_norm_law(certified, certificate):
    n, K = 2, 3.0
    rng = np.random.default_rng(2)
    for z in sample_interior(certified.domain, rng, 20):
        v = vfield.vector_field(certified, z, certificate)
        expected = np.exp(K * certified(z) / (n + 1)) * np.sqrt((n + 1) / K)
        assert v.norm == pytest.approx(expected, rel=1e-10)
        assert v.norm > 0


def test_vector_field_is_deterministic(certified, certificate):
    z = np.array([0.2 + 0.1j, -0.1 + 0.3j])
    v1 = vfield.vector_field(certified, z, certificate)
    v2 = vfield.vector_field(certified, z, certificate)
    np.testing.assert_array_equal(v1.components, v2.components)


def test_vector_field_requires_certificate():
    p = potentials.rescaled_ball_potential(2, 3.0)
    # a passing certificate, but of another potential
    other = potentials.ConstantLengthCertificate(
        label="other", constant=1.0, max_deviation=0.0, sample_count=1,
        tolerance=1e-8, seed=0)
    with pytest.raises(CertificateError):
        vfield.vector_field(p, np.zeros(2, complex), other)
    bad = domains.ke_potential(domains.ball(2), 3.0)
    cert = potentials.certify_constant_length(bad, samples=30, seed=0)
    with pytest.raises(CertificateError):
        vfield.vector_field(bad, np.zeros(2, complex), cert)


def test_dbar_defect_certified(certified):
    rng = np.random.default_rng(3)
    for z in sample_interior(certified.domain, rng, 100):
        defect = vfield.dbar_defect(certified, z)
        law = vfield.dbar_defect_closed_form(certified, z)
        assert defect <= 1e-8
        assert abs(defect - law) <= 1e-8


def _fd_copy():
    """An FD-only copy of the certified n = 2 rescaled ball potential."""
    base = potentials.rescaled_ball_potential(2, 3.0)
    return PotentialField(
        domain=base.domain, ricci_constant=3.0, parts=None,
        label="fd-copy", fn=base,
    )


def test_dbar_defect_fd_path():
    """The FD route, an order-3 FD frame, stays within its looser 1e-3
    budget."""
    fd_only = _fd_copy()
    rng = np.random.default_rng(13)
    for z in sample_interior(fd_only.domain, rng, 5, shrink=0.8):
        assert vfield.dbar_defect(fd_only, z) <= 1e-3


#: (potential, sample count, shrink, seed) for the point-or-stack checks
STACK_CASES = {
    "rescaled-ball(2)": (lambda: potentials.rescaled_ball_potential(2, 3.0),
                         20, 0.95, 0),
    "rescaled-ball(3)": (lambda: potentials.rescaled_ball_potential(3, 3.0),
                         20, 0.95, 1),
    "ke-ball(2)": (lambda: domains.ke_potential(domains.ball(2), 3.0),
                   20, 0.95, 2),
    "bergman-polydisc(2)": (
        lambda: domains.bergman_potential(domains.polydisc(2)), 20, 0.95, 3),
    "fd-copy": (_fd_copy, 5, 0.8, 13),
}
POINT_OR_STACK = (vfield.dbar_defect, vfield.dbar_defect_closed_form,
                  vfield.level_set_tangency)


@pytest.mark.parametrize("case", list(STACK_CASES))
def test_stack_equals_per_point_calls(case, monkeypatch):
    make, count, shrink, seed = STACK_CASES[case]
    p = make()
    zs = np.array(sample_interior(p.domain, np.random.default_rng(seed),
                                  count, shrink=shrink))
    fd_calls = []
    real_fd_jet = field.fd_jet
    monkeypatch.setattr(field, "fd_jet", lambda f, z, order: (
        fd_calls.append(len(z)) or real_fd_jet(f, z, order)))
    for f in POINT_OR_STACK:
        fd_calls.clear()
        stacked = f(p, zs)
        # the FD-only copy has no closed form: one fd_jet of the stack
        assert fd_calls == ([count] if p.parts is None else []), f.__name__
        assert stacked.shape == (count,)
        per_point = [f(p, z) for z in zs]
        assert all(type(v) is float for v in per_point)
        assert np.array_equal(stacked, per_point), f.__name__


def test_stack_with_a_point_outside_fails_closed():
    p = potentials.rescaled_ball_potential(2, 3.0)
    outside = np.array([0.9 + 0.3j, 0.5 + 0j])
    zs = np.array([[0.1 + 0j, 0.2j], outside, [0.0, -0.3 + 0j]])
    for f in POINT_OR_STACK:
        with pytest.raises((EvaluationError, DegenerateMetricError)) as err:
            f(p, zs)
        assert repr(outside) in str(err.value), f.__name__


def test_dbar_defect_matches_brute_force():
    """The covariant formula reproduces finite differences of V itself."""
    p = domains.bergman_potential(domains.polydisc(2))  # non-constant length
    K, n = 1.0, 2
    z0 = np.array([0.3 + 0.2j, -0.1 + 0.45j])

    def v_components(z):
        fr = hermgeo.metric_from_potential(p, z, order=2)
        factor = np.exp(K * fr.jet.value() / (n + 1))
        return factor * fr.raise_index(fr.jet.holo_gradient())

    h = 1e-5
    T = np.zeros((n, n), complex)
    for b in range(n):
        zp, zm = z0.copy(), z0.copy()
        zp[b] += h
        zm[b] -= h
        dx = (v_components(zp) - v_components(zm)) / (2 * h)
        zp, zm = z0.copy(), z0.copy()
        zp[b] += 1j * h
        zm[b] -= 1j * h
        dy = (v_components(zp) - v_components(zm)) / (2 * h)
        T[:, b] = 0.5 * (dx + 1j * dy)
    frame = hermgeo.metric_from_potential(p, z0, order=2)
    brute = float(np.real(np.sum(frame.g * (T @ frame.g_inv @ T.conj().T))))
    assert vfield.dbar_defect(p, z0) == pytest.approx(brute, rel=1e-6)


def test_defining_potential_field_is_linear_and_holomorphic():
    """The ball's defining-function potential gives V^a = i z^a exactly.

    Its gradient length |z|^2 is not constant, yet the resulting field is
    the (holomorphic) dilation generator, so the true defect vanishes while
    the constant-length closed form evaluates to e^(2K phi/(n+1)) (|z|^2-1)^2
    -- the two agree only under the constant-length identity.
    """
    n, K = 2, 3.0
    p = domains.ke_potential(domains.ball(n), K)
    rng = np.random.default_rng(5)
    for z in sample_interior(p.domain, rng, 10):
        frame = hermgeo.metric_from_potential(p, z, order=2)
        factor = np.exp(K * frame.jet.value() / (n + 1))
        components = 1j * factor * frame.raise_index(frame.jet.holo_gradient())
        np.testing.assert_allclose(components, 1j * z, atol=1e-12)
        assert vfield.dbar_defect(p, z) <= 1e-10
    assert vfield.dbar_defect_closed_form(p, np.zeros(n, complex)) == \
        pytest.approx(1.0, abs=1e-14)


def test_level_set_tangency(certified):
    rng = np.random.default_rng(6)
    for z in sample_interior(certified.domain, rng, 10):
        assert vfield.level_set_tangency(certified, z) <= 1e-12
    assert vfield.level_set_tangency(certified, np.zeros(2, complex)) <= 1e-15
    # the cancellation needs no constancy of the gradient length
    p = domains.ke_potential(domains.ball(2), 3.0)
    assert vfield.level_set_tangency(p, np.array([0.3, 0.1j])) <= 1e-12


def test_flow_zero_time_is_identity(certified):
    z0 = np.array([0.2 + 0.1j, 0.05 - 0.3j])
    out = vfield.integrate_flow(certified, z0, 0.0)
    np.testing.assert_array_equal(out, z0)


def test_flow_conserves_potential(certified):
    z0 = np.zeros(2, complex)
    traj = vfield.flow_trajectory(certified, z0, 1.0, dt=1e-3,
                                  generator="re_w", record_every=100)
    assert np.max(np.abs(traj["values"] - certified(z0))) <= 1e-6


def test_flow_long_horizon_conservation(certified):
    z0 = np.array([0.1 + 0.05j, -0.2 + 0.1j])
    traj = vfield.flow_trajectory(certified, z0, 5.0, dt=1e-3,
                                  generator="re_w", record_every=500)
    assert np.max(np.abs(traj["values"] - certified(z0))) <= 1e-6


def test_flow_horizon_cap(certified):
    with pytest.raises(ValueError):
        vfield.integrate_flow(certified, np.zeros(2, complex), 20.0)
    # an infinite dt is not one step of size t, and NaN is not a bare
    # conversion error
    z0 = np.array([0.1, 0.0], complex)
    for t, dt in ((0.5, np.inf), (0.5, np.nan), (np.nan, 1e-3),
                  (np.inf, 1e-3)):
        with pytest.raises(ValueError, match="finite"):
            vfield.integrate_flow(certified, z0, t, dt=dt)
    with pytest.raises(ValueError, match="record_every"):
        vfield.flow_trajectory(certified, z0, 0.1, record_every=-1)


def test_record_every_is_an_integer(certified):
    """2.5 would record every 5th step and True every step; 2.0 is 2."""
    z0 = np.array([0.1, 0.0], complex)
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="record_every"):
            vfield.flow_trajectory(certified, z0, 0.02, record_every=bad)
    two = vfield.flow_trajectory(certified, z0, 0.02, record_every=2)
    two_float = vfield.flow_trajectory(certified, z0, 0.02, record_every=2.0)
    assert len(two["times"]) == 11  # the start and every 2nd of 20 steps
    np.testing.assert_array_equal(two_float["times"], two["times"])
    np.testing.assert_array_equal(two_float["points"], two["points"])


def test_unknown_generator_is_rejected(certified):
    with pytest.raises(ValueError, match="unknown generator 're_x'"):
        vfield.integrate_flow(certified, np.zeros(2, complex), 0.1,
                              generator="re_x")


def _nan_velocity_at(monkeypatch, call):
    """Make the ``call``-th ``_velocity`` call's last row NaN; return the
    list that counts the calls."""
    real, calls = vfield._velocity, []

    def nan_row(p, z, re_v):
        v = real(p, z, re_v)
        calls.append(None)
        if len(calls) == call:
            v[-1] = np.nan
        return v

    monkeypatch.setattr(vfield, "_velocity", nan_row)
    return calls


def test_non_finite_flow_row_raises(certified, monkeypatch):
    """The stacked membership check validates the rows it checks."""
    # the fourth RK4 stage of the first step feeds no frame
    calls = _nan_velocity_at(monkeypatch, 4)
    with pytest.raises(ValueError, match="non-finite"):
        vfield.integrate_flow(certified, np.array([[0.1, 0.0], [0.0, 0.1j]]),
                              0.1, dt=0.05)
    assert len(calls) == 4


def test_non_finite_multistep_row_raises(certified, monkeypatch):
    """A NaN velocity in a multistep step reaches the membership check:
    steps 1 to 5 take four frames each, step 7 takes the 22nd."""
    calls = _nan_velocity_at(monkeypatch, 22)
    with pytest.raises(ValueError, match="non-finite"):
        vfield.integrate_flow(certified, np.array([[0.1, 0.0], [0.0, 0.1j]]),
                              0.5, dt=0.05)
    assert len(calls) == 22


# ---------------------------------------------------------------------------
# the velocity reads the metric kernel, not a frame

def _frame_velocity(p, z, re_v):
    """The velocity by the frame route: i phi^a from an order-2
    ``MetricFrame``, times e^(K phi/(n+1)) on the ``re_v`` rows."""
    frame = hermgeo.metric_from_potential(p, z, order=2)
    phi_up = np.conj((frame.g_inv @ frame.jet.holo_gradient()[..., None])
                     [..., 0])
    factor = np.where(re_v, np.exp(p.ricci_constant * frame.jet.value()
                                   / (p.domain.n + 1)), 1.0)
    return (1j * factor)[:, None] * phi_up


VELOCITY_CASES = {
    **{f"rescaled-ball(n={n})":
       (lambda n=n: potentials.rescaled_ball_potential(n, 3.0))
       for n in (1, 2, 3)},
    "type1(2,2)": lambda: domains.bergman_potential(domains.type_i(2, 2)),
    "type4(3)": lambda: domains.bergman_potential(domains.type_iv(3)),
    "fd-only": lambda: _fd_only(potentials.rescaled_ball_potential(2, 3.0)),
}


@pytest.mark.parametrize("kind", list(VELOCITY_CASES))
@pytest.mark.parametrize("rows", [1, 8])
def test_velocity_equals_the_frame_route(kind, rows):
    """``_velocity`` gives the bytes of the frame route it replaced, at one
    row and at a stack of rows with mixed generators."""
    p = VELOCITY_CASES[kind]()
    zs = np.array(sample_interior(p.domain, np.random.default_rng(67), rows,
                                  shrink=0.8))
    re_v = np.arange(rows) % 2 == 0
    v = vfield._velocity(p, zs, re_v)
    assert v.tobytes() == _frame_velocity(p, zs, re_v).tobytes()
    assert v.shape == zs.shape


def test_lockstep_builds_no_frame(monkeypatch):
    """The flow suite at the bench's config builds frames only outside
    ``_lockstep``, for its residuals: a step builds none."""
    real_lockstep, inside, built = vfield._lockstep, [], []
    real_frame = hermgeo.MetricFrame

    def lockstep_spy(*args, **kwargs):
        inside.append(None)
        try:
            return real_lockstep(*args, **kwargs)
        finally:
            inside.pop()

    def frame_spy(*args, **kwargs):
        built.append(bool(inside))
        return real_frame(*args, **kwargs)

    monkeypatch.setattr(vfield, "_lockstep", lockstep_spy)
    monkeypatch.setattr(hermgeo, "MetricFrame", frame_spy)
    run_suite("flow", {"horizon": 1.0, "dt": 4e-3, "seed": 3})
    assert built and not any(built)


@pytest.mark.parametrize("make, message", [
    (lambda p: _Skewed(p, 1e-6, 1), "(?s)not Hermitian.*defect 1.00e-06"),
    (lambda p: _Skewed(p, -10.0, 1, (0, 0)),
     "(?s)not positive definite.*min eigenvalue"),
], ids=["not-hermitian", "indefinite"])
def test_flow_raises_the_frames_metric_error(make, message):
    """A row whose metric is not Hermitian, or not positive definite,
    stops a flow with the error, and the point, that a frame names."""
    p = make(potentials.rescaled_ball_potential(2, 3.0))
    zs = np.array(sample_interior(p.domain, np.random.default_rng(5), 3,
                                  shrink=0.8))
    with pytest.raises(DegenerateMetricError, match=message) as frame:
        hermgeo.metric_from_potential(p, zs, order=2)
    with pytest.raises(DegenerateMetricError, match=message) as flow:
        vfield.integrate_flow(p, zs, 0.1, dt=0.05)
    assert str(flow.value) == str(frame.value)
    assert repr(zs[1]) in str(flow.value)


def test_rk4_stage_outside_is_a_flow_exit():
    """A coarse RK4 step whose stage point leaves the ball is an exit at
    the end of that step, not an evaluation error inside the jet; a stack
    gives the leaving row's own exit time."""
    p = potentials.rescaled_ball_potential(2, 3.0)
    z0 = np.array([0.9, 0j])
    with pytest.raises(FlowExitError) as lone:
        vfield.integrate_flow(p, z0, 1.0, dt=0.5, generator="re_v")
    assert 0 < lone.value.time <= 0.5
    with pytest.raises(FlowExitError, match=r"\(row 1\)") as stack:
        vfield.integrate_flow(p, np.array([[0.1, 0.2j], z0]), 1.0, dt=0.5,
                              generator="re_v")
    assert stack.value.time == lone.value.time


def test_ab6_weights_have_order_six():
    """sum_j beta_j (-j)^k = 1/(k+1) for k = 0..5, in exact arithmetic:
    the step integrates a polynomial velocity of degree 5 exactly."""
    beta = [Fraction(b, vfield.AB6_DENOMINATOR)
            for b in vfield.AB6_NUMERATORS]
    assert len(beta) == 6
    for k in range(6):
        assert sum(b * (-j) ** k for j, b in enumerate(beta)) == \
            Fraction(1, k + 1)


@pytest.mark.parametrize("t", [4e-4, -4e-4, 6e-4])
def test_flow_shorter_than_a_step_takes_one(certified, t):
    """A nonzero time below dt takes one step of length t, also below
    dt/2, where round(|t|/dt) is 0."""
    z0 = np.array([0.15 + 0.1j, -0.1 + 0.2j])
    end = vfield.integrate_flow(certified, z0, t, dt=1e-3, generator="re_v")
    assert not np.array_equal(end, z0)
    assert np.max(np.abs(end - vfield.exact_re_v_flow(z0, t))) <= 1e-15


def test_flow_pullback_preserves_metric(certified):
    dev = vfield.pullback_metric_deviation(certified, np.zeros(2, complex), 0.5)
    assert dev <= 1e-4


def _reparametrization_deviation(p, z0, t, dt=1e-3):
    """The ``reparametrization_check`` residual, integrated on its own."""
    check = vfield.reparametrization_check(p, z0, t)
    return check.residual(vfield.integrate_flow(
        p, check.starts, check.t, dt=dt, generator=check.generator))


def test_flow_reparametrization(certified):
    z0 = np.array([0.15 + 0.1j, -0.1 + 0.2j])
    assert _reparametrization_deviation(certified, z0, 0.8) <= 1e-5


@pytest.mark.parametrize("n, K", [(2, 3.0), (3, 1.0)])
def test_exact_re_v_flow_is_the_integrated_flow(n, K):
    """The closed-form map against the integrator at dt 4e-3: Re V at t
    0.8, and Re W at t 1.0 as the map at t e^(-K phi(z0)/(n+1))."""
    p = potentials.rescaled_ball_potential(n, K)
    z0 = np.array([0.15 + 0.1j, -0.1 + 0.2j, 0.05j][:n])
    slow = np.exp(-K * p(z0) / (n + 1))
    exact = vfield.exact_re_v_flow(z0, [0.0, 0.8, slow])
    assert exact.shape == (3, n)
    np.testing.assert_array_equal(exact[0], z0)
    np.testing.assert_array_equal(exact[1], vfield.exact_re_v_flow(z0, 0.8))
    ends = vfield.integrate_flow(p, np.stack([z0, z0]), [0.8, 1.0], dt=4e-3,
                                 generator=["re_v", "re_w"])
    assert np.max(np.abs(ends - exact[1:])) <= 1e-10
    # a one-parameter group: flowing 0.3 then 0.5 is flowing 0.8
    half = vfield.exact_re_v_flow(vfield.exact_re_v_flow(z0, 0.3), 0.5)
    assert np.max(np.abs(half - exact[1])) <= 1e-14


def test_flow_suite_exact_flow_tracks_the_step():
    """The exact_flow residual is the integrator's global error: halving
    dt divides it by about 2^6, the order of the Adams–Bashforth step."""
    def exact_flow(dt):
        report = run_suite("flow", {"horizon": 1.0, "dt": dt, "seed": 1})
        return report.samples[0]["residuals"]["exact_flow"]

    coarse, fine = exact_flow(8e-3), exact_flow(4e-3)
    assert fine < 0.01
    assert 32.0 < coarse / fine < 128.0


def _off_center():
    # an off-center rotation: W = i (z + 0.8), circles around -0.8 and
    # leaves the unit disc from z0 = 0.5
    return PotentialField(
        domain=domains.ball(1), ricci_constant=2.0, parts=None,
        label="off-center",
        fn=lambda z: np.sum(np.abs(z) ** 2, axis=-1) + 2 * np.real(0.8 * z[:, 0]),
    )


def test_flow_exit_detection():
    p = _off_center()
    with pytest.raises(FlowExitError) as err:
        vfield.integrate_flow(p, np.array([0.5 + 0j]), 3.0, dt=5e-3)
    assert 0 < err.value.time <= 3.0
    # starting outside fails immediately
    with pytest.raises(FlowExitError):
        vfield.integrate_flow(p, np.array([1.5 + 0j]), 1.0)


def test_trajectory_csv_round_trip(tmp_path, certified):
    traj = vfield.flow_trajectory(certified, np.zeros(2, complex), 0.2,
                                  dt=1e-3, generator="re_w", record_every=50)
    path = tmp_path / "traj.csv"
    vfield.trajectory_to_csv(traj, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "re_z1", "im_z1", "re_z2", "im_z2", "phi"]
    assert len(rows) - 1 == len(traj["times"])
    last = [float(x) for x in rows[-1]]
    assert last[0] == pytest.approx(0.2, abs=1e-12)
    assert last[5] == pytest.approx(traj["values"][-1], rel=1e-12)


def _stacked_calls(monkeypatch):
    """Record every (starts, t, dt, generator, endpoints) of integrate_flow."""
    calls = []
    real = vfield.integrate_flow

    def spy(p, z0, t, dt=1e-3, generator="re_w"):
        ends = real(p, z0, t, dt=dt, generator=generator)
        calls.append((np.array(z0), t, dt, generator, ends))
        return ends

    monkeypatch.setattr(vfield, "integrate_flow", spy)
    return calls, real


def _assert_rows_match_single_flows(p, calls, real):
    for starts, t, dt, generator, ends in calls:
        m = len(starts)
        ts = np.broadcast_to(np.asarray(t, float), (m,))
        gens = np.broadcast_to(np.asarray(generator), (m,))
        for z, ti, g, end in zip(starts, ts, gens, ends):
            one = real(p, z, float(ti), dt=dt, generator=str(g))
            assert np.array_equal(one, end)


def test_pullback_flows_batched_equal_single_rows(certified, monkeypatch):
    calls, real = _stacked_calls(monkeypatch)
    dev = vfield.pullback_metric_deviation(certified, np.array([0.1 + 0.05j,
                                                                -0.2j]),
                                           0.5, dt=4e-3)
    assert dev <= 1e-4
    (starts, t, _, generator, ends), = calls
    assert starts.shape == (5, 2) and generator == "re_v"
    _assert_rows_match_single_flows(certified, calls, real)


def test_reparametrization_flows_batched_equal_single_rows(certified,
                                                           monkeypatch):
    calls, real = _stacked_calls(monkeypatch)
    z0 = np.array([0.15 + 0.1j, -0.1 + 0.2j])
    assert _reparametrization_deviation(certified, z0, 0.8, dt=4e-3) <= 1e-5
    (starts, t, dt, generator, ends), = calls
    assert list(generator) == ["re_v", "re_w"]
    steps = [round(abs(ti) / dt) for ti in t]
    assert steps[0] != steps[1]  # rows of different lengths
    _assert_rows_match_single_flows(certified, calls, real)


def test_stacked_flow_rows_of_different_lengths(certified):
    """Rows whose step counts sit below, at and above the five RK4 steps
    that start the multistep history equal their lone runs bit for bit."""
    starts = np.array([[0.1 + 0.05j, -0.2j], [0.0, 0.3], [0.2j, 0.1],
                       [-0.1, 0.1 - 0.1j], [0.05, 0.1j], [-0.2j, 0.1],
                       [0.1, -0.1j], [0.3j, 0.0]])
    t = [0.3, -0.2, 0.0, 0.12, 0.012, -0.02, 0.024, 0.028]
    generator = ["re_v", "re_w", "re_v", "re_w", "re_v", "re_v", "re_w",
                 "re_v"]
    assert [round(abs(ti) / 4e-3) for ti in t] == [75, 50, 0, 30, 3, 5, 6, 7]
    ends = vfield.integrate_flow(certified, starts, t, dt=4e-3,
                                 generator=generator)
    assert ends.shape == starts.shape
    for z, ti, g, end in zip(starts, t, generator, ends):
        one = vfield.integrate_flow(certified, z, ti, dt=4e-3, generator=g)
        assert np.array_equal(one, end)
    assert np.array_equal(ends[2], starts[2])


def _exit_time(p, z, t, dt):
    with pytest.raises(FlowExitError) as err:
        vfield.integrate_flow(p, np.array([z]), t, dt=dt)
    return err.value.time


def test_stacked_flow_exit_is_the_earliest():
    p = _off_center()
    dt = 5e-3
    # rows 1 and 2 are the same flow: the tie goes to the lower row
    with pytest.raises(FlowExitError) as err:
        vfield.integrate_flow(p, np.array([[0.0], [0.5], [0.5]]), 3.0, dt=dt)
    assert err.value.time == _exit_time(p, 0.5, 3.0, dt)
    assert err.value.time < _exit_time(p, 0.0, 3.0, dt)
    assert "row 1" in str(err.value)
    # the higher row's shorter step leaves the domain at an earlier time
    with pytest.raises(FlowExitError) as err:
        vfield.integrate_flow(p, np.array([[0.5], [0.5]]), [3.0, 2.9985],
                              dt=dt)
    late, early = _exit_time(p, 0.5, 3.0, dt), _exit_time(p, 0.5, 2.9985, dt)
    assert early < late
    assert err.value.time == early
    assert "row 1" in str(err.value)


def _lockstep_checks(monkeypatch, p, starts, t, dt, generator,
                     record_every=0):
    """``_lockstep``'s outcome, (ends, record) or its FlowExitError, the
    points of its membership checks of accepted steps (the start rows,
    then the running rows after each step) and those of its RK4 stage
    checks (three per RK4 step)."""
    real, checks, stages = domains.DomainModel.contains, [], []
    real_stage, in_stage = vfield._stage, []

    def spy(self, z):
        (stages if in_stage else checks).append(np.array(z))
        return real(self, z)

    def stage_spy(*args):
        in_stage.append(None)
        try:
            return real_stage(*args)
        finally:
            in_stage.pop()

    with monkeypatch.context() as mp:
        mp.setattr(domains.DomainModel, "contains", spy)
        mp.setattr(vfield, "_stage", stage_spy)
        try:
            outcome = vfield._lockstep(p, starts, t, dt, generator,
                                       record_every)
        except FlowExitError as err:
            outcome = err
    return outcome, checks, stages


def _assert_steps_match_lone_runs(monkeypatch, p, starts, t, dt, generator,
                                  record_every):
    """Each row of the stack takes, step by step and stage by stage, the
    points of its lone run bit for bit; the stack checks the rows still
    running at every step and at every RK4 stage.  Returns the stack's
    outcome, each row's lone one and the stack's number of steps."""
    stack, checks, stages = _lockstep_checks(monkeypatch, p, starts, t, dt,
                                             generator, record_every)
    lone = [_lockstep_checks(monkeypatch, p, z[None], ti, dt, g,
                             record_every)
            for z, ti, g in zip(starts, t, generator)]
    assert np.array_equal(checks[0], starts)
    for k, points in enumerate(checks[1:], 1):
        expected = [c[k] for _, c, _ in lone if k < len(c)]
        assert np.array_equal(points, np.concatenate(expected)), k
    assert len(stages) == 3 * min(len(checks) - 1, vfield._HISTORY - 1)
    for j, points in enumerate(stages):
        expected = [c[j] for _, _, c in lone if j < len(c)]
        assert np.array_equal(points, np.concatenate(expected)), j
    return stack, [outcome for outcome, _, _ in lone], len(checks) - 1


@pytest.mark.parametrize("n, K, starts", [
    (2, 3.0, [[0.1 + 0.05j, -0.2j], [0.3, 0.1j], [-0.1j, 0.2]]),
    # in C^1 a lone row's multistep sum must add as a stack's does
    (1, 2.0, [[0.3 + 0.1j], [-0.2 + 0.4j], [0.1j]])])
def test_lockstep_rows_ending_inside_and_after_the_rk4_start(n, K, starts,
                                                             monkeypatch):
    """Rows of 3, 7 and 12 steps: row 0, recorded every 2nd step, ends
    first, and its record stops at its own last step."""
    p = potentials.rescaled_ball_potential(n, K)
    dt, starts = 4e-3, np.array(starts)
    t, generator = [0.012, -0.028, 0.048], ["re_v", "re_w", "re_v"]
    (ends, record), lone, steps = _assert_steps_match_lone_runs(
        monkeypatch, p, starts, t, dt, generator, record_every=2)
    assert steps == 12
    for end, (one, _) in zip(ends, lone):
        assert np.array_equal(end, one[0])
    h = t[0] / 3
    assert [time for time, _ in record] == [0.0, 2 * h, 3 * h]
    assert len(record) == len(lone[0][1])
    for (time, z), (one_time, one_z) in zip(record, lone[0][1]):
        assert time == one_time and np.array_equal(z, one_z)
    assert np.array_equal(record[-1][1], ends[0])


def test_lockstep_row_leaving_while_others_run(monkeypatch):
    """Row 1 leaves the disc at its 11th step; the rows of 3 and 7 steps
    end before that, and the row of 12 steps stops with the exit."""
    p, dt = _off_center(), 0.02
    starts = np.array([[-0.7 + 0j], [0.97 + 0j], [-0.75 + 0j],
                       [-0.65 + 0.05j]])
    t, generator = [0.06, 1.0, -0.14, 0.24], ["re_v", "re_w", "re_w", "re_v"]
    err, lone, steps = _assert_steps_match_lone_runs(
        monkeypatch, p, starts, t, dt, generator, record_every=1)
    assert steps == 11
    assert isinstance(err, FlowExitError) and "row 1" in str(err)
    assert err.time == lone[1].time == 11 * dt
    assert not isinstance(lone[3], FlowExitError)


def _report_data(name, config):
    data = json.loads(run_suite(name, config).to_json())
    data.pop("runtime_ms")
    return data


@pytest.mark.parametrize("seed", [1, 3])
def test_flow_report_is_deterministic(seed):
    config = {"horizon": 1.0, "dt": 4e-3, "seed": seed}
    assert _report_data("flow", config) == _report_data("flow", config)


# ---------------------------------------------------------------------------
# the flow suite's one stack

FLOW_CONFIGS = [(1.0, 4e-3), (0.04, 0.04)]  # (horizon, dt)


def _lone_flow_residuals(seed, horizon, dt):
    """The flow suite's three flow residuals, each from its own integration,
    normalized as the report does; the lone level-set trajectory too."""
    p = potentials.rescaled_ball_potential(2, 3.0)
    rng = np.random.default_rng(seed)
    z0 = sample_interior(p.domain, rng, 1, shrink=0.5)[0]
    traj = vfield.flow_trajectory(p, z0, horizon, dt=dt, generator="re_w",
                                  record_every=200)
    raw = {
        "conservation": float(np.max(np.abs(traj["values"] - p(z0)))),
        "pullback_metric": vfield.pullback_metric_deviation(
            p, np.zeros(2, dtype=complex), 0.5, dt=dt),
        "reparametrization": _reparametrization_deviation(p, z0, 0.8,
                                                          dt=dt),
    }
    thresholds = {"conservation": 1e-6, "pullback_metric": 1e-4,
                  "reparametrization": 1e-5}
    return {k: raw[k] / thresholds[k] for k in raw}, traj


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("horizon, dt", FLOW_CONFIGS)
def test_flow_suite_stack_equals_lone_flows(seed, horizon, dt, tmp_path):
    path = tmp_path / "suite.csv"
    report = run_suite("flow", {"horizon": horizon, "dt": dt, "seed": seed,
                                "trajectory_csv": str(path)})
    (row,) = report.samples
    lone, traj = _lone_flow_residuals(seed, horizon, dt)
    for key, value in lone.items():
        assert row["residuals"][key] == value, key
    lone_path = tmp_path / "lone.csv"
    vfield.trajectory_to_csv(traj, lone_path)
    assert path.read_bytes() == lone_path.read_bytes()
    # the level-set row is recorded on its own step count: every 200th
    # step and its last, never past its end, whatever the other rows run
    steps = int(round(horizon / dt))
    h = horizon / steps
    marks = sorted(set(range(0, steps, 200)) | {steps})
    assert list(traj["times"]) == [k * h for k in marks]


def _lone_exit_time(p, z, t, dt, generator):
    with pytest.raises(FlowExitError) as err:
        vfield.integrate_flow(p, z, t, dt=dt, generator=generator)
    return err.value.time


def test_flow_stack_exit_is_the_earliest_of_any_row():
    p = _off_center()
    dt = 5e-3
    inside, leaving = np.array([-0.7 + 0j]), np.array([0.5 + 0j])
    # the recorded row leaves; the check's rows circle -0.8 and stay
    with pytest.raises(FlowExitError) as err:
        vfield.run_flows(p, (leaving, 3.0, "re_w"),
                         [vfield.reparametrization_check(p, inside, 0.5)],
                         dt=dt)
    assert err.value.time == _lone_exit_time(p, leaving, 3.0, dt, "re_w")
    # a check's rows leave; the recorded row stays
    check = vfield.pullback_check(p, leaving, 3.0)
    with pytest.raises(FlowExitError) as err:
        vfield.run_flows(p, (inside, 3.0, "re_w"), [check], dt=dt)
    assert err.value.time == min(
        _lone_exit_time(p, z, 3.0, dt, "re_v") for z in check.starts)


def test_zero_time_trajectory_is_its_start(certified):
    z0 = np.array([0.2 + 0.1j, 0.05 - 0.3j])
    for record_every in (0, 1):
        traj = vfield.flow_trajectory(certified, z0, 0.0,
                                      record_every=record_every)
        assert list(traj["times"]) == [0.0]
        assert np.array_equal(traj["points"][0], z0)
