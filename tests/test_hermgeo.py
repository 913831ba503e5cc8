"""Metric frames and the tensor identities they satisfy."""

import dataclasses

import numpy as np
import pytest

from kelab import domains, hermgeo, potentials
from kelab.errors import DegenerateMetricError
from kelab.field import PotentialField
from kelab.sampling import sample_interior

from flat_fixture import quadratic_fixture


@pytest.fixture(scope="module")
def phi_rho_2():
    """Defining-function potential of the 2-ball (Ricci constant 3)."""
    return domains.ke_potential(domains.ball(2), 3.0)


@pytest.fixture(scope="module")
def rescaled_23():
    return potentials.rescaled_ball_potential(2, 3.0)


def test_ball_frame_at_center(phi_rho_2):
    frame = hermgeo.metric_from_potential(phi_rho_2, np.zeros(2, complex))
    np.testing.assert_allclose(frame.g, np.eye(2), atol=1e-14)
    # the Christoffels g^{l mbar} phi_{a b mbar} vanish with the third tensor
    np.testing.assert_allclose(frame.jet.third_tensor(), 0.0, atol=1e-14)
    assert frame.log_det_g == pytest.approx(0.0, abs=1e-14)


def test_type_i_frame_at_center():
    p = domains.bergman_potential(domains.type_i(2, 2))
    frame = hermgeo.metric_from_potential(p, np.zeros(4, complex))
    np.testing.assert_allclose(frame.g, 4.0 * np.eye(4), atol=1e-14)


def test_frame_invariants_at_random_points():
    p = domains.bergman_potential(domains.type_iii(2))
    rng = np.random.default_rng(9)
    for z in sample_interior(p.domain, rng, 20):
        frame = hermgeo.metric_from_potential(p, z)
        assert np.linalg.eigvalsh(frame.g)[0] > 0
        np.testing.assert_allclose(frame.g @ frame.g_inv, np.eye(3), atol=1e-10)
        H = hermgeo.covariant_hessian(frame)
        np.testing.assert_allclose(H, H.T, atol=1e-10)


def test_degenerate_metric_rejected():
    # the real part of z^2 is pluriharmonic: complex Hessian identically 0
    p = PotentialField(
        domain=domains.ball(1), ricci_constant=np.nan, parts=None,
        label="pluriharmonic", fn=lambda z: z[:, 0].real ** 2 - z[:, 0].imag ** 2,
    )
    with pytest.raises(DegenerateMetricError):
        hermgeo.metric_from_potential(p, np.array([0.1 + 0.2j]))


def test_metric_frame_needs_order_two(rescaled_23):
    """A frame needs the mixed Hessian, so order 0 or 1 is an argument
    error, as a bad order of ``fd_jet``, not a missing tensor."""
    for order in (0, 1):
        with pytest.raises(ValueError, match="order"):
            hermgeo.metric_from_potential(rescaled_23, np.zeros(2), order)


def test_frame_readers_need_their_order(rescaled_23):
    """The covariant Hessian reads an order-3 frame's Christoffels, and
    curvature the order-4 tensors; a lower order is a ValueError."""
    z = np.zeros(2)
    with pytest.raises(ValueError, match="order >= 3"):
        hermgeo.covariant_hessian(
            hermgeo.metric_from_potential(rescaled_23, z, order=2))
    with pytest.raises(ValueError, match="order-4 frame"):
        hermgeo.ricci_from_frame(
            hermgeo.metric_from_potential(rescaled_23, z, order=3))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_gradient_length_law(n):
    p = domains.ke_potential(domains.ball(n), float(n + 1))
    rng = np.random.default_rng(n)
    for z in sample_interior(p.domain, rng, 50):
        frame = hermgeo.metric_from_potential(p, z)
        assert hermgeo.gradient_length_sq(frame) == pytest.approx(
            float(np.sum(np.abs(z) ** 2)), abs=1e-12
        )


def test_gradient_length_at_critical_point(phi_rho_2):
    frame = hermgeo.metric_from_potential(phi_rho_2, np.zeros(2, complex))
    assert hermgeo.gradient_length_sq(frame) == 0.0
    assert 2 * hermgeo.gradient_length_sq(frame) == 0.0


def test_rescaled_gradient_length_point(rescaled_23):
    z = np.array([0.3, 0.4], dtype=complex)
    frame = hermgeo.metric_from_potential(rescaled_23, z)
    assert hermgeo.gradient_length_sq(frame) == pytest.approx(1.0, abs=1e-12)
    assert 2 * hermgeo.gradient_length_sq(frame) == pytest.approx(2.0, abs=1e-12)


def test_covariant_hessian_examples(rescaled_23):
    z0 = np.zeros(2, complex)
    frame = hermgeo.metric_from_potential(rescaled_23, z0)
    H = hermgeo.covariant_hessian(frame)
    np.testing.assert_allclose(H, [[-1.0, 0.0], [0.0, 0.0]], atol=1e-14)
    assert hermgeo.hessian_norm_sq(frame) == pytest.approx(1.0, abs=1e-14)
    # contraction with the raised gradient reproduces -phi_b at the center
    phi_z = frame.jet.holo_gradient()
    contraction = np.einsum("ab,a->b", H, frame.raise_index(phi_z))
    np.testing.assert_allclose(contraction, -phi_z, atol=1e-14)
    # symmetry away from the center
    z = np.array([0.3 + 0.15j, -0.2 + 0.25j])
    frame = hermgeo.metric_from_potential(rescaled_23, z)
    H = hermgeo.covariant_hessian(frame)
    np.testing.assert_allclose(H, H.T, atol=1e-13)


def test_flat_fixture_hessian_vanishes():
    p = quadratic_fixture(2)
    z = np.array([0.3 + 0.1j, -0.2j])
    frame = hermgeo.metric_from_potential(p, z)
    np.testing.assert_allclose(
        hermgeo.covariant_hessian(frame), 0.0, atol=1e-14
    )
    assert hermgeo.hessian_norm_sq(frame) == pytest.approx(0.0, abs=1e-14)


def test_key_equation_across_constructions():
    for (n, K) in [(2, 3.0), (3, 4.0), (2, 1.0)]:
        p = potentials.rescaled_ball_potential(n, K)
        rng = np.random.default_rng(17)
        for z in sample_interior(p.domain, rng, 30):
            assert hermgeo.key_equation_residual(p, z) <= 1e-6


def test_hessian_norm_lower_bound_at_constant_length():
    p = potentials.rescaled_ball_potential(2, 3.0)
    rng = np.random.default_rng(23)
    for z in sample_interior(p.domain, rng, 30):
        frame = hermgeo.metric_from_potential(p, z)
        assert hermgeo.hessian_norm_sq(frame) >= 1.0 - 1e-9


def test_laplacian_flat_quadratic():
    p = quadratic_fixture(3)
    frame = hermgeo.metric_from_potential(p, np.array([0.1, 0.2j, 0.0]))
    val = hermgeo.laplacian(lambda z: np.sum(np.abs(z) ** 2, axis=-1), frame)
    assert val == pytest.approx(3.0, abs=1e-8)


def test_laplacian_of_constant_field(rescaled_23):
    # the gradient length of the rescaled potential is a constant field
    field = hermgeo.gradient_length_field(rescaled_23)
    z = np.array([0.25 + 0.1j, -0.2 + 0.15j])
    frame = hermgeo.metric_from_potential(rescaled_23, z)
    assert abs(hermgeo.laplacian(field, frame)) <= 1e-6


@pytest.mark.parametrize("make", [
    lambda: domains.ke_potential(domains.ball(2), 3.0),
    lambda: domains.bergman_potential(domains.polydisc(2)),
    lambda: domains.bergman_potential(domains.type_i(2, 2)),
], ids=["ball-phi-rho", "polydisc2", "type1-22"])
def test_delta_identity(make):
    p = make()
    rng = np.random.default_rng(31)
    for z in sample_interior(p.domain, rng, 12, shrink=0.85):
        assert hermgeo.delta_identity_residual(p, z) <= 1e-3


def test_ricci_ball():
    n = 2
    p = domains.ke_potential(domains.ball(n), float(n + 1))
    rng = np.random.default_rng(41)
    for z in sample_interior(p.domain, rng, 5, shrink=0.8):
        frame = hermgeo.metric_from_potential(p, z, order=2)
        ric = hermgeo.ricci(p, z)
        assert np.max(np.abs(ric + (n + 1) * frame.g)) <= 1e-4


def test_ricci_type_i():
    p = domains.bergman_potential(domains.type_i(2, 2))
    rng = np.random.default_rng(43)
    for z in sample_interior(p.domain, rng, 3, shrink=0.8):
        frame = hermgeo.metric_from_potential(p, z, order=2)
        ric = hermgeo.ricci(p, z)
        assert np.max(np.abs(ric + frame.g)) <= 1e-3


def test_ricci_flat_fixture():
    p = quadratic_fixture(2)
    ric = hermgeo.ricci(p, np.array([0.2, 0.1j]))
    np.testing.assert_allclose(ric, 0.0, atol=1e-8)


def test_ricci_propagates_stencil_failures():
    """A stencil point falling off the domain surfaces as an error."""
    from kelab.errors import EvaluationError

    p = domains.bergman_potential(domains.ball(1))
    z = np.array([0.9999999 + 0j])  # the outer stencil crosses |z| = 1
    with pytest.raises((EvaluationError, DegenerateMetricError)):
        hermgeo.ricci(p, z)


def test_einstein_residual_catalog_spot():
    for d in (domains.ball(2), domains.type_iv(3)):
        p = domains.bergman_potential(d)
        rng = np.random.default_rng(47)
        for z in sample_interior(d, rng, 3, shrink=0.7):
            assert hermgeo.einstein_residual(p, z) <= 1e-3


def test_einstein_residual_analytic_path_tight():
    """With closed-form inner jets the residual reaches 1e-8 well inside."""
    for d in (domains.ball(2), domains.polydisc(2), domains.type_i(2, 2)):
        p = domains.bergman_potential(d)
        rng = np.random.default_rng(53)
        for z in sample_interior(d, rng, 5, shrink=0.6):
            assert hermgeo.einstein_residual(p, z) <= 1e-8


def _fd_jet_spy(monkeypatch):
    """Record (number of base points, order) of every fd_jet call, through
    each module's alias."""
    import kelab
    from kelab import field, jets

    real, calls = jets.fd_jet, []

    def spy(f, z, order, **kwargs):
        calls.append((np.size(z) // np.shape(z)[-1], order))
        return real(f, z, order, **kwargs)

    for module in (jets, hermgeo, field, kelab):
        monkeypatch.setattr(module, "fd_jet", spy)
    return calls


def _fd_only(p):
    """An FD-only copy of ``p``: no parts, values from ``p``."""
    return PotentialField(domain=p.domain, ricci_constant=p.ricci_constant,
                          parts=None, label=f"fd-only[{p.label}]", fn=p)


def test_einstein_residual_nested_fd_path(monkeypatch):
    """FD-only copies of kernel potentials take one order-4 FD frame per
    call, a point or a whole stack, and verify both identities to 1e-3."""
    calls = _fd_jet_spy(monkeypatch)
    for d in (domains.ball(2), domains.polydisc(2)):
        fd_only = _fd_only(domains.bergman_potential(d))
        zs = np.array(sample_interior(d, np.random.default_rng(59), 3,
                                      shrink=0.7))
        for residual in (hermgeo.einstein_residual,
                         hermgeo.delta_identity_residual):
            assert np.all(residual(fd_only, zs) <= 1e-3)
            assert calls == [(len(zs), 4)]
            calls.clear()
            assert residual(fd_only, np.array([0.2 + 0.1j, -0.3j])) <= 1e-3
            assert calls == [(1, 4)]
            calls.clear()


@pytest.mark.parametrize("make", [
    lambda: _fd_only(domains.bergman_potential(domains.type_i(2, 2))),
    lambda: _fd_only(potentials.canonical_potential(domains.ball(2), 3.0)),
    lambda: _fd_only(potentials.canonical_potential(domains.type_i(2, 2),
                                                    1.0)),
], ids=["fd-only-type1(2,2)", "canonical-ball(2)", "canonical-type1(2,2)"])
def test_fd_only_curvature_verifies_both_identities(make):
    """FD-only copies of potentials, the canonical (1/K) log det g among
    them, verify Ric = -K g and the Delta identity to 1e-3 from order-4 FD
    frames."""
    p = make()
    zs = np.array(sample_interior(p.domain, np.random.default_rng(59), 3,
                                  shrink=0.7))
    assert np.max(hermgeo.einstein_residual(p, zs)) <= 1e-3
    assert np.max(hermgeo.delta_identity_residual(p, zs)) <= 1e-3


# ---------------------------------------------------------------------------
# stacked frames

STACKED_KINDS = {
    "ball(3)": lambda: domains.bergman_potential(domains.ball(3)),
    "polydisc(2)": lambda: domains.bergman_potential(domains.polydisc(2)),
    "type1(2,2)": lambda: domains.bergman_potential(domains.type_i(2, 2)),
    "type1(2,3)": lambda: domains.bergman_potential(domains.type_i(2, 3)),
    "type3(2)": lambda: domains.bergman_potential(domains.type_iii(2)),
    "type4(3)": lambda: domains.bergman_potential(domains.type_iv(3)),
    "ball(2) x type4(3)": lambda: domains.bergman_potential(
        domains.product(domains.ball(2), domains.type_iv(3))),
    "rescaled-ball": lambda: potentials.rescaled_ball_potential(2, 3.0),
    "ke-ball": lambda: domains.ke_potential(domains.ball(2), 3.0),
}


@pytest.mark.parametrize("kind", list(STACKED_KINDS))
def test_stacked_frames_match_per_point(kind):
    """One frame call on an (N, n) stack equals N one-point frames bit for
    bit, at orders 2, 3 and 4: g, g_inv, log det and every jet tensor.  A
    point is a stack of one, and the one-point shortcuts keep that."""
    p = STACKED_KINDS[kind]()
    zs = np.array(sample_interior(p.domain, np.random.default_rng(61), 9,
                                  shrink=0.9))
    for order in (2, 3, 4):
        stacked = hermgeo.metric_from_potential(p, zs, order=order)
        lengths = hermgeo.gradient_length_sq(stacked)
        assert stacked.log_det_g.shape == lengths.shape == (len(zs),)
        if order >= 3:
            hessians = hermgeo.covariant_hessian(stacked)
        for i, z in enumerate(zs):
            one = hermgeo.metric_from_potential(p, z, order=order)
            assert one.jet.tensors.keys() == stacked.jet.tensors.keys()
            pairs = [(stacked.g[i], one.g), (stacked.g_inv[i], one.g_inv),
                     (stacked.log_det_g[i], one.log_det_g),
                     (lengths[i], hermgeo.gradient_length_sq(one))]
            pairs += [(t[i], one.jet.tensors[k])
                      for k, t in stacked.jet.tensors.items()]
            if order >= 3:
                pairs.append((hessians[i], hermgeo.covariant_hessian(one)))
            for a, b in pairs:
                assert np.array_equal(a, b)


def test_stacked_ricci_equals_scalar_stencil():
    """ricci is -d dbar of the order-2 log det g at step 2e-3."""
    from kelab.jets import fd_jet

    p = domains.bergman_potential(domains.type_i(2, 2))
    z = np.array([0.1 + 0.05j, -0.2j, 0.15, 0.05 - 0.1j])

    def log_det(w):
        return hermgeo.metric_from_potential(p, w, order=2).log_det_g

    plain = -fd_jet(log_det, z, 2, step=2e-3).mixed_hessian()
    np.testing.assert_array_equal(hermgeo.ricci(p, z), plain)


class _Skewed:
    """``p`` with ``defect`` added to the (0, 1) entry of its (1, 1)
    tensor at row ``row`` of a stack (or at a lone point)."""

    def __init__(self, p, defect, row=0):
        self.p, self.defect, self.row = p, defect, row

    def jet(self, z, order):
        jet = self.p.jet(z, order)
        t = jet.tensors[(1, 1)].copy()
        (t[self.row] if t.ndim == 3 else t)[0, 1] += self.defect
        return dataclasses.replace(jet, tensors={**jet.tensors, (1, 1): t})


def test_non_hermitian_hessian_names_the_point():
    """A (1, 1) defect of 1e-6 at row 1 of a 3-point stack, or at a lone
    point, raises and names that point; one of 1e-10 is averaged away."""
    p = domains.bergman_potential(domains.type_i(2, 2))
    zs = np.array(sample_interior(p.domain, np.random.default_rng(5), 3))
    message = "(?s)not Hermitian.*defect 1.00e-06"
    for z, row in ((zs, 1), (zs[1], 0)):
        with pytest.raises(DegenerateMetricError, match=message) as info:
            hermgeo.metric_from_potential(_Skewed(p, 1e-6, row), z)
        named = [i for i, w in enumerate(zs) if repr(w) in str(info.value)]
        assert named == [1]
    frame = hermgeo.metric_from_potential(_Skewed(p, 1e-10, 1), zs)
    assert np.array_equal(frame.g, np.conj(frame.g.transpose(0, 2, 1)))
    assert not np.array_equal(frame.g, p.jet(zs, 3).mixed_hessian())


HERMITIAN_KINDS = [
    domains.ball(2), domains.polydisc(2), domains.polydisc(3),
    domains.type_i(2, 2), domains.type_i(2, 3), domains.type_i(3, 3),
    domains.type_ii(4), domains.type_ii(5), domains.type_ii(6),
    domains.type_iii(2), domains.type_iii(3), domains.type_iv(3),
    domains.type_iv(5), domains.product(domains.ball(1), domains.type_iv(3)),
]


@pytest.mark.parametrize("d", HERMITIAN_KINDS, ids=lambda d: d.label)
def test_closed_form_metric_is_exactly_hermitian(d):
    """Every closed-form (1, 1) tensor equals its conjugate transpose bit
    for bit, the premise on which ``metric_from_potential`` skips its
    average: the kernel and Kai-Ohsawa potentials, orders 2 to 4."""
    zs = np.array(sample_interior(d, np.random.default_rng(17), 3))
    for p in (domains.bergman_potential(d),
              potentials.kai_ohsawa_potential(d)):
        for order in (2, 3, 4):
            g = p.jet(zs, order).mixed_hessian()
            assert np.array_equal(g, np.conj(g.transpose(0, 2, 1)))


def test_stacked_degenerate_metric_names_the_point():
    """2|z|^2 + log(1 - |z|^2) has the radial eigenvalue
    2 - (1 - |z|^2)^-2 of g, positive only for |z|^2 < 1 - 2^-1/2; the
    second point lies beyond."""
    from kelab.field import BallLog, SquaredNorm

    p = PotentialField(
        domain=domains.ball(2), ricci_constant=np.nan,
        label="degenerate-rim", parts=[
            (2.0, SquaredNorm()),
            (-1.0, BallLog(1.0)),
        ],
    )
    zs = np.array([[0.1, 0.2j], [0.7, -0.1]])
    hermgeo.metric_from_potential(p, zs[:1], order=2)
    with pytest.raises(DegenerateMetricError, match=r"0\.7"):
        hermgeo.metric_from_potential(p, zs, order=2)


# ---------------------------------------------------------------------------
# closed-form curvature from one order-4 frame

CURVATURE_KINDS = [
    domains.ball(2), domains.polydisc(3), domains.type_i(2, 2),
    domains.type_i(2, 3), domains.type_i(3, 3), domains.type_ii(5),
    domains.type_iii(2), domains.type_iii(3), domains.type_iv(3),
    domains.type_iv(5),
    domains.product(domains.type_i(2, 2), domains.ball(1)),
]


@pytest.mark.parametrize("d", CURVATURE_KINDS, ids=lambda d: d.label)
def test_closed_form_curvature_matches_fd_oracle(d):
    """Ricci and Delta|dphi|^2 from one order-4 frame against the FD
    ``ricci`` and ``laplacian``; one point per kind when n >= 9."""
    p = domains.bergman_potential(d)
    zs = np.array(sample_interior(d, np.random.default_rng(67),
                                  1 if d.n >= 9 else 2, shrink=0.6))
    frame = hermgeo.metric_from_potential(p, zs, order=4)
    ric = hermgeo.ricci_from_frame(frame)
    lap = hermgeo.length_laplacian_from_frame(frame)
    assert np.max(np.abs(ric + frame.g)) <= 1e-12
    fd_lap = hermgeo.laplacian(hermgeo.gradient_length_field(p),
                               hermgeo.metric_from_potential(p, zs))
    fd_ric = hermgeo.ricci(p, zs)
    for i in range(len(zs)):
        scale = max(1.0, np.max(np.abs(frame.g[i])))
        assert np.max(np.abs(ric[i] - fd_ric[i])) <= 1e-8 * scale
    np.testing.assert_allclose(lap, fd_lap, rtol=0, atol=1e-6)


def test_stacked_residuals_match_per_point():
    p = domains.bergman_potential(domains.type_i(2, 2))
    zs = np.array(sample_interior(p.domain, np.random.default_rng(71), 4))
    for residual in (hermgeo.einstein_residual,
                     hermgeo.delta_identity_residual,
                     hermgeo.key_equation_residual):
        stacked = residual(p, zs)
        assert stacked.shape == (4,)
        for i, z in enumerate(zs):
            assert abs(stacked[i] - residual(p, z)) <= 1e-15


@pytest.mark.parametrize("d, outside", [
    (domains.ball(1), [1.2 + 0j]),
    (domains.type_i(2, 2), [1.5, 0.0, 0.0, 1.5j]),
    (domains.type_iv(3), [2.0, 0.0, 0.0]),
    (domains.polydisc(2), [0.5, 1.1j]),
], ids=["ball(1)", "type1(2,2)", "type4(3)", "polydisc(2)"])
def test_closed_form_path_fails_closed(d, outside):
    """A point outside the domain raises, alone or inside a stack."""
    from kelab.errors import EvaluationError

    p = domains.bergman_potential(d)
    inside = np.zeros(d.n, complex)
    for residual in (hermgeo.einstein_residual,
                     hermgeo.delta_identity_residual):
        for z in (np.array(outside), np.array([inside, outside])):
            with pytest.raises(EvaluationError):
                residual(p, z)


def test_curvature_suites_take_the_closed_form_path(monkeypatch):
    """Every potential the suites build has parts, so at their defaults the
    one fd_jet call per domain is kai-ohsawa's order-1 oracle of the Cayley
    composition at the origin.  ``flow`` runs at a short horizon."""
    from kelab.suites import SUITES, run_suite

    calls = _fd_jet_spy(monkeypatch)
    for name in SUITES:
        calls.clear()
        report = run_suite(name, {"horizon": 0.1} if name == "flow" else {})
        assert report.passed
        oracle = [(1, 1)] * len(report.samples) if name == "kai-ohsawa" else []
        assert calls == oracle, name
