"""Derivative engine: finite-difference oracle vs closed forms."""

import itertools

import numpy as np
import pytest

from kelab import chengyau, domains, hermgeo, potentials
from kelab.errors import EvaluationError, UnsupportedOrderError
from kelab.field import PotentialField
from kelab.jets import as_point, fd_jet
from kelab.sampling import sample_interior


def quadratic(z):
    return np.sum(np.abs(z) ** 2, axis=-1)


def jet_gap(ja, jb):
    """Largest entrywise difference over the bidegrees of ``ja``."""
    return max(float(np.max(np.abs(ja.tensors[k] - jb.tensors[k])))
               for k in ja.tensors)


def test_fd_jet_quadratic_center():
    jet = fd_jet(quadratic, np.zeros(2, complex), 2)
    for a in range(2):
        for b in range(2):
            expected = 1.0 if a == b else 0.0
            assert jet.mixed_hessian()[a, b] == pytest.approx(expected, abs=1e-9)
            assert abs(jet.pure_hessian()[a, b]) < 1e-9


def test_fd_jet_ball_log_first_derivative():
    # d/dz1 of -log(1-|z|^2) at (0.5, 0) is zbar1/(1-|z|^2) = 0.5/0.75
    def f(z):
        return -np.log(1.0 - np.sum(np.abs(z) ** 2, axis=-1))

    jet = fd_jet(f, np.array([0.5, 0.0], dtype=complex), 1)
    assert jet.holo_gradient()[0] == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_fd_jet_constant_function():
    jet = fd_jet(lambda z: np.full(len(z), 4.25), np.array([0.1 + 0.2j]), 3)
    for (m, l), val in jet.tensors.items():
        if m or l:
            assert np.max(np.abs(val)) < 1e-10


def test_fd_jet_rejects_bad_order_and_step():
    with pytest.raises(ValueError):
        fd_jet(quadratic, np.zeros(2, complex), 0)
    with pytest.raises(ValueError):
        fd_jet(quadratic, np.zeros(2, complex), 5)
    with pytest.raises(ValueError):
        fd_jet(quadratic, np.zeros(2, complex), 2, step=0.0)


def _log_inside(w):
    """-log(0.09 - |w_1|^2) on a stack, NaN outside the disc of radius 0.3."""
    v = 0.09 - np.abs(w[:, 0]) ** 2
    return np.where(v > 0, -np.log(np.abs(v)), np.nan)


def test_fd_jet_reports_bad_stencil_point():
    with pytest.raises(EvaluationError):
        fd_jet(_log_inside, np.array([0.29999 + 0.0j]), 2, step=1e-3)


@pytest.mark.parametrize("d", [domains.ball(2), domains.type_i(2, 2),
                               domains.type_iv(3)], ids=lambda d: d.label)
def test_stacked_fd_jet_equals_its_points(d):
    """fd_jet of a stack evaluates every stencil in one call and sums each
    row in its own order, so it equals its points' jets bit for bit, at
    every order; so does ``hermgeo.ricci``, which differences a stack."""
    p = domains.bergman_potential(d)
    zs = np.array(sample_interior(d, np.random.default_rng(7), 3, shrink=0.55))
    for order in (1, 2, 4):
        for f in (p, hermgeo.gradient_length_field(p)):
            stacked = fd_jet(f, zs, order)
            for i, z in enumerate(zs):
                one = fd_jet(f, z, order)
                for k, t in one.tensors.items():
                    assert np.array_equal(stacked.tensors[k][i], t), (order, k)
    ric = hermgeo.ricci(p, zs)
    for i, z in enumerate(zs):
        assert np.array_equal(ric[i], hermgeo.ricci(p, z))


def test_stacked_stencil_errors_match_scalar():
    """Off the domain and at a NaN value, a stack raises the same
    EvaluationError as its failing point alone."""
    p = domains.bergman_potential(domains.ball(1))
    rim = np.array([0.9999999 + 0j])
    for f in (p, hermgeo.gradient_length_field(p)):
        for z in (rim, np.array([[0.1 + 0j], rim])):
            with pytest.raises(EvaluationError, match="at z="):
                fd_jet(f, z, 2)

    edge = np.array([0.29999 + 0.0j])
    for z in (edge, np.array([[0.0j], edge])):
        with pytest.raises(EvaluationError, match=r"base array\(\[0\.29999"):
            fd_jet(_log_inside, z, 2, step=1e-3)


def test_analytic_ball_gradient():
    p = domains.ke_potential(domains.ball(2), 3.0)  # phi_rho for n = 2
    jet = p.analytic_jet(np.array([0.3, 0.4], dtype=complex), 1)
    assert jet.holo_gradient()[0] == pytest.approx(0.3 / 0.75, abs=1e-14)
    assert jet.holo_gradient()[1] == pytest.approx(8.0 / 15.0, abs=1e-14)


def test_analytic_jet_order_zero_is_value():
    p = potentials.rescaled_ball_potential(2, 3.0)
    z = np.array([0.2 + 0.1j, -0.3j])
    assert p.analytic_jet(z, 0).value() == pytest.approx(p(z), abs=0)


def test_type_i_metric_at_origin_is_exponent_times_identity():
    d = domains.type_i(2, 2)
    p = domains.bergman_potential(d)
    jet = p.analytic_jet(np.zeros(4, complex), 2)
    np.testing.assert_allclose(jet.mixed_hessian(), 4.0 * np.eye(4), atol=1e-14)


def _fd_only(p):
    """An FD-only copy of ``p``: no parts, values from ``p``."""
    return PotentialField(domain=p.domain, ricci_constant=p.ricci_constant,
                          parts=None, label=f"fd-only[{p.label}]", fn=p)


def test_unsupported_order_raises():
    """Parts give closed forms to order 4 and no further; an FD-only
    potential has none at any order."""
    p = domains.bergman_potential(domains.type_i(2, 2))
    z = np.zeros(4, complex)
    with pytest.raises(UnsupportedOrderError):
        p.analytic_jet(z, 5)
    fd_only = _fd_only(p)
    for order in range(5):
        with pytest.raises(UnsupportedOrderError):
            fd_only.analytic_jet(z, order)


def _closed_form_potentials():
    return [
        domains.bergman_potential(domains.ball(2)),
        domains.bergman_potential(domains.ball(3)),
        domains.bergman_potential(domains.polydisc(2)),
        domains.bergman_potential(domains.type_i(2, 2)),
        domains.bergman_potential(domains.type_ii(3)),
        domains.bergman_potential(domains.type_iii(2)),
        domains.bergman_potential(domains.type_iv(3)),
        potentials.rescaled_ball_potential(2, 3.0),
        potentials.rescaled_ball_potential(3, 4.0),
        potentials.kai_ohsawa_potential(domains.polydisc(2)),
        potentials.kai_ohsawa_potential(domains.type_i(2, 2)),
        potentials.kai_ohsawa_potential(domains.type_ii(4)),
        potentials.kai_ohsawa_potential(domains.type_iv(3)),
        potentials.quadratic_fixture(2),
        domains.bergman_potential(
            domains.product(domains.ball(1), domains.type_iv(3))),
        potentials.product_potential(
            potentials.rescaled_ball_potential(1, 2.0),
            potentials.rescaled_ball_potential(2, 2.0)),
        chengyau.closed_form_field(2, 3.0),
        domains.ke_potential(domains.type_iii(2), 2.0),
    ]


@pytest.mark.parametrize("p", _closed_form_potentials(), ids=lambda p: p.label)
def test_oracle_agreement_low_orders(p):
    """Closed forms match the FD oracle to 1e-6 at orders <= 2.

    Points keep a small margin from the boundary (shrink 0.9): the
    truncation term of the default-step stencil grows with the sixth
    derivative, which blows up near the rim.
    """
    rng = np.random.default_rng(11)
    pts = sample_interior(p.domain, rng, 100, shrink=0.9)
    worst = 0.0
    for z in pts:
        ja = p.analytic_jet(z, 2)
        jf = fd_jet(p, z, 2)
        worst = max(worst, jet_gap(ja, jf))
    assert worst <= 1e-6


@pytest.mark.parametrize("p", _closed_form_potentials(), ids=lambda p: p.label)
def test_oracle_agreement_high_orders(p):
    """Orders 3-4 agree to 1e-3 at moderate interior points: every
    potential with parts is exact to order 4."""
    rng = np.random.default_rng(12)
    pts = sample_interior(p.domain, rng, 20, shrink=0.55)
    worst = 0.0
    for z in pts:
        ja = p.analytic_jet(z, 4)
        jf = fd_jet(p, z, 4)
        worst = max(worst, jet_gap(ja, jf))
    assert worst <= 1e-3


def test_conjugation_symmetry():
    p = domains.bergman_potential(domains.type_iii(2))
    rng = np.random.default_rng(4)
    for z in sample_interior(p.domain, rng, 10):
        assert p.analytic_jet(z, 3).conjugation_defect() == 0.0
        assert fd_jet(p, z, 2).conjugation_defect() <= 1e-10
    q = domains.bergman_potential(domains.type_iv(3))
    z = sample_interior(q.domain, np.random.default_rng(5), 1)[0]
    assert q.analytic_jet(z, 4).conjugation_defect() == 0.0


def test_linearity_of_analytic_jets():
    d = domains.ball(2)
    p1 = domains.bergman_potential(d)
    p2 = potentials.rescaled_ball_potential(2, 3.0)
    c1, c2 = 0.7, -1.3
    combo = PotentialField(
        domain=d, ricci_constant=np.nan, label="combo",
        parts=[(c1 * c, part) for c, part in p1.parts]
        + [(c2 * c, part) for c, part in p2.parts])
    z = np.array([0.25 + 0.05j, -0.3 + 0.2j])
    j1, j2, jc = p1.analytic_jet(z, 3), p2.analytic_jet(z, 3), combo.analytic_jet(z, 3)
    for key in jc.tensors:
        expected = c1 * j1.tensors[key] + c2 * j2.tensors[key]
        assert np.max(np.abs(jc.tensors[key] - expected)) <= 1e-12


def test_multi_indices_stored_sorted():
    """Each dense tensor is exactly symmetric in its holomorphic and in its
    antiholomorphic indices, as when entries were keyed by sorted indices."""
    p = domains.bergman_potential(domains.ball(2))
    jet = p.analytic_jet(np.array([0.1, 0.2j]), 3)
    for (m, l), t in jet.tensors.items():
        for hol in itertools.permutations(range(m)):
            for anti in itertools.permutations(range(m, m + l)):
                assert np.array_equal(t, t.transpose(hol + anti))
    assert jet.pure_hessian()[1, 0] == jet.pure_hessian()[0, 1]


def test_sorted_index_equals_per_element_loop():
    """The vectorized index table of ``field._complete`` against sorting
    each element's indices one at a time."""
    from kelab.field import _sorted_index

    for n, m, l in ((1, 2, 0), (2, 2, 1), (3, 2, 2), (3, 3, 1), (4, 4, 0)):
        shape = (n,) * (m + l)
        loop = [np.ravel_multi_index(tuple(sorted(ix[:m]))
                                     + tuple(sorted(ix[m:])), shape)
                for ix in np.ndindex(shape)]
        assert np.array_equal(_sorted_index(n, m, l), loop)


def test_as_point_validation():
    with pytest.raises(ValueError):
        as_point([])
    with pytest.raises(ValueError):
        as_point([np.nan + 0j])
    z = as_point([1, 2.0])
    assert z.dtype == complex and len(z) == 2


def test_fd_only_potential_falls_back():
    base = potentials.rescaled_ball_potential(2, 3.0)
    fd_only = _fd_only(base)
    z = np.array([0.2 + 0.1j, 0.1 - 0.2j])
    ja = base.analytic_jet(z, 2)
    jf = fd_only.jet(z, 2)
    worst = jet_gap(ja, jf)
    assert worst <= 1e-6


@pytest.mark.parametrize("d", [domains.polydisc(3), domains.type_i(2, 3),
                               domains.type_ii(5), domains.type_iii(3),
                               domains.type_iv(5)],
                         ids=lambda d: d.label)
def test_norm_form_part_order_four_matches_fd_jet(d):
    """The order-4 jet of ``HermitianNormPart`` over ``norm_form`` against
    fd_jet (1e-3, as the other orders 3-4 at moderate interior points)."""
    p = domains.bergman_potential(d)
    z = sample_interior(d, np.random.default_rng(13), 1, shrink=0.55)[0]
    ja, jf = p.analytic_jet(z, 4), fd_jet(p, z, 4)
    assert {k for k in ja.tensors if sum(k) == 4} == {
        (4, 0), (3, 1), (2, 2), (1, 3), (0, 4)}
    assert jet_gap(ja, jf) <= 1e-3
