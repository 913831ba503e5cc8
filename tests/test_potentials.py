"""Potential constructions: canonical, rescaled, products, Siegel pullback."""

import math

import numpy as np
import pytest

from kelab import chengyau, domains, hermgeo, potentials
from kelab.errors import (
    CertificateError,
    EvaluationError,
    NormalizationError,
)
from kelab.field import BoundaryLog, PotentialField
from kelab.sampling import sample_interior

from flat_fixture import quadratic_fixture


# ---------------------------------------------------------------------------
# canonical potential

def test_canonical_ball_matches_closed_form():
    """On the ball the canonical potential is the radial closed form, in
    value and in every jet tensor to order 4, within 1e-14 relative."""
    for n, K in [(1, 2.0), (2, 3.0), (3, 4.0), (2, 1e-3), (4, 7.5)]:
        p = potentials.canonical_potential(domains.ball(n), K)
        exact = chengyau.closed_form_field(n, K)
        zs = np.array(sample_interior(domains.ball(n),
                                      np.random.default_rng(1), 10))
        got, want = p.jet(zs, 4).tensors, exact.jet(zs, 4).tensors
        assert got.keys() == want.keys()
        for key, t in want.items():
            assert np.max(np.abs(got[key] - t)) <= 1e-14 * np.max(np.abs(t))


MONGE_AMPERE_KINDS = [
    domains.ball(2), domains.polydisc(2), domains.polydisc(3),
    domains.type_i(2, 2), domains.type_i(2, 3), domains.type_i(3, 3),
    domains.type_ii(4), domains.type_ii(5), domains.type_ii(6),
    domains.type_iii(2), domains.type_iii(3), domains.type_iv(3),
    domains.type_iv(5), domains.product(domains.ball(1), domains.type_iv(3)),
]


@pytest.mark.parametrize("K", [1.0, 3.0])
@pytest.mark.parametrize("d", MONGE_AMPERE_KINDS, ids=lambda d: d.label)
def test_canonical_potential_solves_monge_ampere(d, K):
    """(1/K) log det g of the canonical potential's own metric is the
    potential itself, to 1e-12 at 20 seeded points (shrink 0.8)."""
    p = potentials.canonical_potential(d, K)
    zs = np.array(sample_interior(d, np.random.default_rng(0), 20,
                                  shrink=0.8))
    log_det = hermgeo.metric_from_potential(p, zs, order=2).log_det_g
    assert np.max(np.abs(log_det / K - p(zs))) <= 1e-12


def test_every_constructor_returns_parts():
    """Every potential kelab builds has a closed-form jet."""
    built = [
        domains.bergman_potential(domains.type_i(2, 2)),
        domains.ke_potential(domains.polydisc(2), 3.0),
        potentials.canonical_potential(domains.type_iv(3), 2.0),
        potentials.kai_ohsawa_potential(domains.type_iii(2)),
        potentials.rescaled_ball_potential(2, 3.0),
        chengyau.closed_form_field(2, 3.0),
        potentials.product_potential(
            domains.bergman_potential(domains.ball(1)),
            domains.bergman_potential(domains.polydisc(2))),
    ]
    for p in built:
        assert p.parts, p.label
        p.analytic_jet(np.zeros(p.domain.n), 2)


def test_canonical_requires_positive_constant():
    """Every constructor that takes a Ricci constant K needs 0 < K < inf,
    and names K when it is not."""
    for K in (0.0, -1.0, np.nan, np.inf):
        for build in (
                lambda: potentials.canonical_potential(domains.ball(2), K),
                lambda: domains.ke_potential(domains.ball(2), K),
                lambda: potentials.rescaled_ball_potential(2, K),
                lambda: potentials.ball_minimality_report([domains.ball(2)],
                                                          K),
                lambda: chengyau.ball_closed_form(2, K),
                lambda: chengyau.closed_form_field(2, K)):
            with pytest.raises(ValueError, match="Ricci constant K"):
                build()


def test_scaled_requires_positive_finite_factor():
    """nan would give K = nan and inf K = 0; the error names the factor."""
    p = domains.bergman_potential(domains.ball(2))
    for factor in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match=f"scaling factor.*{factor!r}"):
            p.scaled(factor)
    assert p.scaled(2.0).ricci_constant == p.ricci_constant / 2.0


# ---------------------------------------------------------------------------
# rescaled ball potential

def test_rescaled_dimension_is_an_integer():
    for n in (True, 2.5):
        with pytest.raises(ValueError, match="n must be an integer"):
            potentials.rescaled_ball_potential(n, 3.0)
    p = potentials.rescaled_ball_potential(3.0, 3.0)
    assert p.domain.n == 3 and p.label == "rescaled-ball[n=3,K=3]"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rescaled_default_boundary_is_the_shared_siegel_log(n):
    """The default q = -e_1 reuses the ball's Kai-Ohsawa log term, and its
    jets keep the bits of the explicit q = -e_1 construction, at the
    origin, at -0 coordinates and at seeded points."""
    p = potentials.rescaled_ball_potential(n, 3.0)
    siegel = potentials._siegel_log(domains.ball(n))
    assert p.parts[1][1] is siegel
    assert potentials.kai_ohsawa_potential(domains.ball(n)).parts[1][1] \
        is siegel
    explicit = potentials.rescaled_ball_potential(
        n, 3.0, boundary_point=-np.eye(n)[0])
    assert explicit.parts[1][1] is not siegel
    zs = np.concatenate([
        np.zeros((1, n), complex), np.full((1, n), complex(-0.0, -0.0)),
        sample_interior(domains.ball(n), np.random.default_rng(2), 4)])
    for order in range(5):
        for z in (zs, *zs):
            _assert_same_jet_bits(p.jet(z, order), explicit.jet(z, order))


def _assert_same_jet_bits(got, want):
    """Equal tensors, byte for byte (signed zeros included)."""
    assert got.tensors.keys() == want.tensors.keys()
    for key in want.tensors:
        assert got.tensors[key].tobytes() == want.tensors[key].tobytes(), key


def test_rescaled_center_values():
    p = potentials.rescaled_ball_potential(2, 3.0)
    z0 = np.zeros(2, complex)
    assert p(z0) == pytest.approx(0.0, abs=1e-15)
    frame = hermgeo.metric_from_potential(p, z0)
    assert hermgeo.gradient_length_sq(frame) == pytest.approx(1.0, abs=1e-14)


def test_rescaled_random_point():
    p = potentials.rescaled_ball_potential(2, 3.0)
    z = np.array([0.3 + 0.2j, -0.4 + 0j])
    frame = hermgeo.metric_from_potential(p, z)
    assert hermgeo.gradient_length_sq(frame) == pytest.approx(1.0, abs=1e-8)


def test_rescaled_constant_scales_with_ricci():
    p = potentials.rescaled_ball_potential(2, 1.0)
    z = np.array([0.1 + 0.4j, 0.2 - 0.1j])
    frame = hermgeo.metric_from_potential(p, z)
    assert hermgeo.gradient_length_sq(frame) == pytest.approx(3.0, abs=1e-10)


def test_rescaled_singular_at_pole():
    p = potentials.rescaled_ball_potential(2, 3.0)
    with pytest.raises(EvaluationError):
        p(np.array([-1.0 + 0j, 0.0 + 0j]))


def test_matrix_kernel_rejects_points_far_outside():
    """Z = 1.5 I has det(I - Z Z*) > 0 but lies outside type1(2,2)."""
    p = domains.bergman_potential(domains.type_i(2, 2))
    z = np.array([1.5, 0.0, 0.0, 1.5], dtype=complex)
    assert not p.domain.contains(z)
    with pytest.raises(EvaluationError, match="1.5"):
        p(z)


def test_rescaled_constant_length_sweep_analytic_and_fd():
    n, K = 2, 3.0
    p = potentials.rescaled_ball_potential(n, K)
    fd_only = PotentialField(
        domain=p.domain, ricci_constant=K, parts=None,
        label="fd-copy", fn=p,
    )
    rng = np.random.default_rng(7)
    pts = sample_interior(p.domain, rng, 200)
    worst_analytic = 0.0
    for z in pts:
        frame = hermgeo.metric_from_potential(p, z)
        worst_analytic = max(
            worst_analytic, abs(hermgeo.gradient_length_sq(frame) - 1.0)
        )
    assert worst_analytic <= 1e-8
    worst_fd = 0.0
    for z in pts[:25]:
        frame = hermgeo.metric_from_potential(fd_only, z)
        worst_fd = max(worst_fd, abs(hermgeo.gradient_length_sq(frame) - 1.0))
    assert worst_fd <= 1e-4


def test_certificate_and_lower_bound():
    p = potentials.rescaled_ball_potential(3, 4.0)
    cert = potentials.certify_constant_length(p, samples=100, seed=3)
    assert cert.ok
    assert cert.constant >= (3 + 1) / 4.0 - 1e-9


def _relabelled(p, K):
    """``p`` with its Ricci constant K, its parts kept."""
    return PotentialField(domain=p.domain, ricci_constant=K, parts=p.parts,
                          label=f"relabelled[K={K:g}]")


@pytest.mark.parametrize("K", [3.0, 1e9])
def test_certificate_lower_bound_is_relative(K):
    """A constant 0.8 of the bound (n+1)/K is rejected at every K: at
    K = 1e9 the constant 3e-9 sat within an absolute 1e-9 of the bound
    3.75e-9, so it passed; while K = 1e-9, where the bound is 3e9, still
    certifies."""
    p = potentials.rescaled_ball_potential(2, K)
    with pytest.raises(CertificateError, match="lower bound"):
        potentials.certify_constant_length(_relabelled(p, 0.8 * K),
                                           samples=20)
    small = potentials.rescaled_ball_potential(2, 1e-9)
    cert = potentials.certify_constant_length(small, samples=20,
                                              tolerance=1e-8 * 3e9)
    cert.require()
    assert cert.constant == pytest.approx(3e9, rel=1e-12)


def test_certificate_rejects_non_constant():
    p = domains.ke_potential(domains.ball(2), 3.0)  # length |z|^2, not constant
    cert = potentials.certify_constant_length(p, samples=50, seed=0)
    assert not cert.ok
    with pytest.raises(CertificateError):
        cert.require()


def test_certificate_rejects_nan_length(monkeypatch):
    """One NaN gradient length fails the certificate, at the centre or at
    any sample."""
    real = hermgeo.gradient_length_sq
    p = potentials.rescaled_ball_potential(2, 3.0)
    for row in (0, 3, 10):
        calls = []

        def one_nan(frame):
            calls.append(frame)
            lengths = real(frame).copy()
            lengths[row] = float("nan")
            return lengths

        monkeypatch.setattr(hermgeo, "gradient_length_sq", one_nan)
        cert = potentials.certify_constant_length(p, samples=10, seed=0)
        # the centre and the 10 samples in one stacked frame
        assert len(calls) == 1 and calls[0].point.shape == (11, 2)
        assert not cert.ok
        with pytest.raises(CertificateError):
            cert.require()


def _lengths_one_frame_per_point(p, points):
    """The gradient length at each point from its own one-point frame."""
    return [hermgeo.gradient_length_sq(
        hermgeo.metric_from_potential(p, z, order=2)) for z in points]


def _fd_copy(p):
    return PotentialField(domain=p.domain, ricci_constant=p.ricci_constant,
                          parts=None, label="fd-copy", fn=p)


@pytest.mark.parametrize("make", [
    lambda: potentials.rescaled_ball_potential(2, 3.0),
    lambda: potentials.rescaled_ball_potential(3, 4.0),
    lambda: domains.ke_potential(domains.ball(2), 3.0),
    lambda: domains.bergman_potential(domains.polydisc(3)),
    lambda: domains.bergman_potential(domains.type_i(2, 2)),
    lambda: domains.bergman_potential(domains.type_i(3, 3)),
    lambda: domains.bergman_potential(domains.type_ii(5)),
    lambda: domains.bergman_potential(domains.type_iii(2)),
    lambda: domains.bergman_potential(domains.type_iv(3)),
    lambda: _fd_copy(potentials.rescaled_ball_potential(2, 3.0)),
], ids=["rescaled-ball2", "rescaled-ball3", "ke-ball2", "polydisc3",
        "type1-2-2", "type1-3-3", "type2-5", "type3-2", "type4-3", "fd-rescaled-ball2"])
def test_certificate_equals_one_frame_per_point(make):
    """The stacked certificate reproduces the per-point loop bit for bit."""
    p = make()
    cert = potentials.certify_constant_length(p, samples=50, seed=0)
    points = sample_interior(p.domain, np.random.default_rng(0), 50,
                             shrink=0.95)
    constant, *lengths = _lengths_one_frame_per_point(
        p, [np.zeros(p.domain.n, dtype=complex), *points])
    worst = 0.0
    for val in lengths:
        worst = float(np.maximum(worst, abs(val - constant)))
    assert cert.constant == constant
    assert cert.max_deviation == worst


@pytest.mark.parametrize("d", [domains.ball(1), domains.ball(2),
                               domains.ball(3), domains.polydisc(1),
                               domains.polydisc(2), domains.polydisc(3)],
                         ids=lambda d: d.label)
def test_kai_ohsawa_constant_equals_one_frame_per_point(d, monkeypatch):
    p = potentials.kai_ohsawa_potential(d)
    points = sample_interior(d, np.random.default_rng(0), 20)
    center, *lengths = _lengths_one_frame_per_point(
        p, [np.zeros(d.n, dtype=complex), *points])
    assert potentials.kai_ohsawa_constant(d) == center
    assert max(abs(v - center) for v in lengths) <= 1e-6
    # the kernel potential's gradient length is not constant
    monkeypatch.setattr(potentials, "kai_ohsawa_potential",
                        domains.bergman_potential)
    with pytest.raises(CertificateError, match="deviates"):
        potentials.kai_ohsawa_constant(d)


# ---------------------------------------------------------------------------
# products

def test_product_of_rescaled_disks():
    K = 2.0
    p1 = potentials.rescaled_ball_potential(1, K)  # constant 2/K = 1
    p2 = potentials.rescaled_ball_potential(1, K)
    prod = potentials.product_potential(p1, p2)
    rng = np.random.default_rng(5)
    for z in sample_interior(prod.domain, rng, 40):
        frame = hermgeo.metric_from_potential(prod, z)
        val = hermgeo.gradient_length_sq(frame)
        assert val == pytest.approx(4.0 / K, abs=1e-10)
    # strictly above the irreducible bound (n+1)/K = 3/K on the 2-dim product
    assert 4.0 / K > 3.0 / K


def test_product_additivity_pointwise():
    p1 = potentials.rescaled_ball_potential(1, 2.0)
    p2 = domains.ke_potential(domains.ball(2), 2.0)  # non-constant factor
    prod = potentials.product_potential(p1, p2)
    rng = np.random.default_rng(6)
    for z in sample_interior(prod.domain, rng, 20):
        frame = hermgeo.metric_from_potential(prod, z)
        total = hermgeo.gradient_length_sq(frame)
        f1 = hermgeo.metric_from_potential(p1, z[:1])
        f2 = hermgeo.metric_from_potential(p2, z[1:])
        parts = hermgeo.gradient_length_sq(f1) + hermgeo.gradient_length_sq(f2)
        assert total == pytest.approx(parts, abs=1e-10)


def test_product_requires_matching_constants():
    p1 = potentials.rescaled_ball_potential(1, 2.0)
    p2 = potentials.rescaled_ball_potential(1, 3.0)
    with pytest.raises(NormalizationError):
        potentials.product_potential(p1, p2)


# ---------------------------------------------------------------------------
# the Siegel-pullback constant

@pytest.mark.parametrize("n", [1, 2, 3])
def test_kai_ohsawa_ball(n):
    L = potentials.kai_ohsawa_constant(domains.ball(n))
    assert L == pytest.approx(n + 1, abs=1e-10)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_kai_ohsawa_polydisc(r):
    L = potentials.kai_ohsawa_constant(domains.polydisc(r))
    assert L == pytest.approx(2 * r, abs=1e-10)


def test_kai_ohsawa_lower_bound():
    for d in (domains.ball(2), domains.polydisc(3)):
        L = potentials.kai_ohsawa_constant(d)
        assert L >= d.rank * d.c - 1e-9


_SIEGEL_KINDS = (
    [domains.ball(n) for n in (1, 2, 3)]
    + [domains.polydisc(r) for r in (1, 2, 3)]
    + [domains.type_i(p, q) for p, q in ((2, 2), (2, 3), (3, 3))]
    + [domains.type_ii(m) for m in (4, 5, 6)]
    + [domains.type_iii(m) for m in (2, 3)]
    + [domains.type_iv(m) for m in (3, 5)]
    + [domains.product(domains.ball(2), domains.type_iv(3))]
)


def _flipped_siegel(d):
    """The kernel potential minus, not plus, c log|N(z, e)|^2."""
    if d.kind == domains.PRODUCT:
        parts = domains.product_parts([_flipped_siegel(f) for f in d.factors])
    else:
        parts = domains.bergman_potential(d).parts + [
            (-d.c, BoundaryLog(domains.norm_form(d), -domains.tripotent(d)))]
    return PotentialField(domain=d, ricci_constant=1.0, parts=parts,
                          label=f"flipped[{d.label}]")


@pytest.mark.parametrize("d", _SIEGEL_KINDS, ids=lambda d: d.label)
def test_kai_ohsawa_on_every_kind(d):
    """One formula on every constructed kind: L = rank*c (a product's, the
    sum over its factors), the key equation, |Hess phi|^2 = L - n (above
    1, the paper's strict inequality, off the balls), and a sign flip of
    the log term that the length check sees."""
    expected = sum(f.rank * f.c for f in d.factors or (d,))
    assert abs(potentials.kai_ohsawa_constant(d) - expected) <= 1e-9
    p = potentials.kai_ohsawa_potential(d)
    zs = np.array(sample_interior(d, np.random.default_rng(7), 6, shrink=0.8))
    assert np.max(hermgeo.key_equation_residual(p, zs)) <= 1e-12
    hess = hermgeo.hessian_norm_sq(hermgeo.metric_from_potential(p, zs))
    assert np.max(np.abs(hess - (expected - d.n))) <= 1e-9
    if d.rank == 1:  # the balls, the disc among them
        assert np.max(np.abs(hess - 1.0)) <= 1e-9
    else:
        assert np.min(hess) > 1.0
    flipped = hermgeo.gradient_length_sq(hermgeo.metric_from_potential(
        _flipped_siegel(d), zs, order=2))
    assert np.ptp(flipped) > 1.0


def test_certificates_need_a_sample():
    """Zero samples is an error, not a certificate that checked nothing."""
    p = potentials.rescaled_ball_potential(2, 3.0)
    with pytest.raises(ValueError, match="count"):
        potentials.certify_constant_length(p, samples=0)
    assert potentials.certify_constant_length(p, samples=1).sample_count == 1
    # an infinite tolerance would certify the flat quadratic, whose
    # gradient length is not constant
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tolerance"):
            potentials.certify_constant_length(
                quadratic_fixture(2), tolerance=tol)


def test_constant_independent_of_boundary_point():
    """Two rescaling centers on the disc give the same constant."""
    q1 = np.array([-1.0 + 0j])
    q2 = np.array([1j])
    p1 = potentials.rescaled_ball_potential(1, 1.0, boundary_point=q1)
    p2 = potentials.rescaled_ball_potential(1, 1.0, boundary_point=q2)
    c1 = potentials.certify_constant_length(p1, samples=60, seed=2).constant
    c2 = potentials.certify_constant_length(p2, samples=60, seed=2).constant
    assert c1 == pytest.approx(c2, abs=1e-8)
    assert c1 == pytest.approx(2.0, abs=1e-10)


# ---------------------------------------------------------------------------
# minimality table

def test_minimality_rows():
    rows = {r.label: r for r in potentials.ball_minimality_report(
        [domains.type_i(2, 2), domains.type_i(1, 3), domains.type_iv(3)],
        K=1.0,
    )}
    assert rows["type1(2,2)"].strict
    assert rows["type1(2,2)"].rc_over_K == pytest.approx(8.0)
    assert not rows["type1(1,3)"].strict
    assert rows["type1(1,3)"].rc_over_K == pytest.approx(4.0)
    assert not any(row.lower_bound_only for row in rows.values())


def test_minimality_of_products_sums_the_factors():
    """A product's row reads the sum of its factors' rank*c, the constant
    of its Siegel potential, whether or not the factors share c."""
    mixed = domains.product(domains.ball(1), domains.type_iv(3))
    shared = domains.product(domains.ball(2), domains.type_iv(3))
    rows = potentials.ball_minimality_report([mixed, shared], K=2.0)
    assert rows[0].rc_over_K == pytest.approx(
        potentials.kai_ohsawa_constant(mixed) / 2.0, abs=1e-9)
    assert (rows[0].rc_over_K, rows[0].c, rows[0].strict) == (4.0, None, True)
    assert rows[1].as_dict() == {
        "kind": "ball(2) x type4(3)", "n": 5, "rank": 3, "c": 3.0,
        "rc_over_K": 4.5, "(n+1)_over_K": 3.0, "strict": True,
        "lower_bound_only": False}


def test_minimality_respects_ricci_rescaling():
    row = potentials.ball_minimality_report([domains.type_iv(3)], K=2.0)[0]
    assert row.rc_over_K == pytest.approx(3.0)
    assert row.bound_over_K == pytest.approx(2.0)
    assert row.strict


@pytest.mark.parametrize("K", [1e13, 1e300])
def test_minimality_strictness_does_not_depend_on_k(K):
    """``strict`` compares rank*c with n+1 unscaled: at K = 1e13,
    type1(2,2)'s rc/K = 8e-13 and (n+1)/K = 5e-13 sit less than an
    absolute 1e-12 apart, yet the row is as strict as at K = 1."""
    entries = [domains.type_i(2, 2), domains.type_iv(3), domains.ball(3),
               *domains.EXCEPTIONAL_INVARIANTS]
    rows = potentials.ball_minimality_report(entries, K=K)
    assert [row.strict for row in rows] == [True, True, False, True, True]
    assert rows[0].rc_over_K == 8.0 / K
    assert rows[0].bound_over_K == 5.0 / K


def test_minimality_includes_exceptional_data():
    rows = potentials.ball_minimality_report(
        list(domains.EXCEPTIONAL_INVARIANTS), K=1.0
    )
    for row in rows:
        assert row.strict
        assert row.lower_bound_only
