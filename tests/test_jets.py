"""Derivative engine: finite-difference oracle vs closed forms."""

import itertools
import math

import numpy as np
import pytest

from kelab import chengyau, domains, hermgeo, potentials, vfield
from kelab.errors import EvaluationError, UnsupportedOrderError
from kelab.field import PotentialField
from kelab.jets import (_STENCILS, _stencil_plan, as_point, as_points,
                        bidegrees, fd_jet)
from kelab.sampling import sample_interior

from flat_fixture import quadratic_fixture


def quadratic(z):
    return np.sum(np.abs(z) ** 2, axis=-1)


def jet_gap(ja, jb):
    """Largest entrywise difference over the bidegrees of ``ja``."""
    return max(float(np.max(np.abs(ja.tensors[k] - jb.tensors[k])))
               for k in ja.tensors)


def test_fd_jet_quadratic_center():
    jet = fd_jet(quadratic, np.zeros(2, complex), 3)
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
    for order in (2.5, True, "2.5", None, np.nan):
        with pytest.raises(ValueError, match="order must be an integer"):
            fd_jet(quadratic, np.zeros(2, complex), order)
    for step in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="step must be positive"):
            fd_jet(quadratic, np.zeros(2, complex), 2, step=step)


def test_jets_hold_the_m_ge_l_half():
    """A jet keeps the (m, l) with m >= l; its (l, m) are their mirrors.
    (2, 0) only from order 3 up, where the covariant Hessian and the
    curvature read it."""
    assert bidegrees(2) == ((0, 0), (1, 0), (1, 1))
    assert bidegrees(3) == ((0, 0), (1, 0), (2, 0), (1, 1), (2, 1))
    assert bidegrees(4) == ((0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (2, 2))
    plan = _stencil_plan(3, 2)
    assert plan.wirtinger[0].max() + 1 == 13
    assert len(plan.offsets) == 145
    plan = _stencil_plan(3, 4)
    assert plan.wirtinger[0].max() + 1 == 73
    assert len(plan.offsets) == 1197


def _reference_stencil_plan(n, order):
    """``_stencil_plan`` as loops over every jet entry, real partial and
    stencil point, numbering each in order of first appearance."""
    entries, layout = {}, []
    for m, l in bidegrees(order):
        index = []
        for a in itertools.product(range(n), repeat=m):
            for b in itertools.product(range(n), repeat=l):
                key = (tuple(sorted(a)), tuple(sorted(b)))
                index.append(entries.setdefault(key, len(entries)))
        layout.append(((m, l), np.array(index)))
    partials, wirtinger = {}, []
    for (a, b), e in entries.items():
        # prod d/dz^a prod d/dzbar^b in real partials, keyed by their
        # multi-index over Re z^k (2k) and Im z^k (2k + 1)
        factors = [((2 * i, 0.5), (2 * i + 1, -0.5j)) for i in a]
        factors += [((2 * i, 0.5), (2 * i + 1, 0.5j)) for i in b]
        terms = {}
        for combo in itertools.product(*factors):
            midx = [0] * (2 * n)
            coeff = 1.0 + 0.0j
            for dim, c in combo:
                midx[dim] += 1
                coeff *= c
            terms[tuple(midx)] = terms.get(tuple(midx), 0.0 + 0.0j) + coeff
        for midx, c in terms.items():
            wirtinger.append((e, partials.setdefault(midx, len(partials)), c))
    points, stencil = {}, []
    for midx, r in partials.items():
        dims = [d for d in range(2 * n) if midx[d] > 0]
        for combo in itertools.product(*[_STENCILS[midx[d]].items()
                                         for d in dims]):
            coeff = math.prod(c for _, c in combo)
            for row, unit in ((r, 2), (len(partials) + r, 1)):
                off = [0] * (2 * n)
                for d, (o, _) in zip(dims, combo):
                    off[d] = unit * o
                stencil.append((row, points.setdefault(tuple(off),
                                                       len(points)), coeff))
    offsets = np.array(list(points), dtype=float).reshape(len(points), 2 * n)
    rows, cols, weights = (np.array(col) for col in zip(*stencil))
    e, r, c = (np.array(col) for col in zip(*wirtinger))
    return {"offsets": offsets[:, 0::2] + 1j * offsets[:, 1::2],
            "rows": rows, "cols": cols, "weights": weights,
            "real_order": np.array([sum(m) for m in partials], float),
            "wirtinger": (e, r, c), "layout": tuple(layout)}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_stencil_plan_equals_the_loops(n, order):
    """The vectorized planner gives the loops' arrays exactly, in their
    order and dtypes, so every ``fd_jet`` sums each row in the same order
    and keeps its bits."""
    plan, ref = _stencil_plan(n, order), _reference_stencil_plan(n, order)
    pairs = [(getattr(plan, name), ref[name]) for name in
             ("offsets", "rows", "cols", "weights", "real_order")]
    pairs += list(zip(plan.wirtinger, ref["wirtinger"]))
    assert [key for key, _ in plan.layout] == [key for key, _ in ref["layout"]]
    pairs += [(a, b) for (_, a), (_, b) in zip(plan.layout, ref["layout"])]
    for got, want in pairs:
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_missing_bidegree_is_a_typed_error():
    """An accessor names the bidegree and the order it needs when the
    jet's order leaves it out, on the closed-form and the FD path."""
    p = domains.bergman_potential(domains.ball(2))
    z = np.array([0.1 + 0.2j, -0.3j])
    for jet in (p.analytic_jet(z, 2), fd_jet(p, z, 2)):
        with pytest.raises(UnsupportedOrderError, match=r"order-2 .*\(2, 0\)"
                           r".*order >= 3"):
            jet.pure_hessian()
        with pytest.raises(UnsupportedOrderError, match=r"\(2, 1\)"):
            jet.third_tensor()
    with pytest.raises(UnsupportedOrderError, match=r"\(1, 1\).*order >= 2"):
        fd_jet(p, z, 1).mixed_hessian()
    with pytest.raises(UnsupportedOrderError, match=r"\(1, 0\).*order >= 1"):
        p.jet(z, 0).holo_gradient()


def test_integral_order_only():
    """An integral order such as 3.0 or "2" is that integer (``as_integer``);
    any other order is a ValueError naming ``order``, not a TypeError from
    ``range``."""
    p = domains.bergman_potential(domains.ball(2))
    z = np.array([0.1 + 0.2j, -0.3j])
    for got, want in ((p.jet(z, 3.0), p.jet(z, 3)),
                      (fd_jet(p, z, "2"), fd_jet(p, z, 2)),
                      (hermgeo.metric_from_potential(p, z, order=3.0).jet,
                       hermgeo.metric_from_potential(p, z, order=3).jet)):
        assert got.order == want.order and type(got.order) is int
        assert all(np.array_equal(got.tensors[k], t)
                   for k, t in want.tensors.items())
    fd_only = _fd_only(p)
    for order in (2.5, True, "3.5", None):
        for call in (lambda: p.jet(z, order), lambda: fd_only.jet(z, order),
                     lambda: fd_jet(p, z, order),
                     lambda: hermgeo.metric_from_potential(p, z, order=order)):
            with pytest.raises(ValueError, match="order must be an integer"):
                call()


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
        quadratic_fixture(2),
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
        assert set(ja.tensors) == set(jf.tensors) == set(bidegrees(2))
        worst = max(worst, jet_gap(ja, jf))
    assert worst <= 1e-6


@pytest.mark.parametrize("p", _closed_form_potentials(), ids=lambda p: p.label)
def test_oracle_agreement_high_orders(p):
    """Orders 3-4 agree to 1e-3 at moderate interior points: every
    potential with parts is exact to order 4, and both paths hold the
    same bidegrees, none with more than two indices of one type."""
    rng = np.random.default_rng(12)
    pts = sample_interior(p.domain, rng, 20, shrink=0.55)
    worst = 0.0
    for z in pts:
        ja = p.analytic_jet(z, 4)
        jf = fd_jet(p, z, 4)
        assert set(ja.tensors) == set(jf.tensors) == set(bidegrees(4))
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
    # a stacked order-4 FD jet: the Hermitian check reaches (2, 2)
    zs = np.array(sample_interior(p.domain, rng, 3, shrink=0.55))
    jet = fd_jet(p, zs, 4)
    assert (2, 2) in jet.tensors
    assert jet.conjugation_defect() <= 1e-10
    # a NaN entry is a NaN defect, not a zero one
    jet.tensors[(1, 1)][1, 0, 1] = np.nan
    assert np.isnan(jet.conjugation_defect())


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
    jet = p.analytic_jet(np.array([0.1, 0.2j]), 4)
    for (m, l), t in jet.tensors.items():
        for hol in itertools.permutations(range(m)):
            for anti in itertools.permutations(range(m, m + l)):
                assert np.array_equal(t, t.transpose(hol + anti))
    assert jet.pure_hessian()[1, 0] == jet.pure_hessian()[0, 1]


def test_sorted_index_equals_per_element_loop():
    """The vectorized index table of ``field._build_plan`` against sorting
    each element's indices one at a time."""
    from kelab.field import _sorted_index

    for n, m, l in ((1, 2, 0), (2, 2, 1), (3, 2, 2), (3, 3, 1), (4, 4, 0)):
        shape = (n,) * (m + l)
        loop = [np.ravel_multi_index(tuple(sorted(ix[:m]))
                                     + tuple(sorted(ix[m:])), shape)
                for ix in np.ndindex(shape)]
        assert np.array_equal(_sorted_index(n, m, l), loop)


def _fail_closed_potentials():
    return [domains.bergman_potential(domains.ball(2)),
            domains.bergman_potential(domains.type_i(2, 2)),
            potentials.kai_ohsawa_potential(domains.type_i(2, 2)),
            potentials.rescaled_ball_potential(2, 3.0)]


@pytest.mark.parametrize("order", [0, 2, 3, 4])
@pytest.mark.parametrize("p", _fail_closed_potentials(),
                         ids=lambda p: p.label)
def test_a_point_outside_fails_closed_and_is_named(p, order):
    """A point outside the domain raises the check of the part that sees
    it first, naming the point, alone and as row 1 of a stack: the value
    (order 0) and every jet order run each check once per point."""
    n = p.domain.n
    far = np.full(n, 0.9 + 0.5j)
    inside = 0.1 * np.ones(n)

    def evaluate(z):
        return p(z) if order == 0 else p.jet(z, order)

    messages = []
    for z in (far, np.stack([inside, far, inside])):
        with pytest.raises(EvaluationError) as caught:
            evaluate(z)
        messages.append(str(caught.value))
    check = ("ball log evaluated at |z|^2 >= 1" if p.domain.kind == "ball"
             else "outside the domain: q(1 - v) has coefficients")
    assert messages[0] == messages[1]
    assert messages[0].startswith(check)
    assert messages[0].endswith(f" at z={far!r}")


@pytest.mark.parametrize("suite", ["flow", "key-equation"])
def test_a_suite_run_again_plans_nothing(suite, monkeypatch):
    """Each suite builds its potentials anew, yet a second run finds every
    program planned by the first."""
    from kelab.suites import run_suite

    config = {"horizon": 1.0, "dt": 4e-3} if suite == "flow" else {}
    builds = _spy_plans(monkeypatch)
    first = run_suite(suite, config)
    assert builds
    builds.clear()
    second = run_suite(suite, config)
    assert builds == []
    assert second.passed and second.samples == first.samples


def _spy_plans(monkeypatch):
    """A list that each program planned from now on appends to."""
    from kelab import field

    builds, real = [], field._build_plan

    def spy(emit):
        builds.append(emit)
        return real(emit)

    monkeypatch.setattr(field, "_PLANS", {})
    monkeypatch.setattr(field, "_build_plan", spy)
    return builds


def test_new_parts_of_one_structure_plan_nothing(monkeypatch):
    """Plans are keyed by structure, not by part: a boundary point new at
    each call, another amplitude or coefficient, a form part built anew
    and the generic norm of a fresh part plan nothing once their structure
    is planned, and each keeps the bits of its own values."""
    from kelab.field import BallLog, HermitianNormPart, PotentialField

    builds = _spy_plans(monkeypatch)
    d = domains.type_i(2, 2)
    z = sample_interior(d, np.random.default_rng(3), 3, shrink=0.6)
    w = np.array([[0.3, 0.1j], [0.0, 0.0], [-0.2j, 0.4]])
    first = [potentials.rescaled_ball_potential(2, 3.0, boundary_point=q)
             .jet(w, 3) for q in ([1, 0], [0, 1j])]
    kernel = domains.bergman_potential(d).jet(z, 3)
    norm = HermitianNormPart(domains.norm_form(d), d.c).norm(z)
    ball_jet = PotentialField(domains.ball(2), 1.0, [(1.0, BallLog(2.0))],
                              "ball").jet(w, 2)
    count = len(builds)
    again = [potentials.rescaled_ball_potential(2, 3.0, boundary_point=q)
             .jet(w, 3) for q in ([0.6, 0.8], [0, 1j])]
    fresh = PotentialField(d, 1.0, [(1.0, HermitianNormPart(
        domains.norm_form(d), d.c))], "fresh").jet(z, 3)
    other = PotentialField(domains.ball(2), 1.0, [(0.5, BallLog(3.0))],
                           "other").jet(w, 2)
    assert HermitianNormPart(domains.norm_form(d), d.c).norm(z).tobytes() \
        == norm.tobytes()
    assert len(builds) == count
    assert all(again[1].tensors[k].tobytes() == first[1].tensors[k].tobytes()
               for k in first[1].tensors)
    assert not np.array_equal(again[0].tensors[(1, 0)],
                              first[0].tensors[(1, 0)])
    assert all(fresh.tensors[k].tobytes() == kernel.tensors[k].tobytes()
               for k in kernel.tensors)
    assert np.allclose(other.mixed_hessian(), 0.75 * ball_jet.mixed_hessian(),
                       rtol=1e-14, atol=0)


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
    fd_jet (1e-3, as the other orders 3-4 at moderate interior points);
    (2, 2) is its one order-4 bidegree."""
    p = domains.bergman_potential(d)
    z = sample_interior(d, np.random.default_rng(13), 1, shrink=0.55)[0]
    ja, jf = p.analytic_jet(z, 4), fd_jet(p, z, 4)
    assert set(ja.tensors) == set(jf.tensors) == set(bidegrees(4))
    assert {k for k in ja.tensors if sum(k) == 4} == {(2, 2)}
    assert jet_gap(ja, jf) <= 1e-3


def _ball8_kernel():
    return domains.bergman_potential(domains.ball(8))


@pytest.mark.parametrize("call", [
    pytest.param(lambda z: domains.ball(8).contains(z), id="contains"),
    pytest.param(lambda z: domains.gauge(domains.ball(8), z), id="gauge"),
    pytest.param(lambda z: _ball8_kernel()(z), id="potential"),
    pytest.param(lambda z: hermgeo.metric_from_potential(_ball8_kernel(), z),
                 id="metric_from_potential"),
    pytest.param(lambda z: fd_jet(_ball8_kernel(), z, 1), id="fd_jet"),
])
def test_two_stacks_are_not_one_point(call):
    """A (2, 2, 2) array is not read as one point of C^8."""
    with pytest.raises(ValueError, match=r"got shape \(2, 2, 2\)"):
        call(np.zeros((2, 2, 2)))


def test_a_scalar_is_a_one_coordinate_point():
    assert as_points(0.5).shape == (1,)
    assert as_point(0.5).shape == (1,)
    assert domains.ball(1).contains(0.5) is True
    assert domains.ball(1).require_member(0.5).shape == (1,)
    assert vfield.exact_re_v_flow(0.5, 0.1).shape == (1,)
    kernel = domains.bergman_potential(domains.ball(1))
    assert kernel(0.5) == kernel([0.5])


def _ball4():
    return potentials.rescaled_ball_potential(4, 3.0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda z: vfield.vector_field(_ball4(), z, None),
                 id="vector_field"),
    pytest.param(lambda z: vfield.exact_re_v_flow(z, 0.1),
                 id="exact_re_v_flow"),
    pytest.param(lambda z: vfield.pullback_check(_ball4(), z, 0.1),
                 id="pullback_check"),
    pytest.param(lambda z: vfield.reparametrization_check(_ball4(), z, 0.1),
                 id="reparametrization_check"),
    pytest.param(lambda z: vfield.flow_trajectory(_ball4(), z, 0.01),
                 id="flow_trajectory"),
    pytest.param(lambda z: potentials.rescaled_ball_potential(
                     4, 3.0, boundary_point=z), id="boundary_point"),
    pytest.param(lambda z: domains.generic_norm(domains.ball(4), z),
                 id="require_member"),
])
def test_a_stack_is_not_one_point(call):
    """A (2, 2) array is two points of C^2, not one point of C^4; the unit
    rows of eye(2)/sqrt(2) would also flatten to a unit vector of C^4."""
    for z in (np.zeros((2, 2)), np.eye(2) / np.sqrt(2)):
        with pytest.raises(ValueError,
                           match=r"a point has shape \(n,\), got \(2, 2\)"):
            call(z)
