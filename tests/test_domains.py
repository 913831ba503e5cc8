"""Domain catalog: invariants, norms, membership, Cayley transform."""

import math

import numpy as np
import pytest

from kelab import domains
from kelab.domains import (
    EXCEPTIONAL_INVARIANTS,
    InvariantsRecord,
    ball,
    bergman_potential,
    cayley,
    from_json,
    generic_norm,
    halfplane_kernel,
    ke_potential,
    polydisc,
    product,
    siegel_log_kernel_on_polydisc_slice,
    type_i,
    type_ii,
    type_iii,
    type_iv,
)
from kelab.errors import (
    ConfigError,
    MembershipError,
    SingularTransformError,
    UnsupportedDomainError,
    UnsupportedPointError,
)
from kelab import hermgeo, potentials
from kelab.field import BallLog, HermitianNormPart, PotentialField
from kelab.sampling import sample_interior
from kelab.suites import run_suite


@pytest.mark.parametrize("d,c,n,r", [
    (type_i(2, 2), 4.0, 4, 2),
    (type_i(2, 3), 5.0, 6, 2),
    (type_i(1, 4), 5.0, 4, 1),
    (type_ii(4), 6.0, 6, 2),
    (type_ii(5), 8.0, 10, 2),
    (type_iii(2), 3.0, 3, 2),
    (type_iii(3), 4.0, 6, 3),
    (type_iv(3), 3.0, 3, 2),
    (type_iv(5), 5.0, 5, 2),
    (ball(3), 4.0, 3, 1),
])
def test_invariant_table(d, c, n, r):
    assert (d.c, d.n, d.rank) == (c, n, r)


def test_exceptional_rows_have_strict_bound():
    for rec in EXCEPTIONAL_INVARIANTS:
        assert rec.rc > rec.n + 1
    assert EXCEPTIONAL_INVARIANTS[0].rc == 24.0
    assert EXCEPTIONAL_INVARIANTS[1].rc == 54.0
    # E6 and E7 from (2, 6, 4) and (3, 8, 0)
    assert [(rec.n, rec.c, rec.rank, rec.gap)
            for rec in EXCEPTIONAL_INVARIANTS] == [(16, 12.0, 2, 7),
                                                   (27, 18.0, 3, 26)]


#: each kind's (n, c, rank) in its textbook form, from its parameters
TEXTBOOK = {
    "ball": lambda n: (n, n + 1, 1),
    "polydisc": lambda r: (r, 2, r),
    "type1": lambda p, q: (p * q, p + q, p),
    "type2": lambda m: (m * (m - 1) // 2, 2 * (m - 1), m // 2),
    "type3": lambda m: (m * (m + 1) // 2, m + 1, m),
    "type4": lambda m: (m, m, 2),
}

ONE_SOURCE_KINDS = (
    [ball(n) for n in range(1, 6)] + [polydisc(r) for r in range(1, 5)]
    + [type_i(p, q) for p in range(1, 4) for q in range(p, 5)]
    + [type_ii(m) for m in range(3, 9)] + [type_iii(m) for m in range(1, 6)]
    + [type_iv(m) for m in range(3, 8)])


@pytest.mark.parametrize("d", ONE_SOURCE_KINDS, ids=lambda d: d.label)
def test_invariants_derive_from_rank_and_multiplicities(d):
    """n, c and rank from (rank, a, b) agree with the textbook forms and
    with the construction's coordinate count; the gap is rank*c - (n+1)
    exactly, an integer, 0 exactly on rank 1."""
    assert (d.n, d.c, d.rank) == TEXTBOOK[d.kind](*d.params)
    assert type(d.c) is float and type(d.gap) is int
    assert d.n == (d.params[0] if d.kind == "type4"
                   else len(domains._basis(d)))
    assert d.gap == d.rank * d.c - (d.n + 1) and d.rc == d.rank * d.c
    assert (d.gap == 0) == (d.rank == 1)


def test_product_invariants_derive_from_the_factors():
    same_c = product(ball(2), ball(2))
    mixed = product(ball(2), polydisc(2))
    assert (same_c.n, same_c.c, same_c.rank, same_c.gap) == (4, 3.0, 2, 1)
    assert same_c.rc == same_c.rank * same_c.c == 6.0
    assert (mixed.n, mixed.c, mixed.rank, mixed.gap) == (4, None, 3, 2)
    assert mixed.rc == ball(2).rc + polydisc(2).rc == 7.0
    for d in (same_c, mixed):
        assert d.gap == d.rc - (d.n + 1) and d.n == sum(f.n for f in d.factors)


def test_classical_coincidences_share_their_invariants():
    def invariants(d):
        return (d.n, d.c, d.rank, d.gap)

    for a, b in [(type_iv(3), type_iii(2)), (type_iv(4), type_i(2, 2)),
                 (type_iv(6), type_ii(4)), (type_ii(3), ball(3)),
                 (type_iii(1), ball(1))]:
        assert invariants(a) == invariants(b), (a, b)


def test_a_record_takes_integral_multiplicities_only():
    """A near-tight float record such as rank*c = 17.0000000000005 at
    n = 16 has no (rank, a, b) and cannot be built."""
    with pytest.raises(ValueError, match="a must be an integer"):
        InvariantsRecord("near-tight", rank=2, a=0.5000000000005, b=5)
    with pytest.raises(ValueError, match="b must be an integer"):
        InvariantsRecord("near-tight", rank=2, a=1, b=4.5)


def test_ball_coincides_with_thin_type_i():
    for n in (1, 2, 3, 7):
        a, b = ball(n), type_i(1, n)
        assert (a.c, a.n, a.rank) == (b.c, b.n, b.rank)


def test_size_restrictions():
    with pytest.raises(ValueError):
        type_ii(2)
    with pytest.raises(ValueError):
        type_iv(2)
    with pytest.raises(ValueError):
        type_i(3, 2)


def test_generic_norm_examples():
    assert generic_norm(ball(2), [0.6, 0.0]) == pytest.approx(0.64, abs=1e-15)
    # type IV with |z|^2 = 0.25 and |z.z| = 0.25
    z = np.array([0.5, 0.0, 0.0], dtype=complex)
    assert generic_norm(type_iv(3), z) == pytest.approx(0.5625, abs=1e-15)


def _form_value(form, z):
    """sum_k w_k sum_j |D_k[j].z^k / k!|^2, contracting one axis at a time."""
    total = 0.0
    for k, (w, D) in enumerate(form):
        h = D
        for _ in range(k):
            h = h @ z
        total += w * np.sum(np.abs(h / math.factorial(k)) ** 2)
    return total


def _generic_norm_oracle(d, z):
    """det(I - Z Z*), its square root for type II, and type IV's
    1 - 2|z|^2 + |z.z|^2."""
    if d.kind == "type4":
        return 1.0 - 2.0 * np.sum(np.abs(z) ** 2) + abs(np.sum(z * z)) ** 2
    Z = domains.as_matrix(d, z)
    det = np.linalg.det(np.eye(len(Z)) - Z @ Z.conj().T).real
    return math.sqrt(det) if d.kind == "type2" else det


@pytest.mark.parametrize("d", [
    polydisc(2), polydisc(3), type_i(2, 2), type_i(2, 3), type_i(3, 3),
    type_ii(4), type_ii(5), type_ii(6), type_iii(2), type_iii(3), type_iv(3),
    type_iv(5),
], ids=lambda d: d.label)
def test_norm_form_is_the_generic_norm(d):
    """The form's value, and ``generic_norm``, against the determinant
    oracle at seeded interior points (1e-13 relative)."""
    form = domains.norm_form(d)
    assert len(form) == d.rank + 1
    for z in sample_interior(d, np.random.default_rng(21), 10, shrink=0.9):
        expected = _generic_norm_oracle(d, z)
        assert abs(_form_value(form, z) - expected) <= 1e-13 * expected
        assert abs(generic_norm(d, z) - expected) <= 1e-13 * expected


@pytest.mark.parametrize("d", [
    ball(2), polydisc(3), type_i(2, 2), type_ii(3), type_iii(2), type_iv(3),
], ids=lambda d: d.label)
def test_norm_normalization_and_boundary(d):
    assert generic_norm(d, np.zeros(d.n, complex)) == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    for z in sample_interior(d, rng, 25):
        assert generic_norm(d, z) > 0
    # the norm decays along a ray approaching the boundary
    z0 = sample_interior(d, np.random.default_rng(3), 1, shrink=0.5)[0]
    radius = max(s for s in np.linspace(1.0, 3.0, 201) if d.contains(z0 * s))
    values = [generic_norm(d, z0 * (radius * f)) for f in (0.9, 0.99, 0.999)]
    assert values[0] > values[1] > values[2]


def test_membership_error_outside():
    with pytest.raises(MembershipError):
        generic_norm(ball(2), [1.2, 0.0])
    with pytest.raises(MembershipError):
        generic_norm(type_iv(3), [0.9, 0.9j, 0.0])


def _inside_by_inequality(d, z):
    """Each kind's closed-form membership inequality, the oracle for
    ``domains.gauge``."""
    if d.kind == "ball":
        return float(np.sum(np.abs(z) ** 2)) < 1.0
    if d.kind == "polydisc":
        return bool(np.all(np.abs(z) < 1.0))
    if d.kind == "type4":
        s = float(np.sum(np.abs(z) ** 2))
        u = complex(np.sum(z * z))
        return s < 1.0 and 1.0 - 2.0 * s + abs(u) ** 2 > 0.0
    Z = domains.as_matrix(d, z)
    eigs = np.linalg.eigvalsh(np.eye(Z.shape[0]) - Z @ Z.conj().T)
    return bool(eigs[0] > 0)


def _lifts(d):
    """(p, q) and each coordinate's (i, j, weight) cells, kind by kind:
    type I and the ball (type1(1, n)) take the row-major cells, the
    polydisc the diagonal, type III (i, j) and (j, i) over i <= j, and
    type II (i, j) and -1 at (j, i) over i < j."""
    if d.kind == "polydisc":
        return d.n, d.n, [[(a, a, 1.0)] for a in range(d.n)]
    if d.kind in ("ball", "type1"):
        p, q = (1, d.n) if d.kind == "ball" else d.params
        return p, q, [[(i, j, 1.0)] for i in range(p) for j in range(q)]
    m = d.params[0]
    if d.kind == "type3":
        return m, m, [[(i, j, 1.0)] + [(j, i, 1.0)] * (i < j)
                      for i in range(m) for j in range(i, m)]
    return m, m, [[(i, j, 1.0), (j, i, -1.0)]
                  for i in range(m) for j in range(i + 1, m)]


def _as_matrix_entrywise(d, z):
    """Each coordinate's lifts added into the matrix one entry at a time."""
    p, q, lifts = _lifts(d)
    Z = np.zeros((p, q), dtype=complex)
    for alpha, lift in enumerate(lifts):
        for i, j, w in lift:
            Z[i, j] += w * z[alpha]
    return Z


MATRIX_KINDS = [ball(3), polydisc(3), type_i(2, 2), type_i(2, 3),
                type_i(3, 3), type_ii(4), type_ii(5), type_ii(6),
                type_iii(2), type_iii(3)]


@pytest.mark.parametrize("d", [
    ball(3), polydisc(3), type_i(2, 3), type_i(3, 3), type_ii(5), type_ii(6),
    type_iii(3),
], ids=lambda d: d.label)
def test_as_matrix_equals_the_entrywise_loop(d):
    rng = np.random.default_rng(12)
    for _ in range(5):
        z = rng.standard_normal(d.n) + 1j * rng.standard_normal(d.n)
        assert np.array_equal(domains.as_matrix(d, z),
                              _as_matrix_entrywise(d, z))
    Z = domains.as_matrix(d, z)
    Z[0, 0] = 7.0  # the result is a fresh array, not the cached basis
    assert np.array_equal(domains.as_matrix(d, z), _as_matrix_entrywise(d, z))
    zs = rng.standard_normal((4, d.n)) + 1j * rng.standard_normal((4, d.n))
    Zs = domains.as_matrix(d, zs)
    assert np.array_equal(Zs, [_as_matrix_entrywise(d, z) for z in zs])
    Zs[:, 0, 0] = 7.0
    assert np.array_equal(domains.as_matrix(d, zs)[0],
                          _as_matrix_entrywise(d, zs[0]))


@pytest.mark.parametrize("d", MATRIX_KINDS, ids=lambda d: d.label)
def test_basis_is_read_only_and_gives_the_cell_tripotent(d):
    """The cached basis cannot be written through, and ``tripotent`` is 1
    exactly on the coordinates whose first cell is (i, i), or (2i, 2i + 1)
    on type II, as the matrix tripotent [I | 0] or its type II blocks
    [[0, 1], [-1, 0]] read."""
    L = domains._basis(d)
    assert L.shape[0] == d.n and not L.flags.writeable
    with pytest.raises(ValueError):
        L[0, 0, 0] = 2.0
    step = 2 if d.kind == "type2" else 1
    cells = [lift[0][:2] for lift in _lifts(d)[2]]
    expected = [float(i % step == 0 and j == i + step - 1) for i, j in cells]
    assert np.array_equal(domains.tripotent(d), expected)
    assert domains.tripotent(d).dtype == float


def test_tripotent_off_the_matrix_kinds():
    """Type IV keeps e_1; a product has no basis and no tripotent."""
    assert domains.tripotent(type_iv(4)).tolist() == [1.0, 0.0, 0.0, 0.0]
    with pytest.raises(UnsupportedDomainError):
        domains.tripotent(product(ball(1), ball(1)))


@pytest.mark.parametrize("d", [
    ball(3), polydisc(3), type_i(2, 3), type_ii(5), type_iii(3), type_iv(4),
], ids=lambda d: d.label)
def test_membership_matches_norm_positivity(d):
    """Points at Euclidean radius 0.2-1.6 straddle every kind's boundary."""
    rng = np.random.default_rng(8)
    hits = 0
    for _ in range(300):
        u = rng.standard_normal(d.n) + 1j * rng.standard_normal(d.n)
        z = rng.uniform(0.2, 1.6) * u / np.linalg.norm(u)
        inside = _inside_by_inequality(d, z)
        assert d.contains(z) == inside
        if inside:
            hits += 1
            assert generic_norm(d, z) > 0
    assert 10 < hits < 290


def test_gauge_is_the_minkowski_gauge():
    rng = np.random.default_rng(4)
    for d in (ball(2), polydisc(2), type_i(2, 3), type_ii(4), type_iii(2),
              type_iv(3)):
        z = rng.standard_normal(d.n) + 1j * rng.standard_normal(d.n)
        g = domains.gauge(d, z)
        assert domains.gauge(d, 2.5 * np.exp(0.7j) * z) == \
            pytest.approx(2.5 * g, rel=1e-12)
        assert d.contains(z / g * (1 - 1e-9))
        assert not d.contains(z / g * (1 + 1e-9))


@pytest.mark.parametrize("d", [
    type_i(3, 3), type_ii(5), type_ii(6), type_iii(3), type_iv(5),
    product(type_i(2, 2), ball(1)), product(polydisc(1), ball(2)),
], ids=lambda d: d.label)
def test_sampler_reaches_every_kind(d):
    shrink = 0.8
    points = sample_interior(d, np.random.default_rng(11), 40, shrink=shrink)
    assert len(points) == 40
    for z in points:
        assert z.shape == (d.n,)
        assert d.contains(z / shrink)
    again = sample_interior(d, np.random.default_rng(11), 40, shrink=shrink)
    np.testing.assert_array_equal(np.array(points), np.array(again))


def _point_gauge(d, z):
    """The per-point gauge formulas, one numpy reduction each."""
    if d.kind == "ball":
        return float(np.linalg.norm(z))
    if d.kind == "polydisc":
        return float(np.max(np.abs(z)))
    if d.kind == "type4":
        s = float(np.vdot(z, z).real)
        u = abs(complex(np.sum(z * z)))
        return float(np.sqrt(s + np.sqrt(max(s * s - u * u, 0.0))))
    return float(np.linalg.norm(domains.as_matrix(d, z), 2))


def _point_draw(d, rng, shrink):
    """One point of the per-point sampler: draw, then scale by its gauge."""
    if d.kind == "product":
        return np.concatenate([_point_draw(f, rng, shrink) for f in d.factors])
    re, im = rng.standard_normal((2, d.n))
    u = re + 1j * im
    return shrink * rng.uniform() * u / _point_gauge(d, u)


@pytest.mark.parametrize("d", [
    ball(1), ball(2), ball(9), polydisc(1), polydisc(3), type_i(1, 3),
    type_i(2, 2), type_i(2, 3), type_i(3, 3), type_ii(3), type_ii(5),
    type_ii(6), type_iii(1), type_iii(2), type_iii(3), type_iv(3),
    type_iv(5), type_iv(9),
], ids=lambda d: d.label)
def test_stacked_gauge_is_the_point_gauge(d):
    rng = np.random.default_rng(5)
    zs = rng.standard_normal((300, d.n)) + 1j * rng.standard_normal((300, d.n))
    g = domains.gauge(d, zs)
    assert g.shape == (300,)
    assert np.array_equal(g, [domains.gauge(d, z) for z in zs])
    assert np.array_equal(g, [_point_gauge(d, z) for z in zs])


@pytest.mark.parametrize("d", [
    type_i(1, 3), type_i(2, 2), type_i(2, 3), type_i(3, 3), type_ii(3),
    type_ii(4), type_ii(5), type_iii(1), type_iii(2), type_iii(3),
], ids=lambda d: d.label)
def test_matrix_gauge_is_the_operator_norm(d):
    """The largest singular value keeps the bits of np.linalg.norm(., 2)
    on a stack: random rows, the origin, its -0 twin and rows with +-0
    entries among random ones."""
    rng = np.random.default_rng(8)
    zs = rng.standard_normal((40, d.n)) + 1j * rng.standard_normal((40, d.n))
    zeros = rng.integers(0, 2, zs.shape).astype(bool)
    signs = rng.choice([-0.0, 0.0], zs.shape + (2,))
    zs[zeros] = signs[zeros, 0] + 1j * signs[zeros, 1]
    zs = np.concatenate([np.zeros((1, d.n), complex),
                         np.full((1, d.n), complex(-0.0, -0.0)), zs])
    oracle = np.linalg.norm(domains.as_matrix(d, zs), 2, axis=(-2, -1))
    assert domains.gauge(d, zs).tobytes() == oracle.tobytes()
    assert domains.gauge(d, zs[0]) == 0.0


def test_product_gauge_is_the_largest_factor_gauge():
    d = product(type_i(2, 2), ball(1), product(polydisc(2), type_iv(3)))
    rng = np.random.default_rng(6)
    zs = rng.standard_normal((200, d.n)) + 1j * rng.standard_normal((200, d.n))
    g = domains.gauge(d, zs)
    blocks = np.split(zs, [4, 5, 7], axis=1)
    factors = (type_i(2, 2), ball(1), polydisc(2), type_iv(3))
    assert np.array_equal(g, np.max([[_point_gauge(f, z) for z in block]
                                     for f, block in zip(factors, blocks)],
                                    axis=0))
    assert np.array_equal(g, [domains.gauge(d, z) for z in zs])


@pytest.mark.parametrize("d", [
    ball(2), polydisc(2), type_i(2, 3), type_ii(4), type_iii(2), type_iv(3),
    product(polydisc(1), ball(2)), product(type_iii(2), polydisc(1)),
], ids=lambda d: d.label)
def test_stacked_membership_is_the_point_membership(d):
    rng = np.random.default_rng(9)
    zs = rng.standard_normal((300, d.n)) + 1j * rng.standard_normal((300, d.n))
    zs *= rng.uniform(0.1, 1.2, (300, 1))
    inside = d.contains(zs)
    assert inside.dtype == bool and inside.shape == (300,)
    assert list(inside) == [d.contains(z) for z in zs]
    assert 10 < inside.sum() < 290
    with pytest.raises(ValueError):
        d.contains(np.vstack([zs[:2], np.full(d.n, np.nan)]))


@pytest.mark.parametrize("d", [
    ball(2), polydisc(3), type_i(2, 2), type_i(2, 3), type_i(3, 3),
    type_ii(5), type_ii(6), type_iii(2), type_iii(3), type_iv(3), type_iv(5),
    product(type_i(2, 2), ball(1)), product(polydisc(1), ball(2)),
    product(ball(2), product(polydisc(2), type_iv(3))),
], ids=lambda d: d.label)
def test_sampler_returns_the_per_point_samplers_points(d):
    """The same seeded stream and the same bits as drawing and scaling
    one point at a time; the generator is left in the same state."""
    for seed in range(3):
        for shrink in (0.95, 0.6):
            rng, oracle = (np.random.default_rng(seed) for _ in range(2))
            points = sample_interior(d, rng, 25, shrink=shrink)
            expected = [_point_draw(d, oracle, shrink) for _ in range(25)]
            assert np.array_equal(np.array(points), np.array(expected))
            assert rng.uniform() == oracle.uniform()
    assert sample_interior(d, np.random.default_rng(0), 0).shape == (0, d.n)


def test_sampler_takes_a_generator_only():
    """The draws go into buffers through ``numpy.random.Generator``
    methods, so a legacy ``RandomState``, a seed or None is a TypeError,
    even for no points."""
    for rng in (np.random.RandomState(0), 0, None):
        for count in (3, 0):
            with pytest.raises(TypeError, match="Generator"):
                sample_interior(ball(2), rng, count)


def test_sampler_rejects_a_negative_count():
    """A negative count is an error, not an empty sample that a
    certificate would then pass."""
    with pytest.raises(ValueError, match="count"):
        sample_interior(ball(2), np.random.default_rng(0), -3)
    with pytest.raises(ValueError, match="count"):
        potentials.certify_constant_length(
            potentials.rescaled_ball_potential(2, 3.0), samples=-3)


def test_sampler_takes_an_integral_count():
    """``count`` passes through ``as_integer``: a bool or a fraction is a
    ValueError naming it, and "3" is 3, as the suites' keys are."""
    for bad in (True, 2.5):
        with pytest.raises(ValueError, match="count"):
            sample_interior(ball(2), np.random.default_rng(0), bad)
    points = sample_interior(ball(2), np.random.default_rng(0), "3")
    assert np.array_equal(points, sample_interior(
        ball(2), np.random.default_rng(0), 3))


def test_sampler_fails_closed(monkeypatch):
    """A drawn point that leaves shrink * domain raises, never passes."""
    monkeypatch.setattr(domains.DomainModel, "contains", lambda self, z: False)
    with pytest.raises(MembershipError):
        sample_interior(ball(2), np.random.default_rng(0), 1)


def test_sampler_names_the_row_its_stacked_check_rejects(monkeypatch):
    """One False row in the middle of the stacked check raises, and the
    error names that row's point."""
    points = sample_interior(ball(2), np.random.default_rng(0), 7)
    real = domains.DomainModel.contains

    def one_row_outside(self, z):
        inside = real(self, z)
        inside[3] = False
        return inside

    monkeypatch.setattr(domains.DomainModel, "contains", one_row_outside)
    with pytest.raises(MembershipError) as info:
        sample_interior(ball(2), np.random.default_rng(0), 7)
    named = [i for i, z in enumerate(points) if repr(z) in str(info.value)]
    assert named == [3]


def test_einstein_on_the_kinds_only_the_gauge_sampler_reaches():
    report = run_suite("einstein", {
        "domains": [type_i(3, 3), type_ii(5), type_iii(3), type_iv(5)],
        "samples": 1,
    })
    assert report.passed
    assert report.max_residual <= 1e-3
    assert len(report.samples) == 4


#: ROADMAP item 4's 13 kinds and one product
_PART_KINDS = [ball(2), polydisc(2), polydisc(3), type_i(2, 2), type_i(2, 3),
               type_i(3, 3), type_ii(4), type_ii(5), type_ii(6), type_iii(2),
               type_iii(3), type_iv(3), type_iv(5), product(ball(1), type_iv(3))]


def _fresh_kernel(d):
    """The kernel potential of ``d`` with every part built anew."""
    if d.kind == domains.PRODUCT:
        parts = domains.product_parts([_fresh_kernel(f) for f in d.factors])
    elif d.kind == domains.BALL:
        parts = [(1.0, BallLog(d.c))]
    else:
        parts = [(1.0, HermitianNormPart(domains.norm_form(d), d.c))]
    return PotentialField(domain=d, ricci_constant=1.0, parts=parts,
                          label=f"fresh[{d.label}]")


@pytest.mark.parametrize("d", _PART_KINDS, ids=lambda d: d.label)
def test_kernel_part_is_built_once_per_kind(d):
    """A form kind's kernel, KE and Kai-Ohsawa potentials share one
    part, and the jets at orders 0-4 and the generic norm keep the bits of
    freshly built parts, at the origin and at seeded points."""
    p = bergman_potential(d)
    if d.kind not in (domains.BALL, domains.PRODUCT):
        part = p.parts[0][1]
        assert isinstance(part, HermitianNormPart)
        assert bergman_potential(d).parts[0][1] is part
        assert ke_potential(d, 3.0).parts[0][1] is part
        assert potentials.kai_ohsawa_potential(d).parts[0][1] is part
    fresh = _fresh_kernel(d)
    zs = np.concatenate([np.zeros((1, d.n), complex), sample_interior(
        d, np.random.default_rng(9), 2, shrink=0.7)])
    for order in range(5):
        got, want = p.jet(zs, order).tensors, fresh.jet(zs, order).tensors
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), (order, key)
    if d.kind != domains.PRODUCT:
        for z in zs:
            assert generic_norm(d, z) == float(HermitianNormPart(
                domains.norm_form(d), d.c).norm(z[None])[0])


def _part_jet(part, z, order):
    """The jet tensors of the part alone, as a potential's one summand."""
    return PotentialField(domain=None, ricci_constant=np.nan,
                          parts=[(1.0, part)], label="part").analytic_jet(
                              z, order).tensors


def test_shared_parts_are_read_only():
    """The arrays a shared part holds refuse in-place writes, and its
    jets keep their bytes after the attempts."""
    d = type_i(2, 3)
    kernel = bergman_potential(d).parts[0][1]
    siegel = potentials._siegel_log(d)
    z = sample_interior(d, np.random.default_rng(4), 3)
    before = [_part_jet(part, z, 4) for part in (kernel, siegel)]
    arrays = [kernel.taylor, kernel.start, kernel.weights[0].base,
              *kernel.weights, *(D for _, D in siegel.form)]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 7
    after = [_part_jet(part, z, 4) for part in (kernel, siegel)]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(old[key].tobytes() == new[key].tobytes() for key in old)


def test_bergman_metric_at_origin():
    cases = [
        (type_i(2, 2), 4.0),
        (ball(2), 3.0),
        (ball(3), 4.0),
        (polydisc(2), 2.0),
    ]
    for d, expected in cases:
        p = bergman_potential(d)
        g = p.analytic_jet(np.zeros(d.n, complex), 2).mixed_hessian()
        np.testing.assert_allclose(g, expected * np.eye(d.n), atol=1e-14)


def test_ke_potential_rescaling():
    d = ball(2)
    # K = n+1 gives the defining-function potential with length law |z|^2
    p = ke_potential(d, 3.0)
    z = np.array([0.5 + 0.1j, -0.2 + 0.3j])
    frame = hermgeo.metric_from_potential(p, z)
    assert hermgeo.gradient_length_sq(frame) == pytest.approx(
        float(np.sum(np.abs(z) ** 2)), abs=1e-12
    )
    # K = K' is the identity transformation
    p1 = ke_potential(d, 1.0)
    p0 = bergman_potential(d)
    assert p1(z) == pytest.approx(p0(z), abs=1e-14)
    assert p1.ricci_constant == 1.0


def test_cayley_polydisc_center():
    d = polydisc(3)
    w = cayley(d, np.zeros(3, complex))
    np.testing.assert_allclose(w, -np.ones(3), atol=0)
    assert np.all(w.real < 0)


def test_cayley_round_trip():
    """Sampled ball(3) points land in Re w1 + |w'|^2/2 < 0, and a stack
    maps to its points' images bit for bit."""
    d = ball(3)
    zs = np.array(sample_interior(d, np.random.default_rng(5), 10))
    w = cayley(d, zs)
    assert np.all(w[:, 0].real + 0.5 * np.sum(np.abs(w[:, 1:]) ** 2, axis=1)
                  < 0)
    assert np.array_equal(w, np.array([cayley(d, z) for z in zs]))


def test_cayley_boundary_limit():
    d = polydisc(1)
    for radius in (0.9, 0.99, 0.999):
        w = cayley(d, np.array([radius + 0j]))
        assert w[0].real < 0
    assert abs(cayley(d, np.array([0.999 + 0j]))[0].real) < 1e-3


def test_cayley_singular_point():
    with pytest.raises(MembershipError):
        cayley(polydisc(1), np.array([-1.0 + 0j]))
    near = np.array([-1.0 + 1e-15j])
    with pytest.raises((SingularTransformError, MembershipError)):
        cayley(polydisc(1), near)
    with pytest.raises(UnsupportedDomainError):
        cayley(type_i(2, 2), np.zeros(4, complex))


def test_halfplane_kernel_values():
    assert halfplane_kernel(-1.0) == pytest.approx(0.5)
    assert halfplane_kernel(-0.5) == pytest.approx(2.0)
    assert halfplane_kernel(-1.0 + 5.0j) == pytest.approx(0.5)
    with pytest.raises(MembershipError):
        halfplane_kernel(0.5)
    with pytest.raises(MembershipError):
        halfplane_kernel(0.0)


def test_siegel_slice_kernel():
    disk = polydisc(1)
    val = siegel_log_kernel_on_polydisc_slice(disk, np.array([-1.0 + 0j]))
    assert val == pytest.approx(np.log(0.5), abs=1e-15)
    # additivity over equal slice factors
    d2 = polydisc(2)
    w = np.array([-0.7 + 0.2j, -0.7 + 0.2j])
    two = siegel_log_kernel_on_polydisc_slice(d2, w)
    one = siegel_log_kernel_on_polydisc_slice(disk, w[:1])
    assert two == pytest.approx(2 * one, abs=1e-14)


@pytest.mark.parametrize("d", [ball(3), polydisc(3)], ids=lambda d: d.label)
def test_siegel_slice_kernel_of_a_stack_equals_its_points(d):
    rng = np.random.default_rng(8)
    w = np.zeros((6, d.n), dtype=complex)
    w[:, :d.rank] = -rng.uniform(0.1, 2.0, (6, d.rank)) \
        + 1j * rng.normal(size=(6, d.rank))
    stacked = siegel_log_kernel_on_polydisc_slice(d, w)
    assert stacked.shape == (6,)
    assert np.array_equal(
        stacked, [siegel_log_kernel_on_polydisc_slice(d, row) for row in w])
    kernel = halfplane_kernel(w[:, 0])
    assert np.array_equal(kernel, [halfplane_kernel(x) for x in w[:, 0]])


def test_siegel_slice_rejects_off_slice():
    d = ball(3)
    with pytest.raises(UnsupportedPointError):
        siegel_log_kernel_on_polydisc_slice(d, np.array([-1.0, 0.1, 0.0]))
    with pytest.raises(MembershipError):
        siegel_log_kernel_on_polydisc_slice(d, np.array([1.0, 0.0, 0.0]))


def test_product_invariants():
    d = product(ball(2), polydisc(2))
    assert d.n == 4
    assert d.rank == 3
    z = np.array([0.1 + 0.2j, 0.0, 0.3, -0.4j])
    expected = generic_norm(ball(2), z[:2]) * generic_norm(polydisc(2), z[2:])
    assert generic_norm(d, z) == pytest.approx(expected, abs=1e-15)


def test_serialization_round_trip():
    """Every kind of the parameter table, and nested products, come back
    from their JSON records equal, with labels kind(params)."""
    kinds = [from_json({"kind": kind, **{key: 3 + i for i, key in
                                         enumerate(keys)}})
             for kind, keys in domains.PARAMETERS.items()]
    assert [d.label for d in kinds] == ["ball(3)", "polydisc(3)",
                                        "type1(3,4)", "type2(3)", "type3(3)",
                                        "type4(3)"]
    nested = [product(ball(1), ball(2)),
              product(type_i(2, 3), product(polydisc(2), type_iv(4)))]
    for d in kinds + nested:
        again = from_json(d.to_json())
        assert again == d and again.label == d.label
        assert again.to_json() == d.to_json()
    assert nested[1].label == "type1(2,3) x polydisc(2) x type4(4)"
    with pytest.raises(UnsupportedDomainError):
        from_json({"kind": "dodecahedron"})
    with pytest.raises(UnsupportedDomainError):
        from_json({"kind": "halfplane-product", "r": 2})


CONSTRUCTORS = [(ball, (2,)), (polydisc, (2,)), (type_i, (2, 3)),
                (type_ii, (4,)), (type_iii, (2,)), (type_iv, (3,))]


@pytest.mark.parametrize("build, args", CONSTRUCTORS,
                         ids=lambda x: getattr(x, "__name__", None))
def test_constructors_take_integral_parameters_only(build, args):
    """2.5 and True raise a ValueError naming the parameter; an integral
    float builds the same domain, label and record as the int."""
    names = domains.PARAMETERS[build(*args).kind]
    for k, name in enumerate(names):
        for bad in (args[k] + 0.5, True):
            wrong = args[:k] + (bad,) + args[k + 1:]
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                build(*wrong)
        as_float = args[:k] + (float(args[k]),) + args[k + 1:]
        d = build(*as_float)
        assert d == build(*args) and d.label == build(*args).label
        assert d.to_json() == build(*args).to_json()
        assert all(type(v) is int for v in d.params) and type(d.n) is int


def test_from_json_takes_integral_parameters_only():
    for value in (3, 3.0, "3"):
        assert from_json({"kind": "ball", "n": value}) == ball(3)
    assert from_json({"kind": "type1", "p": 2.0, "q": "3"}) == type_i(2, 3)
    for value in (2.9, None, True, "three", float("nan"), float("inf")):
        with pytest.raises(ValueError):
            from_json({"kind": "ball", "n": value})
    with pytest.raises(ValueError):
        from_json({"kind": "type1", "p": 2.5, "q": 2})


@pytest.mark.parametrize("record", [
    {"kind": "ball", "n": 2, "extra": 1},
    {"kind": "ball"},
    {"kind": "type1", "p": 2},
    {"kind": "product", "factors": [{"kind": "ball", "n": 1}], "n": 2},
    {"kind": "product"},
    {"kind": "product", "factors": [{"kind": "ball", "n": 1, "m": 3}]},
])
def test_from_json_takes_exactly_its_kinds_keys(record):
    """An unknown or missing key is a ValueError naming the keys, and
    through a suite's ``domains`` a ConfigError."""
    with pytest.raises(ValueError, match="record takes the keys kind, "):
        from_json(record)
    with pytest.raises(ConfigError, match="record takes the keys kind, "):
        run_suite("einstein", {"samples": 1, "domains": [record]})


def test_product_kernel_potential_is_einstein():
    """Products of heterogeneous factors keep the Einstein normalization."""
    d = product(type_i(2, 2), ball(1))
    p = bergman_potential(d)
    rng = np.random.default_rng(7)
    for z in sample_interior(d, rng, 3, shrink=0.7):
        assert hermgeo.einstein_residual(p, z) <= 1e-6
