"""Named verification suites over the domain catalog.

Each suite draws seeded interior samples, evaluates one family of
residuals, and returns a ``VerificationReport``.  Reports serialize to
JSON; identical (suite, config, seed) inputs reproduce the report
byte-for-byte apart from ``runtime_ms``.

Residual semantics: single-identity suites (einstein, delta-identity,
key-equation, constant-length, dbar-defect, ball-minimality) report the
raw residual against a physical tolerance; suites that aggregate checks
with different native tolerances (flow, kai-ohsawa, cheng-yau, table1)
report each residual divided by its own threshold and pass at 1.0.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import chengyau, hermgeo, potentials, vfield
from .domains import (
    BALL,
    DomainModel,
    EXCEPTIONAL_INVARIANTS,
    ball,
    bergman_potential,
    from_json,
    ke_potential,
    polydisc,
    siegel_pullback_slice_derivative,
    type_i,
    type_ii,
    type_iii,
    type_iv,
)
from .errors import ConfigError
from .sampling import sample_interior


@dataclass
class VerificationReport:
    suite: str
    domain: object
    params: dict
    samples: list
    max_residual: float
    passed: bool
    runtime_ms: int
    notes: list = dataclass_field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "domain": self.domain,
            "params": self.params,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "pass": self.passed,
            "runtime_ms": self.runtime_ms,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _point_json(z) -> list:
    return [[float(c.real), float(c.imag)] for c in np.atleast_1d(z)]


def _worst(residuals) -> float:
    """The largest of several residuals, NaN if any is NaN.

    Plain ``max(0.0, nan)`` is 0.0, which would let a NaN residual pass;
    a NaN or inf residual must fail the ``worst <= tol`` test instead.
    """
    return float(np.max(list(residuals)))


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _common(config):
    seed = int(config.get("seed", 0))
    tol = config.get("tol")
    samples = int(config.get("samples", 0) or 0)
    if tol is not None:
        _require(float(tol) > 0, f"tolerance must be positive, got {tol}")
    _require(samples >= 0, "sample count must be nonnegative")
    return seed, tol, samples


def _domain_from_config(config, default: DomainModel) -> DomainModel:
    raw = config.get("domain")
    if raw is None:
        return default
    if isinstance(raw, DomainModel):
        return raw
    if isinstance(raw, dict):
        try:
            return from_json(raw)
        except ValueError as exc:
            raise ConfigError(f"invalid domain parameters {raw!r}: {exc}")
    raise ConfigError(f"cannot interpret domain {raw!r}")


def _ricci_of(config, default: float) -> float:
    # "K" is accepted as an alias for "ricci"
    val = config.get("ricci", config.get("K", default))
    val = float(val)
    _require(val > 0, f"Ricci constant must be positive, got {val}")
    return val


# ---------------------------------------------------------------------------
# suites

def suite_einstein(config) -> VerificationReport:
    """max |Ric + K g| for the catalog's kernel potentials (K = 1)."""
    t0 = time.perf_counter()
    seed, tol, samples = _common(config)
    tol = 1e-3 if tol is None else float(tol)
    samples = samples or 20
    shrink = float(config.get("shrink", 0.8))
    domains = config.get("domains")
    if domains is None:
        models = [ball(2), polydisc(2), polydisc(3), type_i(2, 2),
                  type_iii(2), type_iv(3)]
    else:
        models = [from_json(d) if isinstance(d, dict) else d for d in domains]
    rows = []
    worst = 0.0
    for d in models:
        p = bergman_potential(d)
        rng = np.random.default_rng(seed)
        for z in sample_interior(d, rng, samples, shrink=shrink):
            r = hermgeo.einstein_residual(p, z)
            worst = _worst([worst, r])
            rows.append({
                "domain": d.label,
                "point": _point_json(z),
                "residuals": {"einstein": r},
            })
    return VerificationReport(
        suite="einstein",
        domain=[d.to_json() for d in models],
        params={"seed": seed, "samples": samples, "tol": tol,
                "shrink": shrink, "ricci_constant": 1.0,
                "norm_exponents": {"type1": 1.0, "type2": 0.5,
                                   "type3": 1.0, "type4": 1.0}},
        samples=rows,
        max_residual=worst,
        passed=worst <= tol,
        runtime_ms=int(1000 * (time.perf_counter() - t0)),
    )


def suite_delta_identity(config) -> VerificationReport:
    """|Delta L - |Hess|^2 - n + K L| for three benchmark metrics."""
    t0 = time.perf_counter()
    seed, tol, samples = _common(config)
    tol = 1e-3 if tol is None else float(tol)
    samples = samples or 50
    shrink = float(config.get("shrink", 0.85))
    b2 = ball(2)
    targets = [
        (ke_potential(b2, float(b2.n + 1)), b2),
        (bergman_potential(polydisc(2)), polydisc(2)),
        (bergman_potential(type_i(2, 2)), type_i(2, 2)),
    ]
    rows = []
    worst = 0.0
    for p, d in targets:
        rng = np.random.default_rng(seed)
        for z in sample_interior(d, rng, samples, shrink=shrink):
            r = hermgeo.delta_identity_residual(p, z)
            worst = _worst([worst, r])
            rows.append({
                "domain": d.label,
                "potential": p.label,
                "point": _point_json(z),
                "residuals": {"delta_identity": r},
            })
    return VerificationReport(
        suite="delta-identity",
        domain=[d.to_json() for _, d in targets],
        params={"seed": seed, "samples": samples, "tol": tol, "shrink": shrink},
        samples=rows,
        max_residual=worst,
        passed=worst <= tol,
        runtime_ms=int(1000 * (time.perf_counter() - t0)),
    )


def suite_key_equation(config) -> VerificationReport:
    """Componentwise |phi_{a;b} phi^a + phi_b| for a constant-length potential."""
    t0 = time.perf_counter()
    seed, tol, samples = _common(config)
    tol = 1e-6 if tol is None else float(tol)
    samples = samples or 100
    n = int(config.get("n", 2))
    K = _ricci_of(config, 3.0)
    p = potentials.rescaled_ball_potential(n, K)
    rng = np.random.default_rng(seed)
    rows = []
    worst = 0.0
    for z in sample_interior(p.domain, rng, samples):
        r = hermgeo.key_equation_residual(p, z)
        worst = _worst([worst, r])
        rows.append({"point": _point_json(z),
                     "residuals": {"key_equation": r}})
    return VerificationReport(
        suite="key-equation",
        domain=p.domain.to_json(),
        params={"seed": seed, "samples": samples, "tol": tol, "n": n,
                "ricci": K},
        samples=rows,
        max_residual=worst,
        passed=worst <= tol,
        runtime_ms=int(1000 * (time.perf_counter() - t0)),
    )


def suite_constant_length(config) -> VerificationReport:
    """|L - (n+1)/K| for the rescaled ball potential; emits a certificate."""
    t0 = time.perf_counter()
    seed, tol, samples = _common(config)
    tol = 1e-8 if tol is None else float(tol)
    samples = samples or 200
    d = _domain_from_config(config, ball(int(config.get("n", 2))))
    _require(d.kind == BALL, "constant-length suite runs on ball domains")
    K = _ricci_of(config, 3.0)
    p = potentials.rescaled_ball_potential(d.n, K)
    target = (d.n + 1) / K
    rng = np.random.default_rng(seed)
    rows = []
    worst = 0.0
    for z in sample_interior(d, rng, samples):
        frame = hermgeo.metric_from_potential(p, z, order=2)
        r = abs(hermgeo.gradient_length_sq(p, frame) - target)
        worst = _worst([worst, r])
        rows.append({"point": _point_json(z),
                     "residuals": {"length_deviation": r}})
    cert = potentials.ConstantLengthCertificate(
        label=p.label, constant=target, max_deviation=worst,
        sample_count=samples, tolerance=tol, seed=seed,
    )
    p.certificate = cert
    return VerificationReport(
        suite="constant-length",
        domain=d.to_json(),
        params={"seed": seed, "samples": samples, "tol": tol,
                "ricci": K, "target": target},
        samples=rows,
        max_residual=worst,
        passed=worst <= tol,
        runtime_ms=int(1000 * (time.perf_counter() - t0)),
    )


def suite_dbar_defect(config) -> VerificationReport:
    """|nabla'' V|^2 and its agreement with the closed form, certified case."""
    t0 = time.perf_counter()
    seed, tol, samples = _common(config)
    tol = 1e-8 if tol is None else float(tol)
    samples = samples or 100
    n = int(config.get("n", 2))
    K = _ricci_of(config, 3.0)
    p = potentials.rescaled_ball_potential(n, K)
    rng = np.random.default_rng(seed)
    rows = []
    worst = 0.0
    for z in sample_interior(p.domain, rng, samples):
        defect = vfield.dbar_defect(p, z)
        law = vfield.dbar_defect_closed_form(p, z)
        r = _worst([defect, abs(defect - law)])
        worst = _worst([worst, r])
        rows.append({
            "point": _point_json(z),
            "residuals": {"defect": defect, "defect_vs_closed_form":
                          abs(defect - law)},
        })
    return VerificationReport(
        suite="dbar-defect",
        domain=p.domain.to_json(),
        params={"seed": seed, "samples": samples, "tol": tol, "n": n,
                "ricci": K},
        samples=rows,
        max_residual=worst,
        passed=worst <= tol,
        runtime_ms=int(1000 * (time.perf_counter() - t0)),
    )


def suite_flow(config) -> VerificationReport:
    """Level-set conservation, isometry pullback and reparametrization.

    Residuals are normalized by their native thresholds (1e-6 / 1e-4 /
    1e-5 / 1e-10); the suite passes at 1.0.
    """
    t0 = time.perf_counter()
    seed, tol, _ = _common(config)
    tol = 1.0 if tol is None else float(tol)
    n = int(config.get("n", 2))
    K = _ricci_of(config, 3.0)
    horizon = float(config.get("horizon", 5.0))
    dt = float(config.get("dt", 1e-3))
    p = potentials.rescaled_ball_potential(n, K)
    potentials.certify_constant_length(p, samples=50, seed=seed)
    rng = np.random.default_rng(seed)
    z0 = sample_interior(p.domain, rng, 1, shrink=0.5)[0]

    traj = vfield.flow_trajectory(p, z0, horizon, dt=dt, generator="re_w",
                                  record_every=200)
    conservation = float(np.max(np.abs(traj["values"] - p(z0))))
    pullback = vfield.pullback_metric_deviation(
        p, np.zeros(n, dtype=complex), 0.5, dt=dt
    )
    reparam = vfield.reparametrization_deviation(p, z0, 0.8, dt=dt)
    tangency = _worst(
        vfield.level_set_tangency(p, z)
        for z in sample_interior(p.domain, rng, 10)
    )
    out_csv = config.get("trajectory_csv")
    if out_csv:
        vfield.trajectory_to_csv(traj, out_csv)

    residuals = {
        "conservation": conservation / 1e-6,
        "pullback_metric": pullback / 1e-4,
        "reparametrization": reparam / 1e-5,
        "tangency": tangency / 1e-10,
    }
    worst = _worst(residuals.values())
    return VerificationReport(
        suite="flow",
        domain=p.domain.to_json(),
        params={"seed": seed, "tol": tol, "n": n, "ricci": K,
                "horizon": horizon, "dt": dt,
                "thresholds": {"conservation": 1e-6, "pullback_metric": 1e-4,
                               "reparametrization": 1e-5, "tangency": 1e-10}},
        samples=[{"point": _point_json(z0), "residuals": residuals}],
        max_residual=worst,
        passed=worst <= tol,
        runtime_ms=int(1000 * (time.perf_counter() - t0)),
    )


def suite_kai_ohsawa(config) -> VerificationReport:
    """Constant gradient length of the Siegel pullback on balls/polydiscs.

    Checks L against its closed-form value (n+1 resp. 2r), the lower bound
    rank*c, and the slice derivative of the pulled-back log-kernel at 0.
    Residuals normalized by (1e-6, 1e-9, 1e-8); passes at 1.0.
    """
    t0 = time.perf_counter()
    seed, tol, _ = _common(config)
    tol = 1.0 if tol is None else float(tol)
    nmax = int(config.get("max_dimension", 3))
    rows = []
    worst = 0.0
    for d in [ball(n) for n in range(1, nmax + 1)] + \
             [polydisc(r) for r in range(1, nmax + 1)]:
        L = potentials.kai_ohsawa_constant(d, seed=seed)
        expected = float(d.n + 1 if d.kind == BALL else 2 * d.rank)
        bound_violation = max(0.0, d.rank * d.c - L)
        deriv = _slice_derivative_residual(d)
        residuals = {
            "length_vs_expected": abs(L - expected) / 1e-6,
            "lower_bound": bound_violation / 1e-9,
            "slice_derivative": deriv / 1e-8,
        }
        worst = _worst([worst, *residuals.values()])
        rows.append({
            "domain": d.label,
            "constant": L,
            "expected": expected,
            "rank_times_c": d.rank * d.c,
            "equality_with_bound": bool(abs(L - d.rank * d.c) <= 1e-9),
            "residuals": residuals,
        })
    return VerificationReport(
        suite="kai-ohsawa",
        domain=[r["domain"] for r in rows],
        params={"seed": seed, "tol": tol, "max_dimension": nmax,
                "thresholds": {"length_vs_expected": 1e-6,
                               "lower_bound": 1e-9,
                               "slice_derivative": 1e-8}},
        samples=rows,
        max_residual=worst,
        passed=worst <= tol,
        runtime_ms=int(1000 * (time.perf_counter() - t0)),
    )


def _slice_derivative_residual(d) -> float:
    """|d/dz^a at 0 of the pulled-back slice kernel - c|, worst direction.

    Cross-checks the closed form against a central difference of the
    honest composition through the Cayley map and half-plane kernels.
    """
    from .domains import cayley, siegel_log_kernel_on_polydisc_slice

    h = 1e-5
    worst = 0.0
    for alpha in range(d.rank):
        closed = siegel_pullback_slice_derivative(d, alpha)

        def slice_value(c):
            z = np.zeros(d.n, dtype=complex)
            z[alpha] = c
            return siegel_log_kernel_on_polydisc_slice(d, cayley(d, z))

        dx = (slice_value(h) - slice_value(-h)) / (2 * h)
        dy = (slice_value(1j * h) - slice_value(-1j * h)) / (2 * h)
        fd = 0.5 * (dx - 1j * dy)
        worst = _worst([worst, abs(closed - d.c), abs(fd - d.c)])
    return worst


def suite_ball_minimality(config) -> VerificationReport:
    """rank*c vs n+1 across the catalog: strict except for type1(1,n)."""
    t0 = time.perf_counter()
    seed, tol, _ = _common(config)
    tol = 1e-9 if tol is None else float(tol)
    K = _ricci_of(config, 1.0)
    entries = [
        type_i(1, 1), type_i(1, 2), type_i(1, 3), type_i(1, 5),
        type_i(2, 2), type_i(2, 3), type_i(3, 3),
        type_ii(5), type_ii(6), type_ii(7),
        type_iii(2), type_iii(3), type_iii(4),
        type_iv(3), type_iv(4), type_iv(5),
    ]
    rows_raw = potentials.ball_minimality_report(
        list(entries) + list(EXCEPTIONAL_INVARIANTS), K=K
    )
    ball_like = {f"type1(1,{q})" for q in range(1, 40)}
    rows = []
    worst = 0.0
    for row in rows_raw:
        expected_equality = row.label in ball_like
        if expected_equality:
            r = abs(row.rc_over_K - row.bound_over_K)
        else:
            r = max(0.0, row.bound_over_K - row.rc_over_K + 1e-12)
            if not row.strict:
                r = max(r, 1.0)
        worst = _worst([worst, r])
        entry = row.as_dict()
        entry["residuals"] = {"classification": r}
        rows.append(entry)
    return VerificationReport(
        suite="ball-minimality",
        domain=None,
        params={"seed": seed, "tol": tol, "ricci": K},
        samples=rows,
        max_residual=worst,
        passed=worst <= tol,
        runtime_ms=int(1000 * (time.perf_counter() - t0)),
    )


def suite_cheng_yau(config) -> VerificationReport:
    """Shooting solver vs the closed ball solution and its boundary limit.

    Residuals normalized: grid deviation / 1e-5, ODE residual / 1e-8,
    boundary-limit gap / (2% of target); passes at 1.0.
    """
    t0 = time.perf_counter()
    seed, tol, _ = _common(config)
    tol = 1.0 if tol is None else float(tol)
    n = int(config.get("n", 2))
    K = _ricci_of(config, 3.0)
    sol = chengyau.shoot(n, K)
    exact = chengyau.ball_closed_form(n, K, grid=sol.grid)
    grid_dev = float(np.max(np.abs(sol.phi - exact.phi)))
    sel = sol.grid[2:-2][:: max(1, len(sol.grid) // 200)]
    ode_res = _worst(abs(chengyau.radial_ode_residual(sol, t)) for t in sel)
    limit, gap = chengyau.boundary_limit_estimate(sol)
    target = (n + 1) / K
    out_csv = config.get("solution_csv")
    if out_csv:
        chengyau.solution_to_csv(sol, out_csv)
    residuals = {
        "grid_deviation": grid_dev / 1e-5,
        "ode_residual": ode_res / 1e-8,
        "boundary_limit": abs(gap) / (0.02 * target),
    }
    worst = _worst(residuals.values())
    return VerificationReport(
        suite="cheng-yau",
        domain=ball(n).to_json(),
        params={"seed": seed, "tol": tol, "n": n, "ricci": K,
                "center_value": sol.phi[0], "boundary_limit": limit,
                "thresholds": {"grid_deviation": 1e-5, "ode_residual": 1e-8,
                               "boundary_limit": 0.02 * target}},
        samples=[{"residuals": residuals}],
        max_residual=worst,
        passed=worst <= tol,
        runtime_ms=int(1000 * (time.perf_counter() - t0)),
    )


def suite_table1(config) -> VerificationReport:
    """Invariants (c, n, rank) of every kind against their closed forms."""
    t0 = time.perf_counter()
    seed, tol, _ = _common(config)
    tol = 0.5 if tol is None else float(tol)
    expected = {
        "type1(2,2)": (4.0, 4, 2),
        "type1(2,3)": (5.0, 6, 2),
        "type1(1,4)": (5.0, 4, 1),
        "type2(5)": (8.0, 10, 2),
        "type2(6)": (10.0, 15, 3),
        "type3(2)": (3.0, 3, 2),
        "type3(4)": (5.0, 10, 4),
        "type4(3)": (3.0, 3, 2),
        "type4(6)": (6.0, 6, 2),
        "exceptional-16": (12.0, 16, 2),
        "exceptional-27": (18.0, 27, 3),
        "ball(4)": (5.0, 4, 1),
    }
    models = {
        "type1(2,2)": type_i(2, 2), "type1(2,3)": type_i(2, 3),
        "type1(1,4)": type_i(1, 4), "type2(5)": type_ii(5),
        "type2(6)": type_ii(6), "type3(2)": type_iii(2),
        "type3(4)": type_iii(4), "type4(3)": type_iv(3),
        "type4(6)": type_iv(6), "ball(4)": ball(4),
    }
    rows = []
    mismatches = 0
    for label, (c, n, rank) in expected.items():
        if label in models:
            rec = models[label].invariants()
        else:
            rec = next(r for r in EXCEPTIONAL_INVARIANTS if r.label == label)
        ok = (rec.c == c and rec.n == n and rec.rank == rank)
        irreducible_nonball = not (label.startswith("type1(1,")
                                   or label.startswith("ball"))
        bound_ok = (rec.rc > rec.n + 1) if irreducible_nonball else \
            (abs(rec.rc - (rec.n + 1)) < 1e-12)
        if not (ok and bound_ok):
            mismatches += 1
        rows.append({
            "kind": label,
            "c": rec.c, "n": rec.n, "rank": rec.rank, "rc": rec.rc,
            "matches": bool(ok), "bound_ok": bool(bound_ok),
            "residuals": {"mismatch": 0.0 if (ok and bound_ok) else 1.0},
        })
    # the ball coincides with type1(1, n)
    def _tuple(rec):
        return (rec.c, rec.n, rec.rank)

    coincide = all(
        _tuple(ball(n).invariants()) == _tuple(type_i(1, n).invariants())
        for n in (1, 2, 3, 5)
    )
    if not coincide:
        mismatches += 1
    return VerificationReport(
        suite="table1",
        domain=None,
        params={"seed": seed, "tol": tol,
                "ball_is_type1_1n": bool(coincide),
                "norm_exponents": {"type1": 1.0, "type2": 0.5,
                                   "type3": 1.0, "type4": 1.0}},
        samples=rows,
        max_residual=float(mismatches),
        passed=mismatches == 0,
        runtime_ms=int(1000 * (time.perf_counter() - t0)),
    )


SUITES = {
    "einstein": (suite_einstein,
                 "Ricci of dd^c log-kernel equals -1 on the catalog",
                 ["hermgeo.ricci", "domains.bergman_potential"]),
    "delta-identity": (suite_delta_identity,
                       "Delta|dphi|^2 = |Hess phi|^2 + n - K|dphi|^2",
                       ["hermgeo.laplacian", "hermgeo.hessian_norm_sq"]),
    "key-equation": (suite_key_equation,
                     "phi_{a;b} phi^a = -phi_b at constant gradient length",
                     ["hermgeo.covariant_hessian"]),
    "constant-length": (suite_constant_length,
                        "rescaled ball potential has |dphi|^2 = (n+1)/K",
                        ["potentials.rescaled_ball_potential",
                         "hermgeo.gradient_length_sq"]),
    "dbar-defect": (suite_dbar_defect,
                    "|nabla'' V|^2 vanishes for certified potentials",
                    ["vfield.dbar_defect", "vfield.dbar_defect_closed_form"]),
    "flow": (suite_flow,
             "Re W conserves phi; the Re V flow acts by isometries",
             ["vfield.integrate_flow", "vfield.pullback_metric_deviation"]),
    "kai-ohsawa": (suite_kai_ohsawa,
                   "constant length of the Siegel pullback; bound rank*c",
                   ["potentials.kai_ohsawa_constant",
                    "domains.siegel_log_kernel_on_polydisc_slice"]),
    "ball-minimality": (suite_ball_minimality,
                        "rank*c exceeds n+1 except for the ball",
                        ["potentials.ball_minimality_report"]),
    "cheng-yau": (suite_cheng_yau,
                  "radial solver matches the closed ball solution",
                  ["chengyau.shoot", "chengyau.boundary_limit_estimate"]),
    "table1": (suite_table1,
               "catalog invariants match their closed forms",
               ["domains.table_records"]),
}


def run_suite(name: str, config: dict | None = None) -> VerificationReport:
    if name not in SUITES:
        raise ConfigError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        )
    fn, _, _ = SUITES[name]
    return fn(dict(config or {}))


def default_config() -> dict:
    return {"seed": 0, "suites": {name: {} for name in SUITES}}


def run_all(config: dict, out_dir=None, jobs: int = 1):
    """Run every configured suite; returns (reports, all_passed).

    Suites run concurrently up to ``jobs``; each draws from its own seeded
    generator so the reports are independent of scheduling.
    """
    from concurrent.futures import ThreadPoolExecutor

    suite_cfgs = config.get("suites") or {name: {} for name in SUITES}
    seed = int(config.get("seed", 0))
    names = [n for n in SUITES if n in suite_cfgs]
    for name in suite_cfgs:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r} in config")

    def one(name):
        cfg = dict(suite_cfgs.get(name) or {})
        cfg.setdefault("seed", seed)
        if out_dir is not None:
            if name == "flow":
                cfg.setdefault("trajectory_csv",
                               str(out_dir / "flow_trajectory.csv"))
            if name == "cheng-yau":
                cfg.setdefault("solution_csv",
                               str(out_dir / "cheng_yau_solution.csv"))
        return run_suite(name, cfg)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(one, names))
    else:
        reports = [one(name) for name in names]
    return reports, all(r.passed for r in reports)


def summary_dict(reports) -> dict:
    return {
        "suites": {
            r.suite: {
                "pass": r.passed,
                "max_residual": r.max_residual,
                "checks": SUITES[r.suite][1],
                "operations": SUITES[r.suite][2],
            }
            for r in reports
        },
        "pass": all(r.passed for r in reports),
    }
