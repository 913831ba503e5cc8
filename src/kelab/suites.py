"""Named verification suites over the domain catalog.

Each suite is a ``Suite`` in ``SUITES``: what it checks, its default
tolerance, its config keys with their defaults (its schema) and a body
that returns the domain, its own params and the sample rows.  One runner,
``run_suite``, checks the config, times the body, folds every residual of
every row into ``max_residual`` and builds the ``VerificationReport``.
Reports serialize to strict JSON on one line; identical (suite, config,
seed) inputs reproduce the report byte-for-byte apart from ``runtime_ms``.

Residual semantics: single-identity suites (einstein, delta-identity,
key-equation, constant-length, dbar-defect, ball-minimality) report the
raw residual against a physical tolerance; suites that aggregate checks
with different native tolerances (flow, kai-ohsawa, cheng-yau, table1)
report each residual divided by its own threshold and pass at 1.0.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

from . import chengyau, hermgeo, jets, potentials, vfield
from .domains import (
    BALL,
    DomainModel,
    EXCEPTIONAL_INVARIANTS,
    as_integer,
    ball,
    bergman_potential,
    cayley,
    from_json,
    ke_potential,
    polydisc,
    siegel_log_kernel_on_polydisc_slice,
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
        """Strict JSON on one line: a non-finite float is written as a
        string.

        Without an indent ``json.dumps`` takes CPython's C encoder; the
        ``_finite_json`` walk runs only when that dump meets a non-finite
        float.
        """
        data = self.to_dict()
        try:
            return json.dumps(data, sort_keys=True, allow_nan=False)
        except ValueError:
            return json.dumps(_finite_json(data), sort_keys=True,
                              allow_nan=False)


def _finite_json(value):
    """``value`` with each NaN or +-inf float as its JSON name in a string.

    ``float()`` parses "NaN", "Infinity" and "-Infinity" back, and strict
    JSON readers reject the bare ``NaN`` that ``json.dumps`` writes.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return json.dumps(value)
    if isinstance(value, dict):
        return {k: _finite_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(v) for v in value]
    return value


def _points_json(z) -> list:
    """A point as its [re, im] pairs, or a stack as a list of those, in
    one conversion."""
    return np.stack([z.real, z.imag], -1).tolist()


def _worst(residuals) -> float:
    """The largest of several residuals, NaN if any is NaN.

    Plain ``max(0.0, nan)`` is 0.0, which would let a NaN residual pass;
    a NaN or inf residual must fail the ``worst <= tol`` test instead.
    """
    return float(np.max(list(residuals)))


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _domain(raw) -> DomainModel:
    if isinstance(raw, DomainModel):
        return raw
    if isinstance(raw, dict):
        try:
            return from_json(raw)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"invalid domain parameters {raw!r}: {exc}")
    raise ConfigError(f"cannot interpret domain {raw!r}")


# ---------------------------------------------------------------------------
# the suite record and its runner

@dataclass(frozen=True)
class Suite:
    body: Callable[[dict], tuple]
    checks: str
    operations: list
    tol: float
    keys: dict

    @property
    def schema(self) -> dict:
        """Every config key the suite takes, with its default."""
        return {"seed": 0, "tol": self.tol, **self.keys}


SUITES: dict[str, Suite] = {}


def _suite(name, checks, operations, tol, **keys):
    """Register the decorated body as suite ``name`` with schema ``keys``."""
    def register(body):
        SUITES[name] = Suite(body, checks, operations, tol, keys)
        return body
    return register


def _number(name, key, value, kind):
    """``value`` as ``kind`` (int or float).  An int key takes the integral
    values of ``domains.as_integer``: 2.0 but not 2.9, which is not
    truncated.  Neither kind takes a bool."""
    try:
        if not isinstance(value, bool):
            return as_integer(value) if kind is int else float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    what = "an integer" if kind is int else "a number"
    raise ConfigError(f"{name}: {key} must be {what}, got {value!r}")


#: the values the suite bodies take, per config key: a test and its words
_RANGES = {
    "tol": (lambda v: v > 0, "positive"),
    "samples": (lambda v: v >= 0, "nonnegative"),
    "ricci": (lambda v: v > 0, "positive"),
    "n": (lambda v: v >= 1, ">= 1"),
    "shrink": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "dt": (lambda v: v > 0, "positive"),
    "horizon": (lambda v: abs(v) <= vfield.MAX_HORIZON,
                f"at most {vfield.MAX_HORIZON} in absolute value"),
    "domains": (lambda v: isinstance(v, list), "a list"),
    "trajectory_csv": (lambda v: isinstance(v, str), "a path string or null"),
    "solution_csv": (lambda v: isinstance(v, str), "a path string or null"),
}


def _resolve_config(name: str, config: dict) -> dict:
    """``config`` checked against the suite's schema, defaults filled in.

    A missing or ``None`` value takes the default; numbers are converted
    to the type of their default (see ``_number``), and ``n`` to an int.
    A value outside ``_RANGES`` is a config error here, before a body
    runs.  ``samples`` 0 means the default.
    """
    if name not in SUITES:
        raise ConfigError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        )
    schema = SUITES[name].schema
    unknown = sorted(set(config) - set(schema))
    _require(not unknown,
             f"{name} does not take {', '.join(map(repr, unknown))}; "
             f"accepted keys: {', '.join(sorted(schema))}")
    cfg = {}
    for key, default in schema.items():
        value = config.get(key)
        kind = int if key == "n" else type(default)
        if value is None:
            value = default
        elif kind in (int, float):
            value = _number(name, key, value, kind)
        cfg[key] = value
    for key, (ok, what) in _RANGES.items():
        _require(cfg.get(key) is None or ok(cfg[key]),
                 f"{name}: {key} must be {what}, got {cfg.get(key)!r}")
    if "samples" in cfg:
        cfg["samples"] = cfg["samples"] or schema["samples"]
    return cfg


def run_suite(name: str, config: dict | None = None) -> VerificationReport:
    cfg = _resolve_config(name, dict(config or {}))
    t0 = time.perf_counter()
    domain, params, rows = SUITES[name].body(cfg)
    _require(rows, f"{name}: the config leaves nothing to check")
    worst = _worst(r for row in rows for r in row["residuals"].values())
    echo = {key: cfg[key] for key in ("seed", "tol", "samples") if key in cfg}
    return VerificationReport(
        suite=name,
        domain=domain,
        params={**echo, **params},
        samples=rows,
        max_residual=worst,
        passed=worst <= cfg["tol"],
        runtime_ms=int(1000 * (time.perf_counter() - t0)),
    )


# ---------------------------------------------------------------------------
# suites

@_suite("einstein", "Ricci of dd^c log-kernel equals -1 on the catalog",
        ["hermgeo.ricci_from_frame", "domains.bergman_potential"], tol=1e-3,
        samples=20, shrink=0.8,
        domains=[d.to_json() for d in (ball(2), polydisc(2), polydisc(3),
                                       type_i(2, 2), type_iii(2), type_iv(3))])
def _einstein(cfg):
    """max |Ric + K g| for the catalog's kernel potentials (K = 1).

    Each domain's sample stack is one ``einstein_residual`` call.
    """
    models = [_domain(d) for d in cfg["domains"]]
    rows = []
    for d in models:
        p = bergman_potential(d)
        rng = np.random.default_rng(cfg["seed"])
        zs = np.array(sample_interior(d, rng, cfg["samples"],
                                      shrink=cfg["shrink"]))
        residuals = hermgeo.einstein_residual(p, zs).tolist()
        rows += [{"domain": d.label, "point": point,
                  "residuals": {"einstein": r}}
                 for point, r in zip(_points_json(zs), residuals)]
    params = {"shrink": cfg["shrink"], "ricci_constant": 1.0}
    return [d.to_json() for d in models], params, rows


@_suite("delta-identity", "Delta|dphi|^2 = |Hess phi|^2 + n - K|dphi|^2",
        ["hermgeo.length_laplacian_from_frame", "hermgeo.hessian_norm_sq"],
        tol=1e-3, samples=50, shrink=0.85)
def _delta_identity(cfg):
    """|Delta L - |Hess|^2 - n + K L| for three benchmark metrics.

    Each target's sample stack is one ``delta_identity_residual`` call.
    """
    b2 = ball(2)
    targets = [
        (ke_potential(b2, float(b2.n + 1)), b2),
        (bergman_potential(polydisc(2)), polydisc(2)),
        (bergman_potential(type_i(2, 2)), type_i(2, 2)),
    ]
    rows = []
    for p, d in targets:
        rng = np.random.default_rng(cfg["seed"])
        zs = np.array(sample_interior(d, rng, cfg["samples"],
                                      shrink=cfg["shrink"]))
        residuals = hermgeo.delta_identity_residual(p, zs).tolist()
        rows += [{"domain": d.label, "potential": p.label, "point": point,
                  "residuals": {"delta_identity": r}}
                 for point, r in zip(_points_json(zs), residuals)]
    return [d.to_json() for _, d in targets], {"shrink": cfg["shrink"]}, rows


@_suite("key-equation", "phi_{a;b} phi^a = -phi_b at constant gradient length",
        ["hermgeo.covariant_hessian"], tol=1e-6, samples=100, n=2, ricci=3.0)
def _key_equation(cfg):
    """Componentwise |phi_{a;b} phi^a + phi_b| for a constant-length potential."""
    p = potentials.rescaled_ball_potential(cfg["n"], cfg["ricci"])
    rng = np.random.default_rng(cfg["seed"])
    zs = np.array(sample_interior(p.domain, rng, cfg["samples"]))
    residuals = hermgeo.key_equation_residual(p, zs).tolist()
    rows = [{"point": point, "residuals": {"key_equation": r}}
            for point, r in zip(_points_json(zs), residuals)]
    return p.domain.to_json(), {"n": cfg["n"], "ricci": cfg["ricci"]}, rows


@_suite("constant-length", "rescaled ball potential has |dphi|^2 = (n+1)/K",
        ["potentials.rescaled_ball_potential", "hermgeo.gradient_length_sq"],
        tol=1e-8, samples=200, n=None, ricci=3.0, domain=None)
def _constant_length(cfg):
    """|L - (n+1)/K| for the rescaled ball potential on ``domain``.

    ``domain`` defaults to ball(n) and ``n`` to the domain's dimension (2
    when neither is given); an ``n`` the domain disagrees with is a config
    error.
    """
    n = cfg["n"]
    if cfg["domain"] is None:
        d = ball(2 if n is None else n)
    else:
        d = _domain(cfg["domain"])
        _require(n is None or n == d.n,
                 f"constant-length: n = {n} disagrees with {d.label}")
    _require(d.kind == BALL, "constant-length suite runs on ball domains")
    K = cfg["ricci"]
    p = potentials.rescaled_ball_potential(d.n, K)
    target = (d.n + 1) / K
    rng = np.random.default_rng(cfg["seed"])
    zs = np.array(sample_interior(d, rng, cfg["samples"]))
    frame = hermgeo.metric_from_potential(p, zs, order=2)
    deviations = np.abs(hermgeo.gradient_length_sq(frame) - target).tolist()
    rows = [{"point": point, "residuals": {"length_deviation": r}}
            for point, r in zip(_points_json(zs), deviations)]
    return d.to_json(), {"n": d.n, "ricci": K, "target": target}, rows


@_suite("dbar-defect", "|nabla'' V|^2 vanishes for certified potentials",
        ["vfield.dbar_defect", "vfield.dbar_defect_closed_form"], tol=1e-8,
        samples=100, n=2, ricci=3.0)
def _dbar_defect(cfg):
    """|nabla'' V|^2 and its agreement with the closed form, certified case.

    The sample stack is one call of each.
    """
    p = potentials.rescaled_ball_potential(cfg["n"], cfg["ricci"])
    rng = np.random.default_rng(cfg["seed"])
    zs = np.array(sample_interior(p.domain, rng, cfg["samples"]))
    defects = vfield.dbar_defect(p, zs)
    gaps = np.abs(defects - vfield.dbar_defect_closed_form(p, zs))
    rows = [{"point": point,
             "residuals": {"defect": defect, "defect_vs_closed_form": gap}}
            for point, defect, gap in zip(_points_json(zs), defects.tolist(),
                                          gaps.tolist())]
    return p.domain.to_json(), {"n": cfg["n"], "ricci": cfg["ricci"]}, rows


@_suite("flow", "Re W conserves phi; the Re V flow acts by isometries",
        ["potentials.certify_constant_length", "vfield.run_flows",
         "vfield.pullback_check", "vfield.reparametrization_check",
         "vfield.level_set_tangency", "vfield.exact_re_v_flow"],
        tol=1.0, n=2, ricci=3.0, horizon=5.0, dt=1e-3, trajectory_csv=None)
def _flow(cfg):
    """Level-set conservation, isometry pullback, reparametrization and
    the distance of the trajectory and the reparametrization endpoints
    from ``vfield.exact_re_v_flow``.

    The level-set trajectory and the rows of both fixed-time checks run
    as one lockstep stack of ``vfield.run_flows``.  Residuals are
    normalized by their native thresholds (1e-6 / 1e-4 / 1e-5 / 1e-10 /
    1e-8); the suite passes at 1.0.
    """
    n, dt = cfg["n"], cfg["dt"]
    p = potentials.rescaled_ball_potential(n, cfg["ricci"])
    cert = potentials.certify_constant_length(p, samples=50, seed=cfg["seed"])
    cert.require()
    rng = np.random.default_rng(cfg["seed"])
    z0 = sample_interior(p.domain, rng, 1, shrink=0.5)[0]

    repar = vfield.reparametrization_check(p, z0, 0.8)
    exact_end = vfield.exact_re_v_flow(z0, 0.8)
    traj, (pullback, (reparametrization, end_deviation)) = vfield.run_flows(
        p, (z0, cfg["horizon"], "re_w"),
        [vfield.pullback_check(p, np.zeros(n, dtype=complex), 0.5),
         repar._replace(residual=lambda ends: (
             repar.residual(ends), np.max(np.abs(ends - exact_end))))],
        dt=dt, record_every=200)
    # Re W runs the Re V map slower by e^(K phi(z0)/(n+1))
    exact_traj = vfield.exact_re_v_flow(
        z0, traj["times"] * math.exp(-cfg["ricci"] * p(z0) / (n + 1)))
    raw = {
        "conservation": float(np.max(np.abs(traj["values"] - p(z0)))),
        "pullback_metric": pullback,
        "reparametrization": reparametrization,
        "tangency": _worst(vfield.level_set_tangency(
            p, np.array(sample_interior(p.domain, rng, 10)))),
        "exact_flow": _worst([end_deviation, np.max(np.abs(
            np.array(traj["points"]) - exact_traj))]),
    }
    if cfg["trajectory_csv"]:
        vfield.trajectory_to_csv(traj, cfg["trajectory_csv"])

    thresholds = {"conservation": 1e-6, "pullback_metric": 1e-4,
                  "reparametrization": 1e-5, "tangency": 1e-10,
                  "exact_flow": 1e-8}
    residuals = {k: raw[k] / thresholds[k] for k in raw}
    params = {"n": n, "ricci": cfg["ricci"], "horizon": cfg["horizon"],
              "dt": dt, "thresholds": thresholds}
    return p.domain.to_json(), params, [{"point": _points_json(z0),
                                         "residuals": residuals}]


@_suite("kai-ohsawa", "constant length of the Siegel pullback; bound rank*c",
        ["potentials.kai_ohsawa_constant",
         "domains.siegel_log_kernel_on_polydisc_slice"],
        tol=1.0, max_dimension=3)
def _kai_ohsawa(cfg):
    """Constant gradient length of the Siegel pullback on balls/polydiscs.

    Checks L against its closed-form value and lower bound rank*c (n+1 on
    the ball, 2r on the polydisc) and the slice derivative at 0 against c
    and the FD jet of the slice kernel through the Cayley map.  Residuals
    normalized by (1e-6, 1e-9, 1e-8); passes at 1.0.
    """
    nmax = cfg["max_dimension"]
    thresholds = {"length_vs_expected": 1e-6, "lower_bound": 1e-9,
                  "slice_derivative": 1e-8}
    rows = []
    for d in [ball(n) for n in range(1, nmax + 1)] + \
             [polydisc(r) for r in range(1, nmax + 1)]:
        L = potentials.kai_ohsawa_constant(d, seed=cfg["seed"])
        expected = d.rank * d.c
        raw = {
            "length_vs_expected": abs(L - expected),
            "lower_bound": max(0.0, d.rank * d.c - L),
            "slice_derivative": _slice_derivative_residual(d),
        }
        rows.append({
            "domain": d.label,
            "constant": L,
            "expected": expected,
            "rank_times_c": d.rank * d.c,
            "equality_with_bound": bool(abs(L - d.rank * d.c) <= 1e-9),
            "residuals": {k: raw[k] / thresholds[k] for k in raw},
        })
    params = {"max_dimension": nmax, "thresholds": thresholds}
    return [r["domain"] for r in rows], params, rows


def _slice_derivative_residual(d) -> float:
    """Worst |d phi/dz^a (0) - c| over the slice directions a < rank.

    Reads d phi/dz^a from the closed-form jet of the potential whose
    constant the suite reports, and from ``fd_jet`` of the Siegel
    log-kernel pulled back through ``cayley`` onto the rank-dimensional
    slice (one call on the stack of its stencil); both must equal the
    kernel exponent c.
    """
    r = d.rank

    def pulled_back(Z):
        z = np.zeros((len(Z), d.n), dtype=complex)
        z[:, :r] = Z
        return siegel_log_kernel_on_polydisc_slice(d, cayley(d, z))

    closed = potentials.kai_ohsawa_potential(d).jet(
        np.zeros(d.n), 1).holo_gradient()[:r]
    fd = jets.fd_jet(pulled_back, np.zeros(r), 1).holo_gradient()
    return _worst(np.abs(np.concatenate([closed, fd]) - d.c))


@_suite("ball-minimality", "rank*c exceeds n+1 except for the ball",
        ["potentials.ball_minimality_report"], tol=1e-9, ricci=1.0)
def _ball_minimality(cfg):
    """rank*c vs n+1 across the catalog: strict except on rank 1 (the balls)."""
    entries = [
        type_i(1, 1), type_i(1, 2), type_i(1, 3), type_i(1, 5),
        type_i(2, 2), type_i(2, 3), type_i(3, 3),
        type_ii(5), type_ii(6), type_ii(7),
        type_iii(2), type_iii(3), type_iii(4),
        type_iv(3), type_iv(4), type_iv(5),
    ]
    rows_raw = potentials.ball_minimality_report(
        entries + list(EXCEPTIONAL_INVARIANTS), K=cfg["ricci"]
    )
    rows = []
    for row in rows_raw:
        if row.rank == 1:
            r = abs(row.rc_over_K - row.bound_over_K)
        else:
            r = max(0.0, row.bound_over_K - row.rc_over_K + 1e-12)
            if not row.strict:
                r = max(r, 1.0)
        rows.append({**row.as_dict(), "residuals": {"classification": r}})
    return None, {"ricci": cfg["ricci"]}, rows


@_suite("cheng-yau", "radial solver matches the closed ball solution",
        ["chengyau.shoot", "chengyau.boundary_limit_estimate"],
        tol=1.0, n=2, ricci=3.0, solution_csv=None)
def _cheng_yau(cfg):
    """Shooting solver vs the closed ball solution and its boundary limit.

    Residuals normalized: grid deviation / 1e-5, ODE residual / 1e-8,
    boundary-limit gap / (2% of target); passes at 1.0.
    """
    n, K = cfg["n"], cfg["ricci"]
    sol = chengyau.shoot(n, K)
    exact = chengyau.ball_closed_form(n, K, grid=sol.grid)
    sel = sol.grid[2:-2][:: max(1, len(sol.grid) // 200)]
    limit, gap = chengyau.boundary_limit_estimate(sol)
    if cfg["solution_csv"]:
        chengyau.solution_to_csv(sol, cfg["solution_csv"])
    raw = {
        "grid_deviation": float(np.max(np.abs(sol.phi - exact.phi))),
        "ode_residual": _worst(abs(chengyau.radial_ode_residual(sol, sel))),
        "boundary_limit": abs(gap),
    }
    thresholds = {"grid_deviation": 1e-5, "ode_residual": 1e-8,
                  "boundary_limit": 0.02 * ((n + 1) / K)}
    params = {"n": n, "ricci": K, "center_value": sol.phi[0],
              "boundary_limit": limit, "thresholds": thresholds}
    return ball(n).to_json(), params, [
        {"residuals": {k: raw[k] / thresholds[k] for k in raw}}]


@_suite("table1", "catalog invariants match their closed forms",
        ["domains.DomainModel.invariants"], tol=0.5)
def _table1(cfg):
    """Invariants (c, n, rank) of every kind against their closed forms.

    One more row checks that ball(n) coincides with type1(1, n).
    """
    exceptional = {rec.label: rec for rec in EXCEPTIONAL_INVARIANTS}
    expected = [
        (type_i(2, 2).invariants(), 4.0, 4, 2),
        (type_i(2, 3).invariants(), 5.0, 6, 2),
        (type_i(1, 4).invariants(), 5.0, 4, 1),
        (type_ii(5).invariants(), 8.0, 10, 2),
        (type_ii(6).invariants(), 10.0, 15, 3),
        (type_iii(2).invariants(), 3.0, 3, 2),
        (type_iii(4).invariants(), 5.0, 10, 4),
        (type_iv(3).invariants(), 3.0, 3, 2),
        (type_iv(6).invariants(), 6.0, 6, 2),
        (exceptional["exceptional-16"], 12.0, 16, 2),
        (exceptional["exceptional-27"], 18.0, 27, 3),
        (ball(4).invariants(), 5.0, 4, 1),
    ]
    rows = []
    for rec, c, n, rank in expected:
        ok = (rec.c == c and rec.n == n and rec.rank == rank)
        # the irreducible rank-1 domains are exactly the balls
        bound_ok = (rec.rc > rec.n + 1) if rec.rank > 1 else \
            (abs(rec.rc - (rec.n + 1)) < 1e-12)
        rows.append({
            "kind": rec.label,
            "c": rec.c, "n": rec.n, "rank": rec.rank, "rc": rec.rc,
            "matches": bool(ok), "bound_ok": bool(bound_ok),
            "residuals": {"mismatch": 0.0 if (ok and bound_ok) else 1.0},
        })

    def invariants(d):
        rec = d.invariants()
        return (rec.c, rec.n, rec.rank)

    coincide = all(invariants(ball(n)) == invariants(type_i(1, n))
                   for n in (1, 2, 3, 5))
    rows.append({"kind": "ball(n) = type1(1,n)",
                 "residuals": {"mismatch": 0.0 if coincide else 1.0}})
    params = {"ball_is_type1_1n": bool(coincide)}
    return None, params, rows


def run_all(config: dict, out_dir=None):
    """Run every configured suite in order; returns (reports, all_passed).

    Without ``suites`` every suite runs at its defaults, and ``seed``
    defaults to 0.  Every suite's config is checked before the first suite
    runs.
    """
    unknown = sorted(set(config) - {"seed", "suites"})
    _require(not unknown, f"unknown config key(s) {', '.join(unknown)}; "
                          "accepted: seed, suites")
    suite_cfgs = config.get("suites") or {name: {} for name in SUITES}
    seed = _number("run-all", "seed", config.get("seed", 0), int)
    for name in suite_cfgs:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r} in config")
    cfgs = {}
    for name in SUITES:
        if name not in suite_cfgs:
            continue
        cfg = {"seed": seed, **(suite_cfgs[name] or {})}
        if out_dir is not None:
            if name == "flow":
                cfg.setdefault("trajectory_csv",
                               str(out_dir / "flow_trajectory.csv"))
            if name == "cheng-yau":
                cfg.setdefault("solution_csv",
                               str(out_dir / "cheng_yau_solution.csv"))
        _resolve_config(name, cfg)
        cfgs[name] = cfg
    reports = [run_suite(name, cfg) for name, cfg in cfgs.items()]
    return reports, all(r.passed for r in reports)


def summary_dict(reports) -> dict:
    return {
        "suites": {
            r.suite: {
                "pass": r.passed,
                "max_residual": r.max_residual,
                "checks": SUITES[r.suite].checks,
                "operations": SUITES[r.suite].operations,
            }
            for r in reports
        },
        "pass": all(r.passed for r in reports),
    }
