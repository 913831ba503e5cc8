"""The benchmark's workloads, driven through kelab's public functions.

Each workload is one closed loop in one process: a pass runs its suites
(or its sample-and-frame loop) to completion, then every result goes
through the correctness gate.  A pass draws all of its inputs from the
integer seed it is given.  Each workload also has set-up probe segments
that run the same inputs at minimal size, used to measure set-up cost in
fresh processes and to warm a run up before timing.

All kelab calls go through module attributes (``sampling.sample_interior``
rather than a name imported from it), so the tracer's rebinding sees them.

Sizes are below the suites' defaults so that one pass takes a few
seconds and a run can take the median of several passes.
"""

from __future__ import annotations

import numpy as np

from kelab import chengyau, domains, errors, hermgeo, sampling, suites

from gate import Gate

#: catalog kinds whose order-3 Bergman frames the catalog workload builds
CATALOG_KINDS = (domains.type_i(2, 2), domains.type_iii(2), domains.type_iv(3),
                 domains.type_i(2, 3))
# Left out because the rejection sampler cannot fill them today (20 points
# each): type2(5), type2(6), type1(3,3) and type4(5).
CATALOG_POINTS = 16
#: |log det g(z) - log det g(e^{i theta} z)| on these circled domains
ROTATION_TOL = 1e-9

CURVATURE = {"einstein": {"samples": 4}, "delta-identity": {"samples": 10}}
DYNAMICS = {"flow": {"horizon": 1.0, "dt": 4e-3}, "cheng-yau": {}}
CATALOG_SUITES = {
    "key-equation": {"samples": 400},
    "constant-length": {"samples": 400},
    "dbar-defect": {"samples": 200},
    "kai-ohsawa": {},
    "ball-minimality": {},
    "table1": {},
}


def run_checked(gate: Gate, name: str, config: dict):
    """Run one suite and fold its report; a kelab error is a failed check."""
    try:
        report = suites.run_suite(name, config)
    except errors.KelabError as exc:
        gate.fail(f"{name}: {type(exc).__name__}: {exc}")
        return
    gate.check_report(report, config)


def _suites_pass(table):
    def run(seed: int, gate: Gate):
        for name, cfg in table.items():
            run_checked(gate, name, {**cfg, "seed": seed})
    return run


def catalog(seed: int, gate: Gate, points: int = CATALOG_POINTS,
            table=CATALOG_SUITES):
    """Seeded points on matrix kinds, order-3 frames there, cheap suites."""
    rng = np.random.default_rng(seed)
    for d in CATALOG_KINDS:
        p = domains.bergman_potential(d)
        try:
            zs = sampling.sample_interior(d, rng, points)
        except errors.KelabError as exc:
            gate.fail(f"sample {d.label}: {exc}")
            continue
        for z in zs:
            turn = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            try:
                frame = hermgeo.metric_from_potential(p, z, order=3)
                turned = hermgeo.metric_from_potential(p, turn * z, order=2)
            except errors.KelabError as exc:
                gate.fail(f"frame {d.label}: {exc}")
                continue
            gate.check(f"frame {d.label}.rotation",
                       abs(frame.log_det_g - turned.log_det_g), ROTATION_TOL)
    _suites_pass(table)(seed, gate)


# -- set-up probes: every input of a workload at minimal size -----------------
# A probe is a list of segments, each a function of the seed.  Together they
# run each suite, domain, kind and entry point their workload uses, so a
# cache a later change fills on first use is paid in the cold run of some
# segment.  Suites without a size knob (kai-ohsawa, ball-minimality, table1)
# run at their defaults, as in the workloads.  cheng-yau has none either,
# but its default shoot takes ~3.5 s, and a cold-minus-warm difference of
# two such runs is mostly machine noise; so its segment calls the same
# entry points at the same n and K with a coarse bisection tolerance.

#: bisection tolerance of the probe's shoot; the suite uses shoot's 1e-11
PROBE_SHOOT_TOL = 1e-3

MINIMAL = {
    "einstein": {"samples": 1},
    "delta-identity": {"samples": 1},
    "key-equation": {"samples": 1},
    "constant-length": {"samples": 1},
    "dbar-defect": {"samples": 1},
    # one RK4 step; the suite's fixed-time pullback and reparametrization
    # checks take 1/dt steps each, so dt is coarse too
    "flow": {"horizon": 0.04, "dt": 0.04},
}


def _minimal(table) -> dict:
    return {name: MINIMAL.get(name, {})
            for name in table if name != "cheng-yau"}


def _suite_segments(table) -> list:
    def segment(name, cfg):
        return lambda seed: run_checked(Gate(), name, {**cfg, "seed": seed})
    return [segment(name, cfg) for name, cfg in _minimal(table).items()]


def _cheng_yau_segment(seed: int):
    """The cheng-yau suite's chengyau calls at n = 2, K = 3, coarse tol."""
    n, K = 2, 3.0
    sol = chengyau.shoot(n, K, tol=PROBE_SHOOT_TOL)
    chengyau.ball_closed_form(n, K, grid=sol.grid)
    chengyau.radial_ode_residual(sol, sol.grid[len(sol.grid) // 2])
    chengyau.boundary_limit_estimate(sol)


def _frames_segment(seed: int):
    catalog(seed, Gate(), points=1, table={})


#: workload -> (one pass, set-up probe segments)
WORKLOADS = {
    "curvature": (_suites_pass(CURVATURE), _suite_segments(CURVATURE)),
    "dynamics": (_suites_pass(DYNAMICS),
                 _suite_segments(DYNAMICS) + [_cheng_yau_segment]),
    "catalog": (catalog, [_frames_segment] + _suite_segments(CATALOG_SUITES)),
}
