"""Print a baseline of a kelab checkout as one JSON object.

Six parts:

* ``code_lines``: the code lines of each module of ``src/kelab`` and
  their total.  A line is code unless it is blank, comment-only, or
  inside a module, class or function docstring (found with ``ast``).
* ``options``: the settable options, each suite's config keys (its
  schema) and each ``kelab`` command's flags (``-h`` left out), and
  their total.
* ``digests``: the SHA-256 of every suite's report at seeds 0, 1 and 2,
  each run at its defaults with ``runtime_ms`` dropped and the JSON
  re-dumped with sorted keys.
* ``side_files``: the SHA-256 of the two files ``run_all`` writes beside
  its reports at seed 0, ``flow_trajectory.csv`` and
  ``cheng_yau_solution.csv``.
* ``frames``: per kind of ``FRAME_KINDS``, the SHA-256 of its seeded
  draws and of the frames that no report need reach: ``sample_interior``
  at seeds 0, 1 and 2, then the order-2, 3 and 4 frames of its kernel
  and Kai-Ohsawa potentials at the origin and the seed-0 draws, one
  stacked call and one call per point (point, g, g_inv, log det and
  every jet tensor).  At the origin many entries are zeros, whose signs
  the digest sees.  Then, per n of ``RESCALED_BALL_DIMENSIONS``, the
  same frames of ``rescaled_ball_potential(n, 3.0)`` on ball(n), whose
  draws are not hashed again; reports reach it only at n = 2.  Last, per
  kind, those of ``canonical_potential(d, 3.0)``: its kernel part scaled
  by 1/3 plus a ``Constant``, so that every part kind is hashed under a
  coefficient other than 1.
* ``dynamics``: the inputs of the benchmark's dynamics workload that no
  default report reaches: the SHA-256 of the ``flow`` report at
  ``FLOW_BENCH`` at seeds 0, 1 and 2, digested as in ``digests``, and of
  the grid, phi and phi' bytes that ``chengyau.shoot`` returns at each
  (n, K) of ``SHOOT_CASES``, whose searches blow up many times.

Run it on two checkouts and diff the output; a refactor that claims the
same reports shows the same digests:

    python tools/baseline.py              # this checkout
    python tools/baseline.py OTHER_REPO   # another checkout's src/kelab

The digests are those of the machine that runs it.  Standard library,
numpy and kelab only.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import pathlib
import sys
import tempfile

SEEDS = (0, 1, 2)
SIDE_FILES = ("flow_trajectory.csv", "cheng_yau_solution.csv")
#: the constructed kinds and one product, as ``domains.from_json`` reads them
FRAME_KINDS = (
    {"kind": "ball", "n": 2}, {"kind": "polydisc", "r": 2},
    {"kind": "polydisc", "r": 3}, {"kind": "type1", "p": 2, "q": 2},
    {"kind": "type1", "p": 2, "q": 3}, {"kind": "type1", "p": 3, "q": 3},
    {"kind": "type2", "m": 4}, {"kind": "type2", "m": 5},
    {"kind": "type2", "m": 6}, {"kind": "type3", "m": 2},
    {"kind": "type3", "m": 3}, {"kind": "type4", "m": 3},
    {"kind": "type4", "m": 5},
    {"kind": "product", "factors": [{"kind": "ball", "n": 1},
                                    {"kind": "type4", "m": 3}]},
)
FRAME_POINTS = 3
RESCALED_BALL_DIMENSIONS = (1, 2, 3)
#: the flow config of the benchmark's dynamics workload
FLOW_BENCH = {"horizon": 1.0, "dt": 4e-3}
SHOOT_CASES = ((1, 1.0), (2, 1.0), (2, 3.0), (3, 4.0))


def code_lines(source: str) -> int:
    """The code lines of one module's ``source``, by the rule above."""
    skip = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skip.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for i, line in enumerate(source.splitlines(), 1)
               if i not in skip and line.strip()
               and not line.strip().startswith("#"))


def count_package(package: pathlib.Path) -> dict:
    modules = {path.name: code_lines(path.read_text())
               for path in sorted(package.glob("*.py"))}
    return {"modules": modules, "total": sum(modules.values())}


def count_options() -> dict:
    from kelab import cli
    from kelab.suites import SUITES

    suites = {name: sorted(SUITES[name].schema) for name in sorted(SUITES)}
    sub = next(action for action in cli._build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    commands = {name: sorted(action.option_strings[-1]
                             for action in parser._actions
                             if action.option_strings
                             and not isinstance(action, argparse._HelpAction))
                for name, parser in sorted(sub.choices.items())}
    total = sum(map(len, suites.values())) + sum(map(len, commands.values()))
    return {"suites": suites, "commands": commands, "total": total}


def report_digest(name: str, config: dict) -> str:
    """The SHA-256 of one suite's report, ``runtime_ms`` dropped and the
    JSON re-dumped with sorted keys."""
    from kelab import suites

    report = json.loads(suites.run_suite(name, config).to_json())
    del report["runtime_ms"]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()
                          ).hexdigest()


def report_digests() -> dict:
    from kelab.suites import SUITES

    return {f"{name} seed={seed}": report_digest(name, {"seed": seed})
            for name in sorted(SUITES) for seed in SEEDS}


def side_file_digests() -> dict:
    """The SHA-256 of each of ``SIDE_FILES`` as ``run_all`` writes them at
    seed 0; only the two suites that write them run."""
    from kelab import suites

    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        suites.run_all({"seed": 0, "suites": {"flow": None,
                                              "cheng-yau": None}}, out)
        return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in SIDE_FILES}


def _draws(d, seed):
    """``sample_interior``'s FRAME_POINTS draws of ``d`` at ``seed``, as an
    array (a checkout whose sampler returns a list of rows included)."""
    import numpy as np
    from kelab import sampling

    return np.asarray(sampling.sample_interior(
        d, np.random.default_rng(seed), FRAME_POINTS))


def _hash_frames(sha, potentials, points) -> None:
    """Feed ``sha`` the order-2, 3 and 4 frames of each potential at the
    origin and ``points``: one stacked call, then one call per point."""
    import numpy as np
    from kelab import hermgeo

    n = points.shape[1]
    zs = np.concatenate([np.zeros((1, n), complex), points])
    for p in potentials:
        for order in (2, 3, 4):
            for z in (zs, *zs):
                frame = hermgeo.metric_from_potential(p, z, order)
                arrays = [frame.point, frame.g, frame.g_inv, frame.log_det_g]
                arrays += [frame.jet.tensors[key]
                           for key in sorted(frame.jet.tensors)]
                for a in arrays:
                    sha.update(np.ascontiguousarray(a).tobytes())


def frame_digest(d) -> str:
    """The SHA-256 of one kind's draws and frames, as ``frames`` says."""
    from kelab import domains, potentials

    sha = hashlib.sha256()
    draws = [_draws(d, seed) for seed in SEEDS]
    for zs in draws:
        sha.update(zs.tobytes())
    _hash_frames(sha, (domains.bergman_potential(d),
                       potentials.kai_ohsawa_potential(d)), draws[0])
    return sha.hexdigest()


def rescaled_ball_digest(n: int) -> str:
    """The SHA-256 of the frames of ``rescaled_ball_potential(n, 3.0)`` at
    the origin and ball(n)'s seed-0 draws."""
    from kelab import potentials

    p = potentials.rescaled_ball_potential(n, 3.0)
    sha = hashlib.sha256()
    _hash_frames(sha, (p,), _draws(p.domain, 0))
    return sha.hexdigest()


def canonical_digest(d) -> str:
    """The SHA-256 of the frames of ``canonical_potential(d, 3.0)`` at the
    origin and the kind's seed-0 draws."""
    from kelab import potentials

    sha = hashlib.sha256()
    _hash_frames(sha, (potentials.canonical_potential(d, 3.0),), _draws(d, 0))
    return sha.hexdigest()


def frame_digests() -> dict:
    """``frame_digest`` of each kind of ``FRAME_KINDS``, by its label, then
    ``rescaled_ball_digest`` of each n of ``RESCALED_BALL_DIMENSIONS`` and
    ``canonical_digest`` of each kind, by the potential's label."""
    from kelab import domains

    kinds = list(map(domains.from_json, FRAME_KINDS))
    out = {d.label: frame_digest(d) for d in kinds}
    for n in RESCALED_BALL_DIMENSIONS:
        out[f"rescaled-ball[n={n},K=3]"] = rescaled_ball_digest(n)
    for d in kinds:
        out[f"canonical[{d.label},K=3]"] = canonical_digest(d)
    return out


def shoot_digest(n: int, K: float) -> str:
    """The SHA-256 of the grid, phi and phi' of ``chengyau.shoot(n, K)``."""
    from kelab import chengyau

    sol = chengyau.shoot(n, K)
    sha = hashlib.sha256()
    for a in (sol.grid, sol.phi, sol.dphi):
        sha.update(a.tobytes())
    return sha.hexdigest()


def dynamics_digests() -> dict:
    """``report_digest`` of ``flow`` at ``FLOW_BENCH`` and each seed, then
    ``shoot_digest`` of each (n, K) of ``SHOOT_CASES``."""
    config = " ".join(f"{key}={value:g}" for key, value in FLOW_BENCH.items())
    out = {f"flow {config} seed={seed}":
           report_digest("flow", {**FLOW_BENCH, "seed": seed})
           for seed in SEEDS}
    for n, K in SHOOT_CASES:
        out[f"shoot n={n} K={K:g}"] = shoot_digest(n, K)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print("usage: baseline.py [REPO]", file=sys.stderr)
        return 2
    repo = pathlib.Path(argv[0] if argv else
                        pathlib.Path(__file__).resolve().parents[1])
    src = repo.resolve() / "src"
    sys.path.insert(0, str(src))
    out = {"code_lines": count_package(src / "kelab"),
           "options": count_options(),
           "digests": report_digests(),
           "side_files": side_file_digests(),
           "frames": frame_digests(),
           "dynamics": dynamics_digests()}
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
