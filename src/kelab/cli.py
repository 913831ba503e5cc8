"""Command-line harness.

    kelab run <suite> [--n N] [--ricci K] [--samples N] [--seed S]
                      [--tol T] [--out PATH]
    kelab run-all [--config PATH] [--out DIR]
    kelab list

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage or
configuration error, including a config key the suite does not take
(``kelab list`` prints each suite's keys).  The environment variable
KELAB_SEED overrides the seed when no --seed is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import KelabError
from .suites import SUITES, run_all, run_suite, summary_dict

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="kelab",
        description="verification suites for Kaehler-Einstein potentials "
                    "on model domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one named suite")
    run.add_argument("suite", choices=sorted(SUITES))
    run.add_argument("--n", type=int)
    run.add_argument("--ricci", type=float, help="Ricci constant K")
    run.add_argument("--samples", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--tol", type=float)
    run.add_argument("--out", type=Path, help="write the JSON report here")

    runall = sub.add_parser("run-all", help="run every suite")
    runall.add_argument("--config", type=Path,
                        help="JSON config {seed, suites: {name: {...}}}")
    runall.add_argument("--out", type=Path, default=Path("reports"),
                        help="directory for per-suite reports (default ./reports)")

    sub.add_parser("list", help="print suites, what they check and their "
                                "config keys")
    return parser


def _cmd_run(args) -> int:
    # KELAB_SEED as given unless --seed is; the suite config checks it
    config = {"seed": os.environ.get("KELAB_SEED") or None}
    for key in ("seed", "samples", "tol", "ricci", "n"):
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    report = run_suite(args.suite, config)
    text = report.to_json()
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
        print(f"[{report.suite}] pass={report.passed} "
              f"max_residual={report.max_residual:.3e} -> {args.out}")
    else:
        print(text)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_run_all(args) -> int:
    config = {}
    if args.config is not None:
        if not args.config.exists():
            raise KelabError(f"config file {args.config} not found")
        try:
            config = json.loads(args.config.read_text())
        except json.JSONDecodeError as exc:
            raise KelabError(f"config file {args.config} is not valid JSON: {exc}")
    env_seed = os.environ.get("KELAB_SEED")
    if env_seed and isinstance(config, dict) and "seed" not in config:
        config["seed"] = env_seed
    out_dir = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    reports, ok = run_all(config, out_dir=out_dir)
    for report in reports:
        path = out_dir / f"{report.suite}.json"
        path.write_text(report.to_json() + "\n")
        status = "pass" if report.passed else "FAIL"
        print(f"[{report.suite:>16}] {status}  max_residual="
              f"{report.max_residual:.3e}  ({report.runtime_ms} ms)")
    summary = summary_dict(reports)
    (out_dir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )
    print(f"summary -> {out_dir / 'summary.json'}")
    if not ok:
        failing = [r.suite for r in reports if not r.passed]
        print(f"failing suites: {', '.join(failing)}", file=sys.stderr)
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_list() -> int:
    for name in sorted(SUITES):
        suite = SUITES[name]
        keys = ", ".join(f"{key}={json.dumps(default)}"
                         for key, default in suite.schema.items())
        print(f"{name:>16}  {suite.checks}")
        print(f"{'':>16}  operations: {', '.join(suite.operations)}")
        print(f"{'':>16}  keys: {keys}")
    return EXIT_PASS


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "run-all":
            return _cmd_run_all(args)
        return _cmd_list()
    except KelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
