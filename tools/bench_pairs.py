"""Measure a change against its parent commit in alternating pairs.

    python tools/bench_pairs.py PARENT                  # every workload
    python tools/bench_pairs.py PARENT --workload dynamics --pairs 10 \\
        --seconds 8 --seed 901

The tool exports ``PARENT`` with ``bench_history.export`` and runs
``bench_history.run_workload`` (``perfbench/run.py --trace 0``) on that
export and on the working tree, one pair of runs per seed.  Pair i runs
at seed ``SEED + i``; the parent runs first in even pairs and the change
first in odd ones, so the host's drift falls on both sides alike.

It prints one row per pair: for each side the four end-to-end metrics,
``failed`` and the exit code (a run that printed no result shows ``-``
and is kept).  Then, per workload and metric, the q1, median and q3 of
each side and the number of pairs in which the change was lower.  It
exits with 2 when the two ``perfbench`` trees differ, since the pairs
would then measure two definitions.  Standard library only; the
workloads import numpy and each checkout's kelab.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

from bench_history import ROOT, export, run_workload

METRICS = ("wall_s", "setup_s", "peak_rss_mb", "residual_headroom")
SIDES = ("parent", "change")


def perfbench_differs(parent: str) -> bool:
    """Whether the working tree's ``perfbench`` differs from PARENT's,
    untracked files included."""
    diff = subprocess.run(["git", "diff", "--quiet", parent, "--",
                           "perfbench"], cwd=ROOT)
    untracked = subprocess.run(["git", "ls-files", "--others",
                                "--exclude-standard", "perfbench"], cwd=ROOT,
                               check=True, capture_output=True, text=True)
    return diff.returncode != 0 or bool(untracked.stdout.strip())


def metric(run: dict, name: str):
    """A run's value of one metric, None where it printed no result."""
    result = run["result"] or {}
    return result.get("metrics", {}).get(name, {}).get("value")


def run_pairs(checkouts: dict, workload: str, pairs: int, seed: int,
              seconds: float, runner=run_workload):
    """Yield ``pairs`` pairs of runs of ``workload`` on ``checkouts``,
    {side: directory}: pair i at seed ``seed + i``, the parent first when
    i is even.  Each pair is {"seed", "first", side: the runner's
    record}."""
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed + i, "first": order[0]}
        for side in order:
            pair[side] = runner(checkouts[side], workload, seed + i, seconds)
        yield pair


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def pair_row(workload: str, i: int, pair: dict) -> str:
    """Pair i's row: each side's metrics, ``failed`` and exit code."""
    cells = [f"{workload} pair {i + 1} seed {pair['seed']} "
             f"{pair['first']}-first"]
    for side in SIDES:
        run = pair[side]
        failed = (run["result"] or {}).get("failed")
        cells.append(f"{side} " + " ".join(
            f"{name} {_fmt(metric(run, name))}" for name in METRICS)
            + f" failed {'-' if failed is None else failed}"
            f" exit {run['exit']}")
    return " | ".join(cells)


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return values * 3 or [None] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summary(workload: str, pairs: list) -> list:
    """Per metric: q1/median/q3 of each side over the runs that gave it,
    and in how many pairs with both values the change was lower."""
    lines = []
    for name in METRICS:
        values = {side: [metric(p[side], name) for p in pairs]
                  for side in SIDES}
        both = [(a, b) for a, b in zip(values["parent"], values["change"])
                if a is not None and b is not None]
        cells = [f"{side} q1/median/q3 " + "/".join(map(_fmt, _quartiles(
            [v for v in values[side] if v is not None]))) for side in SIDES]
        lower = sum(b < a for a, b in both)
        lines.append(f"{workload} {name}: " + " | ".join(cells)
                     + f" | change lower in {lower} of {len(both)} pairs")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="the commit to compare the tree with")
    ap.add_argument("--workload", action="append",
                    help="a workload of BENCHMARK.json (repeatable; "
                         "default every one)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--seed", type=int, default=901)
    args = ap.parse_args(argv)

    if perfbench_differs(args.parent):
        print(f"perfbench differs between {args.parent} and the working "
              f"tree", file=sys.stderr)
        return 2
    workloads = args.workload or [
        w["name"] for w in
        json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    with tempfile.TemporaryDirectory() as tmp:
        parent = pathlib.Path(tmp) / "parent"
        export(args.parent, parent)
        for workload in workloads:
            pairs = []
            for pair in run_pairs({"parent": parent, "change": ROOT},
                                  workload, args.pairs, args.seed,
                                  args.seconds):
                print(pair_row(workload, len(pairs), pair), flush=True)
                pairs.append(pair)
            print("\n".join(summary(workload, pairs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
