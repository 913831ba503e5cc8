"""Measure the benchmark at every first-parent commit with its own ``src``.

For each first-parent commit from ``FIRST`` (the commit that defined the
benchmark) to HEAD whose ``src`` tree differs from its parent's, the
tool exports the commit with ``git archive`` into a temporary directory,
checks that its ``perfbench`` tree is HEAD's (so every commit is
measured by one definition), and runs that checkout's

    python3 perfbench/run.py --workload W --seed SEED --seconds S --trace 0

for each workload of ``BENCHMARK.json``.  The commit list runs twice,
the second pass in reverse order, so the host's drift shows as the
spread between the two passes.  Then it writes one
``BENCH_<pr>_<sha7>.json`` per commit into ``bench/``: both passes'
metrics and gate counts, the machine facts that ``run.py`` prints, the
command lines, and the checkout's code lines and options as HEAD's
``tools/baseline.py`` counts them (options None where that checkout's
kelab lacks what ``baseline.count_options`` reads).  A commit whose file
already exists is skipped, so a later run measures only new commits.

``<pr>`` is the number in a subject that starts ``PR <n>:`` or holds
``re-anchor @ PR <n>``; any other commit that changes ``src`` takes the
number after the last one.  The numbers are one host's, measured with
its speed at the time; compare files written by one run.

    python tools/bench_history.py                 # --seconds 3 --seed 7
    python tools/bench_history.py --seconds 5 --seed 7

Standard library only; the workloads import numpy and each checkout's
kelab.
"""

from __future__ import annotations

import argparse
import io
import json
import pathlib
import re
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT = ROOT / "bench"
#: the commit that defined the benchmark; perfbench is unchanged since
FIRST = "046d5db"
_LABEL = re.compile(r"^PR (\d+):|re-anchor @ PR (\d+)")


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def commits() -> list:
    """(pr, sha, subject) of each first-parent commit from FIRST whose
    ``src`` tree differs from its parent's, oldest first."""
    out, last, previous = [], 0, None
    for line in git("log", "--first-parent", "--reverse", "--format=%H %s",
                    f"{FIRST}^..HEAD").splitlines():
        sha, subject = line.split(" ", 1)
        tree = git("rev-parse", f"{sha}:src")
        label = _LABEL.search(subject)
        if label:
            last = int(label.group(1) or label.group(2))
        elif tree != previous:
            last += 1
        if tree != previous:
            out.append((last, sha, subject))
        previous = tree
    return out


def bench_path(pr: int, sha: str) -> pathlib.Path:
    return OUT / f"BENCH_{pr}_{sha[:7]}.json"


def export(sha: str, dest: pathlib.Path) -> None:
    """The commit's files under ``dest``, through ``git archive``."""
    data = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def run_workload(checkout: pathlib.Path, workload: str, seed: int,
                 seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its command, exit code, info line and
    result line (None where it printed none)."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", f"{seconds:g}",
               "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"] if len(lines) > 1 else None
    result = json.loads(lines[-1]) if lines else None
    return {"command": ["python3", *command[1:]], "exit": done.returncode,
            "info": info, "result": result}


def checkout_counts(checkout: pathlib.Path) -> dict:
    """The checkout's code lines and options by HEAD's baseline.py."""
    sys.path.insert(0, str(ROOT / "tools"))
    import baseline

    lines = baseline.count_package(checkout / "src" / "kelab")
    probe = ("import json, sys; sys.path[:0] = sys.argv[1:]; "
             "import baseline; print(json.dumps(baseline.count_options()))")
    done = subprocess.run([sys.executable, "-c", probe, str(ROOT / "tools"),
                           str(checkout / "src")], capture_output=True,
                          text=True)
    options = (json.loads(done.stdout)["total"] if done.returncode == 0
               else None)
    return {"code_lines": lines, "options": options}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=3.0)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)

    workloads = [w["name"] for w in
                 json.loads((ROOT / "BENCHMARK.json").read_text())
                 ["workloads"]]
    bench_tree = git("rev-parse", "HEAD:perfbench")
    todo = [c for c in commits() if not bench_path(c[0], c[1]).exists()]
    for _, sha, _ in todo:
        if git("rev-parse", f"{sha}:perfbench") != bench_tree:
            print(f"{sha[:7]}: perfbench differs from HEAD's", file=sys.stderr)
            return 2
    runs = {sha: [] for _, sha, _ in todo}
    with tempfile.TemporaryDirectory() as tmp:
        for number, order in ((1, todo), (2, todo[::-1])):
            for pr, sha, _ in order:
                checkout = pathlib.Path(tmp) / sha
                if not checkout.exists():
                    export(sha, checkout)
                for workload in workloads:
                    run = run_workload(checkout, workload, args.seed,
                                       args.seconds)
                    runs[sha].append({"pass": number, "workload": workload,
                                      **run})
                    wall = (run["result"] or {}).get("metrics", {}).get(
                        "wall_s", {}).get("value")
                    print(f"pass {number} PR {pr} {sha[:7]} {workload}: "
                          f"exit {run['exit']}, wall_s {wall}", flush=True)
        OUT.mkdir(exist_ok=True)
        for pr, sha, subject in todo:
            record = {"pr": pr, "commit": sha, "subject": subject,
                      "seed": args.seed, "seconds": args.seconds,
                      **checkout_counts(pathlib.Path(tmp) / sha),
                      "runs": runs[sha]}
            bench_path(pr, sha).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
