"""Run one kelab benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload curvature --seed 1 --seconds 25 --trace 0

Workloads: curvature, dynamics, catalog (see workloads.py and
BENCHMARK.json).  kelab is imported from ``src/`` next to this
directory and nowhere else; without it the run exits with code 2.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s``: median time of one warm pass, correctness checks
  included, over at least three passes and ``--seconds`` of work;
* ``setup_s``: median over fresh processes, run before the timed passes,
  of the wall time to import kelab plus the extra cost of cold probe
  segments over warm ones;

  passes and segments are timed in seconds of a reference machine: a
  fixed kernel timed while they run gives this machine's speed at that
  moment (see speed.py);
* ``peak_rss_mb``: peak resident memory of this process;
* ``residual_headroom``: min over the first three passes' checks of
  log10(tol / residual), in decades.

``--trace 1`` alternates untraced and traced passes on the same inputs and
prints the per-layer metrics of the traced ones (per pass), with
``trace.overhead`` = traced / untraced median wall - 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds machine facts and run details.  Both are also written under
``perfbench/out/``, together with the spans of a traced run.  The exit
code is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 3
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120
#: Stopwatch interval while probe segments run
PROBE_INTERVAL_S = 0.05


def load_kelab():
    """Import kelab from ``src/`` beside this directory, or exit with 2."""
    if not (SRC / "kelab" / "__init__.py").is_file():
        sys.stderr.write(f"kelab sources not found under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import kelab

    if Path(kelab.__file__).resolve().parent != (SRC / "kelab").resolve():
        sys.stderr.write(f"imported kelab from {kelab.__file__}, not {SRC}\n")
        raise SystemExit(2)
    return kelab


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass ``index`` of a run; the set-up probe uses index 999."""
    return seed * 1000 + index


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# -- set-up ---------------------------------------------------------------------

def probe_main(workload: str, seed: int):
    """Child process: time the kelab import, then each probe segment twice.

    The import is timed in plain wall seconds: it is mostly loading code
    and starting NumPy's BLAS threads, whose time does not follow the
    speed kernel.  Each segment runs cold and then warm right away, both
    timed by a Stopwatch that samples the kernel more often than in the
    timed passes, as segments are short.
    """
    t0 = time.perf_counter()
    load_kelab()
    import_s = time.perf_counter() - t0
    import speed
    import workloads

    cold_s = warm_s = 0.0
    with speed.Stopwatch(PROBE_INTERVAL_S) as watch:
        for segment in workloads.WORKLOADS[workload][1]:
            times = []
            for _ in range(2):
                gc.collect()
                times.append(watch.time(segment, pass_seed(seed, 999))[1])
            cold_s += times[0]
            warm_s += times[1]
    print(json.dumps({"import_s": import_s, "cold_s": cold_s,
                      "warm_s": warm_s}))


def setup_probe(workload: str, seed: int) -> dict:
    """One set-up measurement in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"set-up probe exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- passes -----------------------------------------------------------------------

def timed_pass(run_pass, seed, gate) -> float:
    gc.collect()
    t = time.perf_counter()
    run_pass(seed, gate)
    return time.perf_counter() - t


def more_time(start, seconds, *times) -> bool:
    """Whether one more pass (or pair) is expected to end within ``seconds``."""
    ahead = sum(statistics.median(t) for t in times)
    return time.perf_counter() - start + ahead <= seconds


def run_untraced(run_pass, seed, seconds, gate):
    """Passes for ``seconds`` and at least MIN_PASSES, timed by a Stopwatch.

    Returns each pass's wall seconds and its reference seconds.
    """
    import speed

    wall, ref = [], []
    start = time.perf_counter()
    with speed.Stopwatch() as watch:
        while len(wall) < MIN_PASSES or more_time(start, seconds, wall):
            gate.track_headroom = len(wall) < MIN_PASSES
            gc.collect()
            w, r = watch.time(run_pass, pass_seed(seed, len(wall)), gate)
            wall.append(w)
            ref.append(r)
    return wall, ref


def run_traced(run_pass, seed, seconds, gate, tracer):
    """Pairs of an untraced and a traced pass on the same inputs."""
    plain, traced = [], []
    start = time.perf_counter()
    while len(traced) < 2 or more_time(start, seconds, plain, traced):
        s = pass_seed(seed, len(traced))
        plain.append(timed_pass(run_pass, s, gate))
        with tracer:
            traced.append(timed_pass(run_pass, s, gate))
    return plain, traced


# -- output -----------------------------------------------------------------------

def machine_facts() -> dict:
    import numpy

    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((SRC / "kelab").glob("*.py")))
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "src_kelab_lines": lines}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="internal: one set-up measurement in this process")
    args = ap.parse_args(argv)

    if args.probe:
        probe_main(args.workload, args.seed)
        return 0

    load_kelab()
    import workloads
    from gate import Gate

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    run_pass, probe = workloads.WORKLOADS[args.workload]
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            **machine_facts()}
    gate = Gate()
    for segment in probe:  # fill lazy caches before timing
        segment(pass_seed(args.seed, 999))
    if args.trace:
        from layers import layer_metrics
        from tracer import Tracer

        tracer = Tracer()
        plain, traced = run_traced(run_pass, args.seed, args.seconds, gate,
                                   tracer)
        metrics = layer_metrics(tracer.spans, plain, traced)
        info.update(untraced_s=plain, traced_s=traced, spans=len(tracer.spans))
        tracer.dump(OUT / f"spans-{args.workload}.jsonl.gz")
    else:
        setup = [setup_probe(args.workload, args.seed)
                 for _ in range(SETUP_REPEATS)]
        times, wall_s = run_untraced(run_pass, args.seed, args.seconds, gate)
        setup_s = [s["import_s"] + s["cold_s"] - s["warm_s"] for s in setup]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        q1, q3 = quartiles(wall_s)
        metrics = {
            "wall_s": metric(statistics.median(wall_s), "s"),
            "setup_s": metric(statistics.median(setup_s), "s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
            "residual_headroom": metric(gate.headroom, "decades"),
        }
        info.update(passes=len(times), pass_s=times, ref_pass_s=wall_s,
                    raw_wall_s=statistics.median(times), wall_s_q1=q1,
                    wall_s_q3=q3, setup_samples=setup)
    info["problems"] = gate.problems
    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
