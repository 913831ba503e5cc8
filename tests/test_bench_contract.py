"""The names the benchmark's tracer patches must exist in kelab, and
the calls it counts must happen.

``perfbench/tracer.py`` rebinds public functions and methods of kelab to
timing wrappers.  A deletion of one of them breaks traced bench runs;
this test makes it fail here instead.
"""

import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import kelab
from kelab import chengyau, domains, potentials, sampling, suites, vfield

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_patch(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install()
    patches = list(tracer._patches)
    try:
        assert patches
        for owner, attr, original in patches:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    assert tracer._patches == []
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, (owner, attr)


def test_package_fd_jet_is_the_jets_one():
    """perfbench's tracer test checks that patching ``jets.fd_jet`` also
    rebinds ``kelab.fd_jet``, the one name the package binds besides its
    modules; it is the same function."""
    assert kelab.fd_jet is kelab.jets.fd_jet


def test_tracer_rebinds_the_suites_sampler_alias(monkeypatch):
    """The frame suites draw their stacks through ``suites.sample_interior``
    (``suites._stack``), so the bench's sampler spans see them only if the
    tracer rebinds that alias as well as ``sampling.sample_interior``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_module = importlib.import_module("tracer")
    tracer = tracer_module.Tracer()
    original = suites.sample_interior
    tracer.install()
    try:
        assert (suites, "sample_interior", original) in tracer._patches
        assert suites.sample_interior is sampling.sample_interior
        assert suites.sample_interior is not original
        suites.run_suite("key-equation", {"samples": 2})
    finally:
        tracer.uninstall()
    assert suites.sample_interior is original
    tags = [span[tracer_module.TAG] for span in tracer.spans
            if span[tracer_module.NAME] == "sampling.sample_interior"]
    assert tags == [{"kind": "ball(2)", "accepted": 2}]


def test_sampler_checks_its_points_in_one_call(monkeypatch):
    """``sample_interior`` checks its returned points with one
    ``DomainModel.contains`` call on their (count, n) stack."""
    real, calls = domains.DomainModel.contains, []

    def spy(self, z):
        calls.append(np.array(z))
        return real(self, z)

    monkeypatch.setattr(domains.DomainModel, "contains", spy)
    for d, count in ((domains.type_i(2, 3), 16), (domains.ball(2), 7),
                     (domains.product(domains.polydisc(1),
                                      domains.type_iv(3)), 5)):
        calls.clear()
        points = sampling.sample_interior(d, np.random.default_rng(1), count)
        assert len(points) == count
        assert [c.shape for c in calls] == [(count, d.n)]
        assert np.array_equal(calls[0],
                              np.array(points) / sampling.DEFAULT_SHRINK)


def test_kai_ohsawa_certifies_once_per_domain(monkeypatch):
    """The bench times ``potentials.kai_ohsawa_constant`` and
    ``certify_constant_length`` spans: one of each per kai-ohsawa domain."""
    calls = []
    for attr in ("kai_ohsawa_constant", "certify_constant_length"):
        real = getattr(potentials, attr)

        def spy(*args, _real=real, _attr=attr, **kwargs):
            calls.append((_attr, args[0]))
            return _real(*args, **kwargs)

        monkeypatch.setattr(potentials, attr, spy)
    report = suites.run_suite("kai-ohsawa", {})
    labels = [row["domain"] for row in report.samples]
    assert len(labels) == 6
    assert [(a, getattr(x, "label", None)) for a, x in calls] == [
        pair for label in labels
        for pair in (("kai_ohsawa_constant", label),
                     ("certify_constant_length",
                      f"siegel-pullback[{label}]"))]


def test_dynamics_work_counts(monkeypatch):
    """The dynamics workload's work as counts, so that an extra frame or
    RK4 step fails here and not only in the bench: the flow suite at the
    bench's config builds 265 stacked frames, and shoot at (n, K) = (2, 3)
    classifies 8 candidates in 19,632 search steps (the runs that record
    nothing, counted from each run's blow-up or end tau)."""
    real_velocity, frames = vfield._velocity, []

    def velocity_spy(p, z, re_v):
        frames.append(None)
        return real_velocity(p, z, re_v)

    monkeypatch.setattr(vfield, "_velocity", velocity_spy)
    suites.run_suite("flow", {"horizon": 1.0, "dt": 4e-3, "seed": 3})
    assert len(frames) == 265

    real_integrate, runs = chengyau._integrate, []

    def integrate_spy(n, K, phi0, tau_end, watch=math.inf, record=None):
        result = real_integrate(n, K, phi0, tau_end, watch, record)
        if record is None:
            blow_up, (tau, _, _), _ = result
            start = -math.log1p(-chengyau._SERIES_START)
            stop = tau if blow_up is None else blow_up
            runs.append(round((stop - start) / chengyau._SEARCH_DTAU))
        return result

    monkeypatch.setattr(chengyau, "_integrate", integrate_spy)
    chengyau.shoot(2, 3.0)
    assert len(runs) == 8
    assert sum(runs) == 19_632


def test_bench_suites_exist_with_the_gates_tolerance(monkeypatch):
    """Every suite the benchmark's workloads name is in ``SUITES``, and
    the gate's tolerance for it is the suite's own, so a suite rename or
    merge fails here instead of in a bench run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    gate = importlib.import_module("gate")
    names = {name for table in (workloads.CURVATURE, workloads.DYNAMICS,
                                workloads.CATALOG_SUITES, workloads.MINIMAL)
             for name in table}
    assert names
    for name in sorted(names):
        assert name in suites.SUITES, name
        assert gate.SUITE_TOL[name] == suites.SUITES[name].tol, name


def test_bench_imports_numpy_with_one_blas_thread():
    """``perfbench/run.py`` imports numpy first through ``load_kelab()``,
    in its main process and in each ``--probe`` one, so kelab's default of
    one OpenBLAS thread holds there and ``setup_s`` pays for no worker
    thread.  Prints (numpy imported before load_kelab, after, the thread
    variable, the thread count or -1 where /proc/self/status is missing)."""
    code = f"""
import os, sys
sys.path.insert(0, {str(PERFBENCH)!r})
import run
before = "numpy" in sys.modules
run.load_kelab()
try:
    with open("/proc/self/status") as fh:
        threads = next(int(line.split()[1]) for line in fh
                       if line.startswith("Threads:"))
except OSError:
    threads = -1
print(before, "numpy" in sys.modules,
      os.environ.get("OPENBLAS_NUM_THREADS"), threads)
"""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "PYTHONPATH")}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    before, after, value, threads = proc.stdout.split()
    assert (before, after, value) == ("False", "True", "1")
    assert threads in ("1", "-1")
