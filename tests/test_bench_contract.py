"""The names the benchmark's tracer patches must exist in kelab, and
the calls it counts must happen.

``perfbench/tracer.py`` rebinds public functions and methods of kelab to
timing wrappers.  A deletion of one of them breaks traced bench runs;
this test makes it fail here instead.
"""

import importlib
from pathlib import Path

import numpy as np

from kelab import domains, potentials, sampling, suites

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
