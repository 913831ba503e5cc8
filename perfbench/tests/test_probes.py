"""Set-up probes reach every suite, kind and entry point of their workload."""

import pytest

import workloads
from gate import Gate
from tracer import NAME, TAG, Tracer


def reached(run):
    """Span names, plus sampled kinds as ``kind:<label>``, seen in ``run``."""
    tracer = Tracer()
    with tracer:
        run()
    names = {s[NAME] for s in tracer.spans}
    kinds = {f"kind:{s[TAG]['kind']}" for s in tracer.spans
             if s[NAME] == "sampling.sample_interior"}
    return names | kinds


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_probe_reaches_what_a_pass_reaches(workload):
    run_pass, segments = workloads.WORKLOADS[workload]
    gate = Gate()
    in_pass = reached(lambda: run_pass(7, gate))
    assert gate.failed == 0, gate.problems
    in_probe = reached(lambda: [segment(7) for segment in segments])
    # the probe runs cheng-yau's chengyau calls, not the suite itself
    missing = in_pass - in_probe - {"suites.cheng-yau"}
    assert not missing
    if "suites.cheng-yau" in in_pass:
        assert "chengyau.shoot" in in_probe
