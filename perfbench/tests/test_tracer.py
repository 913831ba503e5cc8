"""Tracer: self-time arithmetic, alias rebinding, per-thread stacks."""

import json
import threading
from pathlib import Path

import pytest

import kelab
from kelab import field, hermgeo, jets, sampling, suites

import layers
import workloads
from tracer import (END, ID, NAME, PARENT, START, THREAD, Tracer, self_times,
                    summarize)

ROOT = Path(__file__).resolve().parents[2]


def span(sid, parent, name, start, end):
    return [sid, parent, name, 1, start, end, None]


def test_self_time_subtracts_union_of_children():
    spans = [
        span(0, None, "a", 0.0, 10.0),
        span(1, 0, "b", 1.0, 3.0),
        span(2, 0, "c", 2.0, 5.0),  # overlaps b: children cover 1..5
        span(3, 1, "d", 1.5, 2.5),
        span(4, 0, "b", 7.0, 8.0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 5.0, 1: 1.0, 2: 3.0, 3: 1.0, 4: 1.0})
    summary = summarize(spans)
    assert summary["b"] == pytest.approx(
        {"calls": 2, "total_s": 3.0, "self_s": 2.0})
    assert summary["a"]["self_s"] == pytest.approx(5.0)


def test_child_outside_parent_interval_is_clipped():
    spans = [span(0, None, "a", 0.0, 2.0), span(1, 0, "b", 1.0, 4.0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def _descendants(spans, root_name):
    by_parent = {}
    for s in spans:
        by_parent.setdefault(s[PARENT], []).append(s)
    out = []
    todo = [s for s in spans if s[NAME] == root_name]
    while todo:
        s = todo.pop()
        kids = by_parent.get(s[ID], [])
        out += kids
        todo += kids
    return out


def test_aliases_reach_fd_jet_and_frames_under_ricci():
    originals = (jets.fd_jet, hermgeo.fd_jet, field.fd_jet, kelab.fd_jet,
                 suites.sample_interior, sampling.sample_interior)
    tracer = Tracer()
    with tracer:
        assert hermgeo.fd_jet is jets.fd_jet is field.fd_jet is kelab.fd_jet
        assert jets.fd_jet is not originals[0]
        assert suites.sample_interior is sampling.sample_interior
        assert suites.sample_interior is not originals[4]
        report = suites.run_suite("einstein", {"seed": 3, "samples": 1})
    assert report.passed
    restored = (jets.fd_jet, hermgeo.fd_jet, field.fd_jet, kelab.fd_jet,
                suites.sample_interior, sampling.sample_interior)
    assert all(a is b for a, b in zip(restored, originals))

    under = _descendants(tracer.spans, "hermgeo.ricci")
    names = {s[NAME] for s in under}
    assert "jets.fd_jet" in names
    assert "hermgeo.metric_from_potential" in names
    for name in ("jets.fd_jet", "hermgeo.metric_from_potential"):
        assert sum(s[END] - s[START] for s in under if s[NAME] == name) > 0
    assert any(s[NAME] == "suites.einstein" for s in tracer.spans)
    assert any(s[NAME] == "sampling.sample_interior" for s in tracer.spans)


def test_each_thread_keeps_its_own_stack():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def inner():
        barrier.wait(timeout=5)

    traced_inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", traced_inner)
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    by_id = {s[ID]: s for s in tracer.spans}
    inners = [s for s in tracer.spans if s[NAME] == "inner"]
    assert len(inners) == 2
    for s in inners:
        parent = by_id[s[PARENT]]
        assert parent[NAME] == "outer"
        assert parent[THREAD] == s[THREAD]


def test_traced_pass_yields_every_per_layer_metric():
    tracer = Tracer()
    gate = workloads.Gate()
    with tracer:
        workloads.catalog(5, gate, points=1,
                          table={"key-equation": {"samples": 3}})
    assert gate.failed == 0
    metrics = layers.layer_metrics(tracer.spans, [1.0], [1.1])
    assert set(metrics) == {name for name, _, _ in layers.PER_LAYER}
    assert metrics["trace.overhead"]["value"] == pytest.approx(0.1)
    assert metrics["sampling.accepted.type1-2-3"]["value"] == 1
    assert metrics["sampling.draws.type1-2-3"]["value"] >= 1
    assert metrics["hermgeo.metric_from_potential.calls"]["value"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER
    assert layers.SAMPLED_KINDS == tuple(d.label
                                         for d in workloads.CATALOG_KINDS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "setup_s", "peak_rss_mb", "residual_headroom"]
