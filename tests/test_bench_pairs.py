"""tools/bench_pairs.py with a stubbed runner: the order of each pair
alternates, the seeds advance, and a failed run stays in the report."""

import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("bench_pairs")


def _stub_runner(calls, fail=()):
    """A runner that records (side, seed) and returns a result whose
    wall_s is lower on the change; the (side, seed) in ``fail`` print
    nothing and exit 1."""

    def runner(checkout, workload, seed, seconds):
        side = checkout.name
        calls.append((side, workload, seed, seconds))
        if (side, seed) in fail:
            return {"command": [], "exit": 1, "info": None, "result": None}
        wall = 0.1 if side == "change" else 0.2
        metrics = {name: {"value": wall if name == "wall_s" else 1.0}
                   for name in ("wall_s", "setup_s", "peak_rss_mb",
                                "residual_headroom")}
        return {"command": [], "exit": 0, "info": {},
                "result": {"failed": 0, "metrics": metrics}}

    return runner


def test_pairs_alternate_and_seeds_advance(bench_pairs, tmp_path):
    calls = []
    checkouts = {side: tmp_path / side for side in ("parent", "change")}
    pairs = list(bench_pairs.run_pairs(checkouts, "dynamics", 4, 901, 8.0,
                                       runner=_stub_runner(calls)))
    assert [(side, seed) for side, _, seed, _ in calls] == [
        ("parent", 901), ("change", 901), ("change", 902), ("parent", 902),
        ("parent", 903), ("change", 903), ("change", 904), ("parent", 904)]
    assert {(w, s) for _, w, _, s in calls} == {("dynamics", 8.0)}
    assert [p["first"] for p in pairs] == ["parent", "change"] * 2
    assert [p["seed"] for p in pairs] == [901, 902, 903, 904]
    lines = bench_pairs.summary("dynamics", pairs)
    assert "change lower in 4 of 4 pairs" in lines[0]
    assert "parent q1/median/q3 0.2/0.2/0.2" in lines[0]


def test_failed_run_is_reported(bench_pairs, tmp_path):
    calls = []
    checkouts = {side: tmp_path / side for side in ("parent", "change")}
    pairs = list(bench_pairs.run_pairs(
        checkouts, "dynamics", 3, 7, 1.0,
        runner=_stub_runner(calls, fail={("change", 8)})))
    assert len(pairs) == 3 and pairs[1]["change"]["exit"] == 1
    row = bench_pairs.pair_row("dynamics", 1, pairs[1])
    assert "change wall_s - " in row and row.endswith("failed - exit 1")
    assert "parent wall_s 0.2 " in row
    wall = bench_pairs.summary("dynamics", pairs)[0]
    assert "change lower in 2 of 2 pairs" in wall


def test_perfbench_trees_must_match(bench_pairs, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "perfbench_differs", lambda parent: True)
    assert bench_pairs.main(["HEAD"]) == 2
    assert "perfbench differs" in capsys.readouterr().err
