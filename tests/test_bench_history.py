"""The committed ``bench/BENCH_*.json`` files that tools/bench_history.py
writes: their schema, and that every workload they name is one of
``BENCHMARK.json``'s."""

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = {m["name"] for m in BENCHMARK["end_to_end"]}
FILES = sorted((ROOT / "bench").glob("BENCH_*.json"))


def test_there_are_bench_files():
    assert len(FILES) >= 34


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.stem)
def test_bench_file_schema(path):
    record = json.loads(path.read_text())
    assert set(record) == {"pr", "commit", "subject", "seed", "seconds",
                           "code_lines", "options", "runs"}
    assert re.fullmatch(r"[0-9a-f]{40}", record["commit"])
    assert path.name == f"BENCH_{record['pr']}_{record['commit'][:7]}.json"
    modules = record["code_lines"]["modules"]
    assert record["code_lines"]["total"] == sum(modules.values())
    assert record["options"] is None or record["options"] > 0
    seen = []
    for run in record["runs"]:
        assert run["workload"] in WORKLOADS
        seen.append((run["pass"], run["workload"]))
        assert run["command"][:4] == ["python3", "perfbench/run.py",
                                      "--workload", run["workload"]]
        assert run["exit"] == 0
        assert run["info"]["workload"] == run["workload"]
        assert {"nproc", "cpu_model", "python", "numpy"} <= set(run["info"])
        result = run["result"]
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == METRICS
    assert sorted(seen) == sorted((number, workload) for number in (1, 2)
                                  for workload in WORKLOADS)
