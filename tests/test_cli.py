"""Command-line harness: exit codes, reports, determinism."""

import json

import pytest

from kelab import cli
from kelab.errors import ConfigError
from kelab.suites import run_suite, summary_dict, SUITES


def test_run_suite_exit_zero(tmp_path, capsys):
    out = tmp_path / "table1.json"
    code = cli.main(["run", "table1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert report["suite"] == "table1"


def _strict(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _one_json_line(text):
    """``text`` is one strict-JSON line in the report layout."""
    assert "\n" not in text.rstrip("\n")
    data = json.loads(text, parse_constant=_strict)
    assert text.rstrip("\n") == json.dumps(data, sort_keys=True,
                                            allow_nan=False)
    return data


def test_run_prints_one_json_line(capsys):
    assert cli.main(["run", "key-equation", "--samples", "3"]) == 0
    report = _one_json_line(capsys.readouterr().out)
    assert report["suite"] == "key-equation"
    assert len(report["samples"]) == 3


def test_run_with_n_flag(tmp_path):
    out = tmp_path / "cl.json"
    code = cli.main([
        "run", "constant-length", "--n", "2",
        "--ricci", "3", "--samples", "25", "--seed", "7",
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["params"]["seed"] == 7
    assert report["params"]["ricci"] == 3.0
    assert len(report["samples"]) == 25
    assert report["max_residual"] <= 1e-8


def test_ball_minimality_passes_at_a_large_ricci_constant(tmp_path):
    """At --ricci 1e13 every rank > 1 row is still strict, so the run
    passes with every rank > 1 residual 0.0."""
    out = tmp_path / "bm.json"
    code = cli.main(["run", "ball-minimality", "--ricci", "1e13",
                     "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True and report["max_residual"] == 0.0
    assert all(row["strict"] for row in report["samples"]
               if row["rank"] > 1)


def test_cheng_yau_at_a_large_ricci_constant_is_a_kelab_error(capsys):
    """At --ricci 1000 the bracket's upper end has K phi(0)/n = 1500, whose
    series start overflows; the run ends in a typed error, exit code 2,
    not in a traceback (exit 1 would read as a failed check)."""
    assert cli.main(["run", "cheng-yau", "--ricci", "1000"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["constant-length", "key-equation"])
def test_relative_residuals_pass_at_a_small_ricci_constant(tmp_path, name):
    """Both residuals are divided by their scale (n+1)/K = 3e9, so the true
    statement passes at --ricci 1e-9 on roundoff-sized residuals."""
    out = tmp_path / "r.json"
    assert cli.main(["run", name, "--ricci", "1e-9", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["max_residual"] <= 1e-12


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as err:
        cli.main(["run", "no-such-suite"])
    assert err.value.code == 2


def test_missing_config_is_usage_error(tmp_path):
    code = cli.main(["run-all", "--config", str(tmp_path / "nope.json")])
    assert code == 2


@pytest.mark.parametrize("args, path", [
    (["run-all", "--out", "F"], "F"),
    (["run", "table1", "--out", "F/x.json"], "F"),
    (["run-all", "--config", "D"], "D"),
], ids=["run-all-out-is-a-file", "run-out-under-a-file", "config-is-a-dir"])
def test_unusable_path_is_usage_error(tmp_path, capsys, args, path):
    """A report path that cannot be written (an existing regular file F
    where a directory must go) or a config path that cannot be read (a
    directory D) exits 2 with one ``error:`` line naming it."""
    (tmp_path / "F").write_text("")
    (tmp_path / "D").mkdir()
    args = [str(tmp_path / a) if a[0] in "FD" else a for a in args]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / path) in err


def test_out_of_range_value_is_usage_error(tmp_path, capsys):
    """Exit 2 (a config error), not 1 (a failed verification); an infinite
    tol would otherwise pass."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"suites": {"flow": {"dt": float("inf")}}}))
    for argv, message in [
        (["run", "key-equation", "--n", "0"], "n must be >= 1"),
        (["run", "einstein", "--tol", "inf"], "tol must be positive and"),
        (["run", "key-equation", "--ricci", "inf"], "ricci must be positive"),
        (["run", "cheng-yau", "--ricci", "inf"], "ricci must be positive"),
        (["run-all", "--config", str(cfg), "--out", str(tmp_path / "r")],
         "dt must be positive and finite"),
    ]:
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err


def test_invalid_tolerance_is_config_error():
    with pytest.raises(ConfigError):
        run_suite("constant-length", {"tol": 0.0, "samples": 5})
    with pytest.raises(ConfigError):
        run_suite("definitely-not-a-suite", {})


def test_run_all_with_config(tmp_path):
    config = {
        "seed": 3,
        "suites": {
            "table1": {},
            "ball-minimality": {},
            "key-equation": {"samples": 10},
        },
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "reports"
    code = cli.main(["run-all", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True
    assert set(summary["suites"]) == {"table1", "ball-minimality",
                                      "key-equation"}
    for name in summary["suites"]:
        report = _one_json_line((out / f"{name}.json").read_text())
        assert report["suite"] == name
        assert summary["suites"][name]["operations"]
    assert (out / "summary.json").read_text() == json.dumps(
        summary, sort_keys=True, indent=2) + "\n"


def test_run_all_rejects_unknown_suite_in_config(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"suites": {"bogus": {}}}))
    code = cli.main(["run-all", "--config", str(cfg), "--out",
                     str(tmp_path / "r")])
    assert code == 2


@pytest.mark.parametrize("config", [[1, 2], {"suites": ["table1"]},
                                    {"suites": {"table1": 5}}])
def test_run_all_rejects_malformed_config(tmp_path, monkeypatch, config):
    """Exit 2, not 1 (a failed verification), with or without KELAB_SEED."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    argv = ["run-all", "--config", str(cfg), "--out", str(tmp_path / "r")]
    assert cli.main(argv) == 2
    monkeypatch.setenv("KELAB_SEED", "3")
    assert cli.main(argv) == 2


def test_run_all_rejects_zero_tolerance_config(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"suites": {"key-equation": {"tol": 0,
                                                           "samples": 5}}}))
    code = cli.main(["run-all", "--config", str(cfg), "--out",
                     str(tmp_path / "r")])
    assert code == 2


#: configs small enough to run every suite twice
SMALL = {
    "einstein": {"samples": 2},
    "delta-identity": {"samples": 3},
    "key-equation": {"samples": 15},
    "constant-length": {"samples": 15},
    "dbar-defect": {"samples": 10},
    "flow": {"horizon": 0.2, "dt": 4e-3},
    "kai-ohsawa": {"max_dimension": 2},
}


@pytest.mark.parametrize("name", list(SUITES))
def test_determinism_modulo_runtime(name):
    """Two runs at one seed write the same report apart from runtime_ms."""
    cfg = {**SMALL.get(name, {}), "seed": 42}
    a = json.loads(run_suite(name, cfg).to_json())
    b = json.loads(run_suite(name, cfg).to_json())
    a.pop("runtime_ms")
    b.pop("runtime_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("KELAB_SEED", "99")
    out = tmp_path / "r.json"
    code = cli.main(["run", "key-equation", "--samples", "5",
                     "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["params"]["seed"] == 99
    # explicit --seed wins over the environment
    code = cli.main(["run", "key-equation", "--samples", "5", "--seed", "1",
                     "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["params"]["seed"] == 1


@pytest.mark.parametrize("value", ["abc", "2.5", "-1"])
def test_non_integer_seed_env_is_usage_error(tmp_path, monkeypatch, capsys,
                                             value):
    """KELAB_SEED goes through the config check, a negative seed too:
    exit 2, no traceback."""
    monkeypatch.setenv("KELAB_SEED", value)
    assert cli.main(["run", "key-equation", "--samples", "2"]) == 2
    assert cli.main(["run-all", "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.count("seed must be") == 2


def test_list_prints_all_suites(capsys):
    assert cli.main(["list"]) == 0
    captured = capsys.readouterr().out
    for name in SUITES:
        assert name in captured


def test_summary_lists_operation_mapping():
    reports = [run_suite("table1", {}), run_suite("ball-minimality", {})]
    summary = summary_dict(reports)
    assert summary["suites"]["table1"]["operations"] == [
        "domains.type_i", "domains.type_ii", "domains.type_iii",
        "domains.type_iv", "domains.ball"]
    assert summary["pass"] is True


def test_verification_failure_exit_code(tmp_path):
    # an unreachable tolerance turns a passing suite into a failing run
    out = tmp_path / "fail.json"
    code = cli.main(["run", "key-equation", "--samples", "5",
                     "--tol", "1e-30", "--out", str(out)])
    assert code == 1
    assert json.loads(out.read_text())["pass"] is False


def test_run_all_names_its_failing_suites(tmp_path, capsys):
    config = {"suites": {"table1": {}, "key-equation": {"samples": 5,
                                                        "tol": 1e-30}}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code = cli.main(["run-all", "--config", str(cfg),
                     "--out", str(tmp_path / "reports")])
    assert code == 1
    assert capsys.readouterr().err == "failing suites: key-equation\n"


def test_nan_residual_fails_suite(monkeypatch):
    """One NaN sample fails the suite: max(0.0, nan) would drop it."""
    from kelab import hermgeo

    real = hermgeo.key_equation_residual
    calls = []

    def one_nan(p, zs):  # the suite evaluates its sample stack in one call
        calls.extend(zs)
        out = real(p, zs)
        out[2] = float("nan")
        return out

    monkeypatch.setattr(hermgeo, "key_equation_residual", one_nan)
    report = run_suite("key-equation", {"samples": 5, "seed": 1})
    assert len(calls) == 5
    assert report.passed is False
    assert report.max_residual != report.max_residual  # NaN
