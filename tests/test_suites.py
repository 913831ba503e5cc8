"""The suite harness: schemas, the residual fold, strict JSON reports."""

import dataclasses
import functools
import json
import math

import pytest

import kelab
from kelab import chengyau, cli, hermgeo, potentials, suites, vfield
from kelab.domains import (
    InvariantsRecord,
    ball,
    bergman_potential,
    norm_form,
    tripotent,
    type_i,
    type_ii,
    type_iii,
)
from kelab.errors import CertificateError, ConfigError
from kelab.field import BoundaryLog, PotentialField, SquaredNorm
from kelab.suites import SUITES, VerificationReport, run_all, run_suite

#: every suite at a size that runs in about a second (cheng-yau has no size
#: key and runs its default shoot)
MINIMAL = {
    "einstein": {"samples": 1, "domains": [{"kind": "ball", "n": 2}]},
    "delta-identity": {"samples": 1},
    "key-equation": {"samples": 2},
    "constant-length": {"samples": 2},
    "dbar-defect": {"samples": 2},
    "flow": {"horizon": 0.04, "dt": 0.04},
    "kai-ohsawa": {"max_dimension": 1},
    "ball-minimality": {},
    "cheng-yau": {},
    "table1": {},
}


def test_minimal_configs_cover_every_suite():
    assert set(MINIMAL) == set(SUITES)


def _raise_on_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _compact(data):
    """The report layout: one line, sorted keys, strict JSON."""
    return json.dumps(data, sort_keys=True, allow_nan=False)


@pytest.mark.parametrize("name", list(MINIMAL))
def test_suite_folds_and_echoes_every_key(name, tmp_path):
    schema = SUITES[name].schema
    config = {key: default for key, default in schema.items()
              if default is not None}
    config.update(MINIMAL[name])
    config["seed"] = 3
    outputs = {key: tmp_path / f"{key}.csv" for key in schema
               if key.endswith("_csv")}
    config.update({key: str(path) for key, path in outputs.items()})

    report = json.loads(run_suite(name, config).to_json(),
                        parse_constant=_raise_on_constant)
    rows = report["samples"]
    assert rows
    assert report["max_residual"] == max(
        r for row in rows for r in row["residuals"].values())
    assert report["pass"] == (report["max_residual"] <= config["tol"])

    params, domain = report["params"], report["domain"]
    for key, value in config.items():
        if key in outputs:
            assert outputs[key].exists(), key
        elif key in params:
            assert params[key] == value, key
        elif isinstance(domain, dict) and key in domain:
            assert domain[key] == value, key
        else:
            assert domain == value, key


@pytest.mark.parametrize("name", list(MINIMAL))
def test_unknown_key_is_config_error(name):
    with pytest.raises(ConfigError) as err:
        run_suite(name, {**MINIMAL[name], "smaples": 5})
    for key in SUITES[name].schema:
        assert key in str(err.value)


@pytest.mark.parametrize("name, config", [
    ("einstein", {"domain": {"kind": "type1", "p": 2, "q": 3}}),
    ("key-equation", {"smaples": 999, "ricci": 3.0}),
    ("key-equation", {"K": 5.0}),
    ("table1", {"n": 3}),
    ("flow", {"samples": 10}),
])
def test_keys_a_suite_does_not_read_are_rejected(name, config):
    with pytest.raises(ConfigError):
        run_suite(name, config)


def test_bad_values_are_config_errors():
    """Values a suite body cannot take fail as config errors before it
    runs, in ``run_suite`` and in ``run_all``'s up-front check."""
    bad = [
        ("key-equation", {"samples": -1}), ("key-equation", {"ricci": 0.0}),
        ("key-equation", {"n": "two"}), ("key-equation", {"n": True}),
        ("einstein", {"domains": []}),
        ("key-equation", {"n": 0}), ("dbar-defect", {"n": 0}),
        ("cheng-yau", {"n": 0}), ("constant-length", {"n": 0}),
        ("einstein", {"shrink": 0}), ("einstein", {"shrink": 2}),
        ("delta-identity", {"shrink": 1.5}),
        ("flow", {"dt": -1}), ("flow", {"horizon": 20}),
        ("einstein", {"domains": 5}),
        ("einstein", {"domains": [5]}),
        ("einstein", {"domains": [{"kind": "product", "factors": 5}]}),
        ("einstein", {"domains": [{"kind": "product", "factors": [5]}]}),
        ("einstein", {"domains": [{"kind": "ball", "n": None}]}),
        ("key-equation", {"tol": True}), ("einstein", {"shrink": True}),
        # infinite: tol would pass any residual, ricci and dt would fail
        # inside the body with errors that name neither
        ("einstein", {"tol": math.inf}), ("key-equation", {"ricci": math.inf}),
        ("cheng-yau", {"ricci": math.inf}), ("flow", {"dt": math.inf}),
    ]
    for name, config in bad:
        with pytest.raises(ConfigError):
            run_suite(name, config)
        with pytest.raises(ConfigError):
            run_all({"suites": {name: config}})
    # the config, its suites and each suite's entry are objects
    for config in ([1, 2], {"suites": ["table1"]}, {"suites": {"table1": 5}}):
        with pytest.raises(ConfigError, match="object"):
            run_all(config)
    # the top-level seed is neither truncated nor read as 1
    for seed in (2.9, True):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            run_all({"seed": seed})


@pytest.mark.parametrize("name, key", [("flow", "trajectory_csv"),
                                       ("cheng-yau", "solution_csv")])
@pytest.mark.parametrize("value", [2 ** 20, False])
def test_csv_path_keys_take_a_path_or_null(name, key, value):
    """An int would reach ``open`` as a file descriptor."""
    config = {key: value, **MINIMAL[name]}
    with pytest.raises(ConfigError, match=f"{key} must be a path string"):
        run_suite(name, config)
    with pytest.raises(ConfigError, match=f"{key} must be a path string"):
        run_all({"suites": {name: config}})


FRACTIONAL = {
    "n": ("key-equation", {"n": 2.5, "samples": 2}),
    "samples": ("key-equation", {"n": 2, "samples": 2.5}),
    "p": ("einstein", {"samples": 1,
                       "domains": [{"kind": "type1", "p": 2.5, "q": 2}]}),
}


@pytest.mark.parametrize("key", list(FRACTIONAL))
def test_fractional_value_of_an_integer_key_is_config_error(key):
    """Suite keys and domain parameters alike: 2.5 is not truncated."""
    name, config = FRACTIONAL[key]
    with pytest.raises(ConfigError, match=f"{key} must be an integer"):
        run_suite(name, config)


def test_integral_float_of_an_integer_key_is_accepted():
    report = run_suite("key-equation", {"n": 2.0, "samples": 2.0})
    assert report.params["n"] == 2 and type(report.params["n"]) is int
    assert report.params["samples"] == 2
    assert len(report.samples) == 2


def test_constant_length_n_disagreeing_with_domain_is_config_error():
    """constant-length runs on ball(n), which ``n`` names, so it takes no
    ``domain`` key, agreeing with ``n`` or not."""
    for domain_n in (2, 3):
        with pytest.raises(ConfigError, match="does not take 'domain'"):
            run_suite("constant-length",
                      {"domain": {"kind": "ball", "n": domain_n}, "n": 2,
                       "samples": 2})


def test_constant_length_sees_a_scaled_potential_at_a_large_ricci_constant(
        monkeypatch):
    """At K = 1e9 the target (n+1)/K = 3e-9 is below the tolerance 1e-8, so
    only the deviation relative to it sees phi scaled by 1 + 1e-6, whose
    length is the target times 1 + 1e-6."""
    assert run_suite("constant-length", {"ricci": 1e9}).passed
    real = potentials.rescaled_ball_potential
    monkeypatch.setattr(potentials, "rescaled_ball_potential",
                        lambda n, K: real(n, K).scaled(1 + 1e-6))
    report = run_suite("constant-length", {"ricci": 1e9})
    assert not report.passed
    assert report.max_residual == pytest.approx(1e-6, rel=1e-6)


def test_flow_passes_at_a_small_ricci_constant():
    """phi, g and phi_a scale with (n+1)/K = 3e9 at K = 1e-9, and so do
    the length certificate's tolerance and the conservation, pullback and
    tangency thresholds, so the true statement passes there."""
    report = run_suite("flow", {"ricci": 1e-9, "horizon": 0.1})
    assert report.passed and report.max_residual < 1e-3
    assert report.params["thresholds"]["conservation"] == 1e-6 * 3e9


def test_flow_rejects_a_perturbed_potential_at_a_large_ricci_constant(
        monkeypatch):
    """At K = 1e9 the scale (n+1)/K is 3e-9, under the certificate's 1e-8;
    phi + 1e-6 (n+1)/K |z|^2 has a gradient length off by about a relative
    1e-6, and only the scaled tolerance sees it."""
    assert run_suite("flow", {"ricci": 1e9, "horizon": 0.1}).passed
    real = potentials.rescaled_ball_potential

    def perturbed(n, K):
        p = real(n, K)
        return dataclasses.replace(
            p, parts=p.parts + [(1e-6 * (n + 1) / K, SquaredNorm())])

    monkeypatch.setattr(potentials, "rescaled_ball_potential", perturbed)
    with pytest.raises(CertificateError, match="gradient length deviates"):
        run_suite("flow", {"ricci": 1e9, "horizon": 0.1})


def test_constant_length_echoes_the_n_it_used():
    report = run_suite("constant-length", {"n": 3, "samples": 2})
    assert report.params["n"] == 3 and report.domain["n"] == 3
    assert run_suite("constant-length", {"samples": 2}).params["n"] == 2


@pytest.mark.parametrize("argv", [
    ["run", "einstein", "--n", "3"],
    ["run", "table1", "--n", "3"],
])
def test_cli_rejects_keys_the_suite_does_not_take(argv, capsys):
    assert cli.main(argv) == 2
    assert "accepted keys" in capsys.readouterr().err


def test_run_all_writes_the_cheng_yau_solution_beside_its_reports(tmp_path):
    reports, ok = run_all({"suites": {"cheng-yau": {}}}, out_dir=tmp_path)
    assert ok and [r.suite for r in reports] == ["cheng-yau"]
    expected = tmp_path / "expected.csv"
    chengyau.solution_to_csv(chengyau.shoot(2, 3.0), expected)
    assert ((tmp_path / "cheng_yau_solution.csv").read_bytes()
            == expected.read_bytes())


def test_run_all_checks_every_suite_before_running_one(monkeypatch):
    ran = []
    monkeypatch.setattr(suites, "run_suite",
                        lambda name, cfg: ran.append(name))
    config = {"suites": {"table1": {}, "key-equation": {"bogus": 1}}}
    with pytest.raises(ConfigError):
        run_all(config)
    with pytest.raises(ConfigError):
        run_all({"seed": 1, "suits": {}})
    assert ran == []


#: each frame suite, the module and name of the function its rows'
#: residual is read from, and that residual's name in the rows
FRAME_RESIDUALS = [
    ("einstein", hermgeo, "einstein_residual", "einstein"),
    ("delta-identity", hermgeo, "delta_identity_residual", "delta_identity"),
    ("key-equation", hermgeo, "key_equation_residual", "key_equation"),
    ("constant-length", hermgeo, "gradient_length_sq", "length_deviation"),
    ("dbar-defect", vfield, "dbar_defect", "defect"),
]


@pytest.mark.parametrize("name, module, attr, residual", FRAME_RESIDUALS,
                         ids=[case[0] for case in FRAME_RESIDUALS])
def test_nan_report_is_strict_json_and_fails(monkeypatch, name, module, attr,
                                             residual):
    real = getattr(module, attr)

    def one_nan(*args):  # the suite evaluates each sample stack in one call
        out = real(*args)
        out[1] = float("nan")
        return out

    monkeypatch.setattr(module, attr, one_nan)
    report = run_suite(name, {"samples": 3, "seed": 1})
    text = report.to_json()
    data = json.loads(text, parse_constant=_raise_on_constant)
    assert text == _compact(data)
    assert data["pass"] is False
    assert data["max_residual"] == "NaN"
    assert data["samples"][1]["residuals"][residual] == "NaN"
    assert math.isnan(float(data["max_residual"]))


def test_infinities_are_written_as_strings():
    report = VerificationReport(
        suite="key-equation", domain=None, params={"tol": 1e-6},
        samples=[{"residuals": {"a": float("inf"), "b": -float("inf"),
                                "c": 1.5}}],
        max_residual=float("inf"), passed=False, runtime_ms=0)
    text = report.to_json()
    data = json.loads(text, parse_constant=_raise_on_constant)
    assert text == _compact(data)
    assert data["samples"][0]["residuals"] == {
        "a": "Infinity", "b": "-Infinity", "c": 1.5}
    assert float(data["max_residual"]) == float("inf")


@pytest.mark.parametrize("name", list(SUITES))
def test_operations_name_kelab_attributes(name):
    for op in SUITES[name].operations:
        functools.reduce(getattr, op.split("."), kelab)


def test_table1_fails_when_ball_is_not_type1_1n(monkeypatch):
    real = suites.type_i

    def off_by_one(p, q):
        d = real(p, q)
        if d.label == "type1(1,5)":
            return dataclasses.replace(d, b=d.b + 1)
        return d

    monkeypatch.setattr(suites, "type_i", off_by_one)
    report = run_suite("table1", {})
    assert report.passed is False
    assert report.max_residual == 1.0
    assert report.params["ball_is_type1_1n"] is False
    *table, coincidence = report.samples
    assert coincidence == {"kind": "ball(n) = type1(1,n)",
                           "residuals": {"mismatch": 1.0}}
    assert all(row["residuals"]["mismatch"] == 0.0 for row in table)


def test_table1_fails_when_a_multiplicity_is_off_by_one(monkeypatch):
    """type4(m) with a = m - 1 derives n = m + 1, which its m coordinates
    do not match."""
    real = suites.type_iv
    monkeypatch.setattr(suites, "type_iv", lambda m: dataclasses.replace(
        real(m), a=real(m).a + 1))
    report = run_suite("table1", {})
    assert report.passed is False
    wrong = {row["kind"]: row for row in report.samples
             if row["residuals"]["mismatch"] == 1.0}
    assert sorted(wrong) == ["type4(3)", "type4(6)"]
    assert all(row["matches"] is False and row["bound_ok"] is True
               for row in wrong.values())


def test_a_rank_two_record_with_gap_zero_fails_both_suites(monkeypatch):
    tight = InvariantsRecord("rank-2-tight", rank=2, a=-1, b=7)
    monkeypatch.setattr(suites, "EXCEPTIONAL_INVARIANTS",
                        suites.EXCEPTIONAL_INVARIANTS + (tight,))
    table1 = run_suite("table1", {})
    row = next(r for r in table1.samples if r["kind"] == "rank-2-tight")
    assert row["matches"] is True and row["bound_ok"] is False
    assert table1.passed is False
    minimality = run_suite("ball-minimality", {})
    row = next(r for r in minimality.samples if r["kind"] == "rank-2-tight")
    assert row["strict"] is False
    assert row["residuals"] == {"classification": 1.0}
    assert minimality.passed is False


def test_ball_minimality_reads_every_rank_one_kind_as_a_ball(monkeypatch):
    """type2(3), type3(1) and type1(1,45) are balls: rank 1, rc = n+1."""
    real = potentials.ball_minimality_report

    def with_more_balls(entries, K=1.0):
        extra = [type_ii(3), type_iii(1), type_i(1, 45)]
        return real(list(entries) + extra, K=K)

    monkeypatch.setattr(potentials, "ball_minimality_report", with_more_balls)
    report = run_suite("ball-minimality", {})
    kinds = {row["kind"] for row in report.samples}
    assert {"type2(3)", "type3(1)", "type1(1,45)"} <= kinds
    assert report.passed is True
    assert report.max_residual == 0.0


def test_ball_minimality_fails_a_rank_two_equality(monkeypatch):
    """rank*c = n+1 at rank 2 is not strict, so its row reads 1.0: a = -1
    gives gap (r-1)(2 + a r)/2 = 0, with n 15 and c 8."""
    real = potentials.ball_minimality_report
    tight = InvariantsRecord("rank-2-tight", rank=2, a=-1, b=7)
    assert (tight.n, tight.c, tight.rc, tight.gap) == (15, 8.0, 16.0, 0)

    def with_tight(entries, K=1.0):
        return real(list(entries) + [tight], K=K)

    monkeypatch.setattr(potentials, "ball_minimality_report", with_tight)
    report = run_suite("ball-minimality", {})
    row = report.samples[-1]
    assert row["kind"] == "rank-2-tight" and row["strict"] is False
    assert row["residuals"] == {"classification": 1.0}
    assert report.max_residual == 1.0
    assert report.passed is False


def test_kai_ohsawa_reads_the_potential_it_measures(monkeypatch):
    """The pullback under the other Cayley map, with log|N(z, +e)|^2 =
    log|1 - z^a|^2, also has a constant gradient length, but its slice
    derivative is -c."""

    def other_cayley(d):
        parts = bergman_potential(d).parts + [
            (d.c, BoundaryLog(norm_form(d), tripotent(d)))]
        return PotentialField(domain=d, ricci_constant=1.0, parts=parts,
                              label=f"other-cayley[{d.label}]")

    monkeypatch.setattr(potentials, "kai_ohsawa_potential", other_cayley)
    assert potentials.kai_ohsawa_constant(ball(2)) == pytest.approx(
        3.0, abs=1e-10)
    report = run_suite("kai-ohsawa", {"max_dimension": 2})
    assert report.passed is False
    row = next(r for r in report.samples if r["domain"] == "ball(2)")
    assert row["residuals"]["length_vs_expected"] <= 1.0
    assert row["residuals"]["slice_derivative"] * 1e-8 == pytest.approx(6.0)


@pytest.mark.parametrize("name", ["einstein", "delta-identity", "key-equation",
                                  "constant-length", "dbar-defect"])
def test_frame_count_does_not_grow_with_samples(name, monkeypatch):
    """Each of these suites builds its frames once per sample stack."""
    real = hermgeo.metric_from_potential
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(hermgeo, "metric_from_potential", spy)
    counts = []
    for samples in (2, 20):
        calls.clear()
        assert run_suite(name, {"samples": samples}).passed
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
