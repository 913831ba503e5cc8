"""tools/baseline.py: the code-line rule it counts by, its option count,
its side-file digests, its frame digests and its dynamics digests."""

import dataclasses
import hashlib
import importlib.util
import itertools
import pathlib

import numpy as np
import pytest

from kelab import chengyau, domains, hermgeo, sampling, suites, vfield

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "baseline.py"


def _baseline():
    spec = importlib.util.spec_from_file_location("baseline", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


SOURCE = '''"""A module docstring
over two lines."""

import math  # a code line with a comment

# a comment-only line
    # an indented comment-only line


class Thing:
    """A class docstring."""

    size = 2

    def area(self):
        """A function docstring,
        over two lines."""
        text = """a string that is not a docstring
        counts as code"""
        return math.pi * self.size ** 2, text


async def wait():
    x = 1
    "a string expression after the first statement is code"
    return x
'''


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    """Code lines: the import, the class line, size, def, the two lines
    of the non-docstring string, return; async def, x, the late string,
    return: 11 of the 26 lines."""
    path = tmp_path / "small.py"
    path.write_text(SOURCE)
    baseline = _baseline()
    assert baseline.code_lines(SOURCE) == 11
    assert baseline.count_package(tmp_path) == {"modules": {"small.py": 11},
                                                "total": 11}


def test_options_total_is_the_sum_of_suite_keys_and_command_flags():
    options = _baseline().count_options()
    assert options["total"] == (
        sum(len(keys) for keys in options["suites"].values())
        + sum(len(flags) for flags in options["commands"].values()))
    assert options["suites"]["constant-length"] == ["n", "ricci", "samples",
                                                    "seed", "tol"]
    assert "-h" not in options["commands"]["run"]


def test_side_file_digests_hash_the_files_run_all_writes(monkeypatch,
                                                          tmp_path):
    """The digests are those of the files ``run_all`` writes at seed 0.
    Kept cheap: flow's horizon is cut to 0.05 here, and each digest is
    checked against the file its suite writes on its own."""
    real = suites.run_all

    def short_flow(config, out_dir):
        return real({**config, "suites": {**config["suites"],
                                          "flow": {"horizon": 0.05}}},
                    out_dir)

    monkeypatch.setattr(suites, "run_all", short_flow)
    digests = _baseline().side_file_digests()
    flow_csv = tmp_path / "flow.csv"
    suites.run_suite("flow", {"seed": 0, "horizon": 0.05,
                              "trajectory_csv": str(flow_csv)})
    solution_csv = tmp_path / "solution.csv"
    chengyau.solution_to_csv(chengyau.shoot(2, 3.0), solution_csv)
    assert digests == {
        "flow_trajectory.csv": _sha256(flow_csv),
        "cheng_yau_solution.csv": _sha256(solution_csv)}


def test_frame_digests_cover_the_catalog_kinds_and_a_product(monkeypatch):
    """14 kinds, then the rescaled ball potentials at n = 1, 2 and 3, then
    the canonical potential at K = 3 on each of the 14 kinds."""
    baseline = _baseline()
    monkeypatch.setattr(baseline, "frame_digest", lambda d: d.label)
    monkeypatch.setattr(baseline, "rescaled_ball_digest", lambda n: n)
    monkeypatch.setattr(baseline, "canonical_digest", lambda d: d.label)
    digests = baseline.frame_digests()
    labels = list(digests)
    assert len(labels) == 31 and labels[13] == "ball(1) x type4(3)"
    assert {"type1(3,3)", "type2(6)", "type3(3)", "type4(5)"} <= set(labels)
    assert {label: digests[label] for label in labels[14:17]} == {
        "rescaled-ball[n=1,K=3]": 1, "rescaled-ball[n=2,K=3]": 2,
        "rescaled-ball[n=3,K=3]": 3}
    assert {label: digests[label] for label in labels[17:]} == {
        f"canonical[{kind},K=3]": kind for kind in labels[:14]}


def test_canonical_digest_hashes_its_frames(monkeypatch):
    """The digest repeats, differs per kind, reaches the ``Constant`` part
    and moves when one frame moves by one ulp."""
    baseline = _baseline()
    d = domains.ball(2)
    before = baseline.canonical_digest(d)
    assert baseline.canonical_digest(d) == before
    assert baseline.canonical_digest(domains.type_iv(3)) != before
    real_frame = hermgeo.metric_from_potential
    calls = itertools.count()
    added = []

    def nudged(p, z, order=3):
        added.extend(type(part).__name__ for _, part in p.parts[1:])
        frame = real_frame(p, z, order)
        # the constant's frame at the origin, then the 15 hashed frames:
        # call 6 is the stacked one at order 3
        if next(calls) != 6:
            return frame
        return dataclasses.replace(frame, log_det_g=_one_ulp_up(
            frame.log_det_g))

    monkeypatch.setattr(hermgeo, "metric_from_potential", nudged)
    assert baseline.canonical_digest(d) != before
    assert set(added) == {"Constant"}


def test_rescaled_ball_digest_hashes_its_frames(monkeypatch):
    """The digest repeats, differs per n, and moves when one frame of the
    rescaled ball potential moves by one ulp."""
    baseline = _baseline()
    before = baseline.rescaled_ball_digest(2)
    assert baseline.rescaled_ball_digest(2) == before
    assert baseline.rescaled_ball_digest(1) != before
    real_frame = hermgeo.metric_from_potential
    calls = itertools.count()

    def nudged(p, z, order=3):
        frame = real_frame(p, z, order)
        if next(calls) != 6:  # of the 15 frames: the origin at order 3
            return frame
        return dataclasses.replace(frame, g=_one_ulp_up(frame.g))

    monkeypatch.setattr(hermgeo, "metric_from_potential", nudged)
    assert baseline.rescaled_ball_digest(2) != before


def _one_ulp_up(x):
    """x with one real entry moved to the next float up."""
    x = np.array(x, dtype=np.result_type(x, float))
    flat = x.reshape(-1).view(float)
    flat[1 % flat.size] = np.nextafter(flat[1 % flat.size], np.inf)
    return x if x.ndim else float(x)


@pytest.mark.parametrize("field", ["draw", "g", "g_inv", "log_det_g",
                                   "(2, 1)"])
def test_frame_digest_moves_with_one_ulp_of_one_entry(monkeypatch, field):
    """One entry of one draw or of one frame, one ulp up, changes the
    kind's digest; unchanged, the digest repeats."""
    baseline = _baseline()
    d = domains.ball(2)
    before = baseline.frame_digest(d)
    assert baseline.frame_digest(d) == before
    if field == "draw":
        real_draw = sampling.sample_interior
        monkeypatch.setattr(sampling, "sample_interior", lambda *args: [
            _one_ulp_up(z) if i == 2 else z
            for i, z in enumerate(real_draw(*args))])
    else:
        real_frame = hermgeo.metric_from_potential
        calls = itertools.count()

        def nudged(p, z, order=3):
            frame = real_frame(p, z, order)
            if next(calls) != 11:  # of the 30 frames: the origin at order 4
                return frame
            if field.startswith("("):
                key = (2, 1)
                jet = dataclasses.replace(frame.jet, tensors={
                    **frame.jet.tensors,
                    key: _one_ulp_up(frame.jet.tensors[key])})
                return dataclasses.replace(frame, jet=jet)
            return dataclasses.replace(
                frame, **{field: _one_ulp_up(getattr(frame, field))})

        monkeypatch.setattr(hermgeo, "metric_from_potential", nudged)
    assert baseline.frame_digest(d) != before


def test_dynamics_digests_cover_the_bench_flow_and_four_shoots(monkeypatch):
    """The flow report at the dynamics workload's config at seeds 0-2,
    then shoot at (1, 1), (2, 1), (2, 3) and (3, 4)."""
    baseline = _baseline()
    monkeypatch.setattr(baseline, "report_digest",
                        lambda name, config: (name, config))
    monkeypatch.setattr(baseline, "shoot_digest", lambda n, K: (n, K))
    assert baseline.dynamics_digests() == {
        **{f"flow horizon=1 dt=0.004 seed={seed}": (
            "flow", {"horizon": 1.0, "dt": 4e-3, "seed": seed})
           for seed in (0, 1, 2)},
        "shoot n=1 K=1": (1, 1.0), "shoot n=2 K=1": (2, 1.0),
        "shoot n=2 K=3": (2, 3.0), "shoot n=3 K=4": (3, 4.0)}


@pytest.mark.parametrize("field", ["grid", "phi", "dphi"])
def test_shoot_digest_moves_with_one_ulp_of_one_entry(monkeypatch, field):
    """One entry of the returned grid, phi or phi', one ulp up, changes
    the digest; unchanged, the digest repeats and differs per (n, K)."""
    baseline = _baseline()
    before = baseline.shoot_digest(1, 1.0)
    assert baseline.shoot_digest(1, 1.0) == before
    assert baseline.shoot_digest(2, 1.0) != before
    sol = chengyau.shoot(1, 1.0)
    nudged = dataclasses.replace(sol, **{field: _one_ulp_up(getattr(sol,
                                                                   field))})
    monkeypatch.setattr(chengyau, "shoot", lambda n, K: nudged)
    assert baseline.shoot_digest(1, 1.0) != before


def test_flow_report_digest_moves_with_one_ulp_of_one_residual(monkeypatch):
    """The flow report at the bench's config repeats, differs per seed,
    and moves when the pullback residual moves by one ulp."""
    baseline = _baseline()
    config = {"horizon": 1.0, "dt": 4e-3, "seed": 0}
    before = baseline.report_digest("flow", config)
    assert baseline.report_digest("flow", config) == before
    assert baseline.report_digest("flow", {**config, "seed": 1}) != before
    real_run_flows = vfield.run_flows

    def nudged(*args, **kwargs):
        traj, (pullback, *rest) = real_run_flows(*args, **kwargs)
        return traj, [float(np.nextafter(pullback, np.inf)), *rest]

    monkeypatch.setattr(vfield, "run_flows", nudged)
    assert baseline.report_digest("flow", config) != before
