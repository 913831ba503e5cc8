"""tools/baseline.py: the code-line rule it counts by, its option count
and its side-file digests."""

import hashlib
import importlib.util
import pathlib

from kelab import chengyau, suites

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
