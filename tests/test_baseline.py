"""tools/baseline.py: the code-line rule it counts by, and its option
count."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "baseline.py"


def _baseline():
    spec = importlib.util.spec_from_file_location("baseline", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
