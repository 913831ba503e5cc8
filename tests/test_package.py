"""The package's own constraints on its source."""

import ast
import pathlib
import sys

import kelab

#: the one third-party package kelab may import (pyproject's dependencies)
ALLOWED = {"numpy"}


def test_package_imports_only_the_stdlib_and_numpy():
    """Every absolute import in kelab's modules names a standard-library
    module or numpy; another package installed in the environment would
    pass the tests here and fail on an install from pyproject alone."""
    allowed = set(sys.stdlib_module_names) | ALLOWED
    root = pathlib.Path(kelab.__file__).parent
    sources = sorted(root.glob("*.py"))
    assert sources
    stray = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert not stray, stray
