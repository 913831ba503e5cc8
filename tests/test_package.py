"""The package's own constraints on its source."""

import ast
import pathlib
import sys
import types

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


def _defined(tree) -> set:
    """The names a module's top-level statements define: functions,
    classes and assignment targets (imports pass names on, so they do not
    count)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def test_relative_imports_take_each_name_from_its_module():
    """Every ``from .module import name`` in kelab names something that
    module defines, so each name has one way in: its own module."""
    root = pathlib.Path(kelab.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(root.glob("*.py"))}
    passed_on = []
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module):
                defined = _defined(trees[node.module])
                passed_on += [f"{stem}: {alias.name} from .{node.module}"
                              for alias in node.names
                              if alias.name not in defined]
    assert not passed_on, passed_on


def test_the_package_binds_its_modules_fd_jet_and_version():
    """The names live at their module paths; the package adds only
    ``fd_jet`` and ``__version__``, and has no ``__all__``."""
    public = {name for name, value in vars(kelab).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == {"fd_jet"}
    assert isinstance(kelab.__version__, str)
    assert not hasattr(kelab, "__all__")
    for name in ("chengyau", "domains", "hermgeo", "jets", "potentials",
                 "sampling", "suites", "vfield"):
        assert isinstance(getattr(kelab, name), types.ModuleType)
