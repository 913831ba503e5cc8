"""The package's own constraints on its source."""

import ast
import os
import pathlib
import subprocess
import sys
import types

import kelab

#: the one third-party package kelab may import (pyproject's dependencies)
ALLOWED = {"numpy"}
SRC = pathlib.Path(kelab.__file__).resolve().parents[1]


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


def _fresh(code: str, **env) -> str:
    """Standard output of ``code`` run by a fresh interpreter that imports
    kelab from this checkout, with ``OPENBLAS_NUM_THREADS`` removed from
    the environment and then ``env`` set."""
    environ = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
    environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), environ.get("PYTHONPATH")]))
    environ.update(env)
    proc = subprocess.run([sys.executable, "-c", code], env=environ,
                          capture_output=True, text=True, timeout=120,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


#: prints OPENBLAS_NUM_THREADS after ``import kelab`` and the process's
#: thread count, or -1 where /proc/self/status is missing
THREADS = """
import os, kelab
try:
    with open("/proc/self/status") as fh:
        threads = next(int(line.split()[1]) for line in fh
                       if line.startswith("Threads:"))
except OSError:
    threads = -1
print(os.environ.get("OPENBLAS_NUM_THREADS"), threads)
"""


def test_import_defaults_openblas_to_one_thread():
    """kelab is imported before numpy, so OpenBLAS starts no worker thread:
    the metrics here are at most 15 x 15, and the worker only slows the
    import of numpy."""
    value, threads = _fresh(THREADS).split()
    assert value == "1"
    assert threads in ("1", "-1")


def test_user_thread_count_is_kept():
    assert _fresh(THREADS, OPENBLAS_NUM_THREADS="2").split()[0] == "2"


#: prints the SHA-256 of the order-4 frames of each kind's Bergman
#: potential on a seeded 8-point stack
FRAME_HASH = """
import hashlib
import numpy as np
from kelab import domains, hermgeo, sampling
sha = hashlib.sha256()
for d in (domains.type_i(3, 3), domains.type_ii(6)):
    z = sampling.sample_interior(d, np.random.default_rng(5), 8)
    frame = hermgeo.metric_from_potential(domains.bergman_potential(d), z, 4)
    for a in [frame.g, frame.g_inv, frame.log_det_g,
              *(frame.jet.tensors[k] for k in sorted(frame.jet.tensors))]:
        sha.update(np.ascontiguousarray(a).tobytes())
print(sha.hexdigest())
"""


def test_frames_do_not_depend_on_the_thread_count():
    """Order-4 frames on the largest kinds are the same bits on one
    OpenBLAS thread and on two, so reports stay deterministic whatever
    thread count the user sets."""
    one = _fresh(FRAME_HASH, OPENBLAS_NUM_THREADS="1")
    assert one == _fresh(FRAME_HASH, OPENBLAS_NUM_THREADS="2")
