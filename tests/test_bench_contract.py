"""The names the benchmark's tracer patches must exist in kelab.

``perfbench/tracer.py`` rebinds public functions and methods of kelab to
timing wrappers.  A deletion of one of them breaks traced bench runs;
this test makes it fail here instead.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_patch(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install()
    patches = list(tracer._patches)
    try:
        assert patches
        for owner, attr, original in patches:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    assert tracer._patches == []
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, (owner, attr)
