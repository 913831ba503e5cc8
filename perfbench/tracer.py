"""Outside-in span tracer for kelab.

The tracer rebinds public entry points of kelab's modules to wrappers
that record one span per call: name, parent span, thread, start and end.
Spans are kept in memory and aggregated (and optionally written out) once
the traced work is done.  Nothing in ``src/`` is edited; a wrapper
replaces every module-level alias of the function it wraps (``fd_jet``
is imported by name into ``hermgeo`` and ``field``, ``sample_interior``
into ``suites`` and ``potentials``), so calls through any of them are
seen.

Each thread keeps its own span stack, so suites running on a thread pool
do not adopt each other's spans as parents.  A span's self time is its
duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import os
import sys
import threading
import time

# span record layout: [id, parent id, name, thread id, start, end, tag]
ID, PARENT, NAME, THREAD, START, END, TAG = range(7)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Collects spans from wrapped callables; ``install`` patches kelab."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, name_of=None, tag_of=None):
        """A wrapper around ``fn`` that records one span per call.

        ``name_of(args, kwargs)`` refines the span name per call and
        ``tag_of(args, kwargs, result)`` attaches a tag once it returns.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = [next(tracer._ids), stack[-1][ID] if stack else None,
                    name_of(args, kwargs) if name_of else name,
                    threading.get_ident(), 0.0, 0.0, None]
            tracer.spans.append(span)
            stack.append(span)
            result = None
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if tag_of is not None:
                    span[TAG] = tag_of(args, kwargs, result)

        return functools.wraps(fn)(traced)

    # -- patching ----------------------------------------------------------
    def patch_function(self, module, attr, name, **hooks):
        """Wrap ``module.attr`` and rebind every alias in loaded kelab modules."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "kelab"
                                   or mod_name.startswith("kelab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)
        return wrapper

    def patch_method(self, cls, attr, name, **hooks):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **hooks))

    def install(self):
        """Wrap the public entry points of every kelab layer."""
        from kelab import (chengyau, domains, field, hermgeo, jets, potentials,
                           sampling, suites, vfield)

        def jet_name(args, kwargs):
            return f"field.analytic_jet.o{_arg(args, kwargs, 2, 'order')}"

        def suite_name(args, kwargs):
            return f"suites.{_arg(args, kwargs, 0, 'name')}"

        def sample_tag(args, kwargs, result):
            domain = _arg(args, kwargs, 0, "domain")
            return {"kind": domain.label,
                    "accepted": len(result) if result is not None else 0}

        def steps_tag(args, kwargs, result):
            t = _arg(args, kwargs, 2, "t")
            dt = _arg(args, kwargs, 3, "dt", 1e-3)
            return {"steps": int(round(abs(t) / dt))}

        self.patch_function(jets, "fd_jet", "jets.fd_jet")
        self.patch_method(field.PotentialField, "analytic_jet",
                          "field.analytic_jet", name_of=jet_name)
        self.patch_method(field.PotentialField, "__call__", "field.__call__")
        for attr in ("metric_from_potential", "ricci", "laplacian"):
            self.patch_function(hermgeo, attr, f"hermgeo.{attr}")
        self.patch_function(vfield, "flow_trajectory", "vfield.flow_trajectory",
                            tag_of=steps_tag)
        self.patch_function(vfield, "pullback_metric_deviation",
                            "vfield.pullback_metric_deviation")
        for attr in ("shoot", "radial_ode_residual", "boundary_limit_estimate"):
            self.patch_function(chengyau, attr, f"chengyau.{attr}")
        self.patch_function(sampling, "sample_interior",
                            "sampling.sample_interior", tag_of=sample_tag)
        self.patch_method(domains.DomainModel, "contains", "domains.contains")
        self.patch_function(domains, "bergman_potential",
                            "domains.bergman_potential")
        for attr in ("certify_constant_length", "kai_ohsawa_constant"):
            self.patch_function(potentials, attr, f"potentials.{attr}")
        self.patch_function(suites, "run_suite", "suites.run_suite",
                            name_of=suite_name)
        self.patch_method(suites.VerificationReport, "to_json",
                          "suites.to_json")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------
    def dump(self, path):
        """Write every span as one JSON array per line (gzip)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def self_times(spans) -> dict:
    """Map span id -> self time: duration minus the union of its children."""
    children: dict = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span[START]
        for start, end in sorted(children.get(span[ID], ())):
            start = max(start, cursor)
            end = min(end, span[END])
            if end > start:
                covered += end - start
                cursor = end
        out[span[ID]] = (span[END] - span[START]) - covered
    return out


def summarize(spans) -> dict:
    """Per-name totals: {name: {"calls", "total_s", "self_s"}}."""
    selfs = self_times(spans)
    out: dict = {}
    for span in spans:
        row = out.setdefault(span[NAME], {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span[END] - span[START]
        row["self_s"] += selfs[span[ID]]
    return out
