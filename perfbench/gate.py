"""Correctness gate that reads reports as a user does, from their JSON.

It does not trust ``report.passed``: every per-sample residual is folded
against the benchmark's own tolerance for its suite, and a non-finite or
above-tolerance value counts as one failed operation.  Every config key
the benchmark sets must be echoed in the report's ``params`` (or, for
``domain``/``domains``, in its ``domain``), because kelab silently
ignores keys it does not know.

``headroom`` is the minimum over the checks it saw of
``log10(tol / residual)`` in decades; an exact-zero residual counts as
``CEILING`` decades.
"""

from __future__ import annotations

import json
import math

CEILING = 16.0

#: default tolerance of each suite; a report claiming another one fails
SUITE_TOL = {
    "einstein": 1e-3,
    "delta-identity": 1e-3,
    "key-equation": 1e-6,
    "constant-length": 1e-8,
    "dbar-defect": 1e-8,
    "flow": 1.0,
    "kai-ohsawa": 1.0,
    "ball-minimality": 1e-9,
    "cheng-yau": 1.0,
    "table1": 0.5,
}


def decades(residual: float, tol: float) -> float:
    """log10(tol / residual), capped at CEILING; -CEILING if not finite."""
    if not math.isfinite(residual):
        return -CEILING
    if residual <= tol * 10.0 ** -CEILING:
        return CEILING
    return max(-CEILING, min(CEILING, math.log10(tol / residual)))


def _echo_matches(value, echoed) -> bool:
    """Equal as JSON values; an int setting may come back as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value == echoed
    return (isinstance(echoed, (int, float)) and not isinstance(echoed, bool)
            and float(echoed) == float(value))


class Gate:
    """Counts attempted and failed checks and tracks the worst headroom."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.headroom = CEILING
        self.track_headroom = True
        self.problems: list[str] = []

    def fail(self, what: str):
        self.attempted += 1
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def check(self, what: str, residual, tol: float) -> bool:
        """One residual against its tolerance; NaN and inf fail."""
        r = float(residual)
        if self.track_headroom:
            self.headroom = min(self.headroom, decades(r, tol))
        if not (math.isfinite(r) and r <= tol):
            self.fail(f"{what}: residual {r!r} vs tol {tol:g}")
            return False
        self.attempted += 1
        return True

    def require(self, what: str, ok: bool) -> bool:
        if not ok:
            self.fail(what)
            return False
        self.attempted += 1
        return True

    def check_report(self, report, config: dict):
        """Fold a VerificationReport, read back from its JSON."""
        data = json.loads(report.to_json())
        suite = data["suite"]
        tol = SUITE_TOL[suite]
        params = data.get("params") or {}
        self.require(f"{suite}: claims tol {params.get('tol')!r}",
                     params.get("tol") == tol)
        for key, value in config.items():
            if key in ("domain", "domains"):
                echoed = data.get("domain")
            elif key in params:
                echoed = params[key]
            else:
                self.fail(f"{suite}: config key {key!r} not echoed")
                continue
            self.require(f"{suite}: {key}={value!r} echoed as {echoed!r}",
                         _echo_matches(value, echoed))
        samples = data.get("samples") or []
        self.require(f"{suite}: no samples", bool(samples))
        for i, sample in enumerate(samples):
            for name, r in (sample.get("residuals") or {}).items():
                self.check(f"{suite}[{i}].{name}", r, tol)
        self.check(f"{suite}.max_residual", data["max_residual"], tol)
        self.require(f"{suite}: report failed", data["pass"] is True)
