"""Correctness gate: NaN residuals, unechoed keys, headroom."""

import math

import pytest

from kelab.suites import VerificationReport

from gate import CEILING, Gate, decades


def report(residuals, params=None, max_residual=0.0, passed=True):
    return VerificationReport(
        suite="einstein", domain=None,
        params={"seed": 0, "samples": len(residuals), "tol": 1e-3,
                **(params or {})},
        samples=[{"residuals": {"einstein": r}} for r in residuals],
        max_residual=max_residual, passed=passed, runtime_ms=1,
    )


def test_nan_residual_is_a_failed_operation():
    # max(0.0, nan) == 0.0, so such a report claims to pass
    gate = Gate()
    gate.check_report(report([1e-8, math.nan, 2e-8]),
                      {"seed": 0, "samples": 3})
    assert gate.failed == 1
    assert gate.attempted > gate.failed
    assert gate.headroom == -CEILING


def test_infinite_and_above_tolerance_residuals_fail():
    gate = Gate()
    gate.check_report(report([math.inf, 2e-3, 1e-9]), {})
    assert gate.failed == 2


def test_clean_report_passes_with_headroom():
    gate = Gate()
    gate.check_report(report([1e-7, 1e-9], max_residual=1e-7), {"seed": 0})
    assert gate.failed == 0
    assert gate.headroom == pytest.approx(4.0)


def test_unechoed_or_changed_config_key_fails():
    gate = Gate()
    gate.check_report(report([1e-9]), {"domain": {"kind": "ball", "n": 2},
                                       "samples": 1, "seed": 0})
    assert gate.failed == 1  # report.domain is None
    gate = Gate()
    gate.check_report(report([1e-9]), {"shrink": 0.5})
    assert gate.failed == 1


def test_claimed_tolerance_and_pass_flag_are_checked():
    gate = Gate()
    gate.check_report(report([1e-9], params={"tol": 1.0}, passed=False), {})
    assert gate.failed == 2


def test_decades_caps_exact_zero():
    assert decades(0.0, 1e-3) == CEILING
    assert decades(1e-5, 1e-3) == pytest.approx(2.0)
    assert decades(math.nan, 1.0) == -CEILING


def test_headroom_tracking_can_be_paused():
    gate = Gate()
    gate.check("a", 1e-2, 1.0)
    gate.track_headroom = False
    gate.check("b", 0.5, 1.0)
    assert gate.headroom == pytest.approx(2.0)
    assert gate.attempted == 2 and gate.failed == 0
