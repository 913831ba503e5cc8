"""Stopwatch: reference-second arithmetic, kernel sampling, timer clean-up."""

import signal
import time

import pytest

import speed


def test_reference_seconds_drops_kernel_time_and_rescales():
    # 1 s of wall held two 0.02 s kernel calls: 0.96 s of work on a machine
    # running the kernel at twice the reference time
    assert speed.reference_seconds(1.0, [0.02, 0.02]) == pytest.approx(
        0.96 * speed.REF_KERNEL_S / 0.02)


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_stopwatch_samples_the_kernel_while_work_runs_and_cleans_up():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Stopwatch() as watch:
        wall, ref = watch.time(busy, 6 * speed.INTERVAL_S)
        calls = len(watch._calls)
    assert wall >= 6 * speed.INTERVAL_S
    assert calls >= 3
    assert 0 < ref
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_stopwatch_times_a_call_too_short_for_a_tick():
    with speed.Stopwatch() as watch:
        wall, ref = watch.time(lambda: None)
    assert wall >= 0 and ref >= 0
