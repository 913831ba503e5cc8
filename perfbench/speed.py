"""Times in seconds of a reference machine, from a kernel run alongside.

The benchmark runs on shared hosts whose speed swings by up to 1.7x
within a second or two and drifts over minutes, far more than a
regression bound allows, and no amount of repetition inside one run
averages the drift away.  So while a measured stretch of work runs, an interval timer
interrupts it every ``INTERVAL_S`` of wall time and times one call of
``kernel``: a fixed mix of small complex NumPy linear algebra and
interpreter work, the same kind of work as kelab's inner loops, that does
not call kelab.  A stretch that took ``wall`` seconds, of which the
kernel calls inside it took ``k_sum`` over ``n`` calls, is reported as

    (wall - k_sum) * REF_KERNEL_S / (k_sum / n)

the time the work alone would take on a machine where one kernel call
takes ``REF_KERNEL_S``.  A change to kelab moves the work and not the
kernel, so it moves the reported time in full; a slow spell of the host
slows both alike and cancels.  Kernel calls run from a SIGALRM handler,
so they interleave with the work only in the main thread, between
bytecodes; work on other threads would make them wait for the GIL, so
the benchmark times single-threaded work only.
"""

from __future__ import annotations

import json
import math
import re
import signal
import time

import numpy as np

#: wall seconds of one ``kernel()`` call on the reference machine (2-vCPU
#: x86-64 VM, Python 3.11, NumPy 2 on OpenBLAS); reported times are
#: seconds of that machine
REF_KERNEL_S = 0.008
#: wall seconds between kernel calls while a stretch is measured
INTERVAL_S = 0.1

_rng = np.random.default_rng(0)
_M = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_H4 = _M @ _M.conj().T + 4.0 * np.eye(4)
_M = _rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
_H6 = _M @ _M.conj().T + 6.0 * np.eye(6)
_DOC = {"a": [1, 2.5, "x" * 10, {"b": list(range(20))}],
        "c": {"d": [None, True, 3.0] * 5}}
_PAIR = re.compile(r"(\w+)=(\d+\.\d*)")
_TEXT = " ".join(f"k{i}={i}.{i}" for i in range(30))


def kernel() -> float:
    """Fixed work, about 8 ms on the reference machine.

    Half is a tight loop of 4x4 Hermitian updates, eigvalsh, inv and
    einsum; half is broader interpreter and NumPy work (JSON, regular
    expressions, sorting, dicts, 6x6 det/solve/svd).  Either half alone
    tracks the speed swings of kelab's passes less closely than the mix.
    """
    acc = 0.0
    for k in range(125):
        v = _H4[k % 4]
        g = _H4 + np.outer(v, v.conj()) * 1e-3
        acc += np.linalg.eigvalsh(g)[0] + np.linalg.inv(g)[0, 0].real
        acc += np.einsum("ij,j->i", g, v).sum().real
        acc += sum(i * i for i in range(30))
    for k in range(20):
        acc += len(json.loads(json.dumps(_DOC))["a"])
        acc += sum(float(m.group(2)) for m in _PAIR.finditer(_TEXT))
        acc += sorted((i * 7919) % 113 for i in range(60))[10]
        acc += sum(math.sin(i) * math.exp(-i / 30) for i in range(40))
        v = _H6[k % 6]
        g = _H6 + np.outer(v, v.conj()) * 1e-3
        acc += abs(np.linalg.det(g)) + np.linalg.solve(g, v)[0].real
        acc += np.linalg.svd(g, compute_uv=False)[0]
        acc += np.trace(np.einsum("ij,jk->ik", g, g.conj().T)).real
        acc += len("".join({i: str(i) for i in range(30)}.values()))
    return acc


def kernel_call() -> float:
    """Wall seconds of one kernel call, now."""
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


def reference_seconds(wall: float, kernel_s: list) -> float:
    """``wall`` seconds that held kernel calls of ``kernel_s`` seconds
    each, as the work's seconds on the reference machine."""
    k_sum = sum(kernel_s)
    return (wall - k_sum) * REF_KERNEL_S * len(kernel_s) / k_sum


class Stopwatch:
    """Times callables in reference seconds, sampling the kernel as they run.

    Use as a context manager around the measurements; it owns SIGALRM and
    the real-time interval timer while it is active.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self._calls: list[float] = []
        self._old = None

    def _tick(self, signum, frame):
        self._calls.append(kernel_call())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def time(self, fn, *args) -> tuple[float, float]:
        """Call ``fn(*args)``; return its wall seconds and its reference
        seconds.  A call too short to hold a kernel call gets one after it."""
        start = len(self._calls)
        t = time.perf_counter()
        fn(*args)
        wall = time.perf_counter() - t
        calls = self._calls[start:]
        if not calls:
            return wall, wall * REF_KERNEL_S / kernel_call()
        return wall, reference_seconds(wall, calls)
