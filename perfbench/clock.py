"""Wall time corrected for the speed of a shared CPU.

On a shared 2-vCPU virtual machine (Python 3.11, OpenBLAS 0.3.31, one
BLAS thread), a process's speed changed by up to 1.7x for seconds at a
time while it ran alone: the same 50 ms task took 44 ms for some seconds
and 76 ms for others, with user time equal to wall time, so the slowdown
is not time stolen from the process but slower execution. Identical jobs
then differed by 25-30% between runs; with this correction, by 2-5%.

``SpeedClock`` runs a fixed reference task from a timer signal every
``INTERVAL`` seconds, on the benchmark's own thread, and records how long
each took. ``seconds(t0, t1)`` turns a ``perf_counter`` interval into the
time the work would have taken at reference speed: the interval's wall
time minus the reference tasks that ran inside it, times the mean speed
``REFERENCE_S / duration`` of the reference tasks that started within
``WINDOW`` seconds of the interval. The samples are evenly spaced, so
over a long interval this integrates the speed over time. The reference
task mixes what the package spends its time on: small LAPACK calls, an
elementwise complex exponential and interpreter-bound loops over small
arrays. It costs about 1.5% of the run.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

INTERVAL = 0.1
WINDOW = 0.5
#: nominal reference-task time; normalized seconds are seconds at this speed
REFERENCE_S = 1e-3


class SpeedClock:
    """Context manager that samples CPU speed while the benchmark runs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((40, 40))
        self._matrix = a @ a.T / 40 + np.eye(40)
        self._vector = rng.standard_normal(40)
        self._curve = rng.standard_normal(81)
        self._phases = -2j * np.pi * np.outer(np.arange(41), np.arange(81)) / 81
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False
        self._previous = None

    def _reference(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        for _ in range(4):
            cho_solve(cho_factor(self._matrix, lower=True), self._vector)
            np.abs(np.exp(self._phases) @ self._curve)
            v = self._vector
            for _ in range(20):
                v = np.abs(v - 0.5 * v.max()) + float(v @ v) * 1e-3
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._reference)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def seconds(self, t0: float, t1: float) -> float:
        """Reference-speed seconds of the work done between t0 and t1."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        own = t1 - t0 - sum(self.durations[lo:hi])
        near = self.durations[bisect.bisect_left(self.starts, t0 - WINDOW):
                              bisect.bisect_right(self.starts, t1 + WINDOW)]
        if not near:
            raise RuntimeError("no reference sample near the interval; "
                               "was the clock running?")
        return own * statistics.fmean(REFERENCE_S / d for d in near)
