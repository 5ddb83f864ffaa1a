"""Reference-speed timing: wall times rescaled to a fixed machine speed.

The benchmark runs on a few cores of a shared host whose speed drifts
between about 1x and 2x, over seconds and over minutes, with the same
instructions (process CPU time drifts with wall time, so it is not
descheduling).  A wall time therefore measures the host as much as pyrcnn,
and runs of the same code spread by more than any useful bound.

``SpeedMeter.time`` runs a timed call and, every ``PERIOD_S`` while it runs
(from a SIGALRM handler, so the samples cover the whole call), times a fixed
reference kernel of the benchmark's own: numpy + Python work of the kinds
pyrcnn's hot paths do (small im2col convolutions, a 76-edge one with its
weight-gradient product, a per-pair distance loop).  It also times the
kernel once before and once after the call.  The kernel's own time is taken out of the call's wall time, and the
rest is rescaled by ``REF_S / kernel time``, averaged over the samples:

    reference seconds = (wall - kernel time) * mean(REF_S / kernel_i)

that is, how long the call would take on a machine where the kernel takes
``REF_S``.  The kernel is fixed benchmark code, so a change to pyrcnn moves
the call's time and not the kernel's.  Raw wall times are kept alongside in
the result file.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

REF_S = 0.007      # reference speed: the kernel takes this long
PERIOD_S = 0.1     # one kernel sample per this much wall time (~5% of a call)

_clock = time.perf_counter


class _Kernel:
    """The fixed reference work, 5-10 ms on one core of a 2 GHz Xeon."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.uniform(0.0, 1.0, (16, 16, 8))
        self.w_small = rng.uniform(-1.0, 1.0, (200, 8))
        self.big = rng.uniform(0.0, 1.0, (76, 76))
        self.w_big = rng.uniform(-1.0, 1.0, (25, 8))
        self.vectors = rng.uniform(0.0, 1.0, (64, 8))

    def __call__(self) -> float:
        acc = 0.0
        for _ in range(24):
            col = sliding_window_view(self.small, (5, 5), axis=(0, 1))
            col = col.transpose(0, 1, 3, 4, 2).reshape(144, -1)
            acc += float(np.maximum(col @ self.w_small, 0.0).sum())
        for _ in range(2):
            col = sliding_window_view(self.big, (5, 5)).reshape(72 * 72, 25)
            out = np.maximum(col @ self.w_big, 0.0)
            acc += float((col.T @ out).max())     # a weight gradient's shape
        v = self.vectors
        for i in range(240):
            acc += float(np.sqrt(np.sum((v[i % 64] - v[(7 * i) % 64]) ** 2)))
        return acc


class SpeedMeter:
    """Times calls in seconds at reference speed (see the module text)."""

    def __init__(self):
        self._kernel = _Kernel()
        for _ in range(5):      # warm-up
            self._kernel()
        self.kernel_s: list[float] = []   # every kernel sample of the run

    def _sample(self) -> float:
        t0 = _clock()
        self._kernel()
        dt = _clock() - t0
        self.kernel_s.append(dt)
        return dt

    def time(self, fn, *args):
        """Run fn(*args); return (its result, wall seconds without the
        kernel samples, seconds at reference speed)."""
        samples = [self._sample()]
        during = []

        def tick(signum, frame):
            during.append(self._sample())

        previous = signal.signal(signal.SIGALRM, tick)
        t0 = _clock()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = _clock() - t0
            signal.signal(signal.SIGALRM, previous)
        samples += during
        samples.append(self._sample())
        work = wall - sum(during)
        return result, work, work * statistics.fmean(REF_S / k for k in samples)
