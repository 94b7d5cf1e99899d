"""Host speed reference for the benchmark's timings.

On a shared host the same code runs up to ~1.7x slower for stretches of
seconds, and in bursts much shorter than a query (CPU time tracks wall
time, so this is core speed, not waiting).  The reference is a fixed
piece of work of the same kind as the workload's: float or ``Fraction``
octonion products from ``oracle``, or small numpy einsum products for
rendering.  It is timed every ``PERIOD_S`` during a run; a query's time is
scaled by ``NOMINAL_S`` over the mean reference time within ``WINDOW_S``
of the query's start.  The mean, unlike the median, follows the share of
time the host is slow, which is what a query longer than a burst sees.
The reference never calls ocpoly, so a change to ocpoly moves the scaled
times in full.  Reference and queries are both timed in process CPU time,
which leaves out the time the host runs other processes instead (that
shows as wall time only); what remains to correct is the speed of the core
while this process runs.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from fractions import Fraction

import numpy as np

import oracle

NOMINAL_S = 1e-3
PERIOD_S = 0.025
WINDOW_S = 0.5
KINDS = ("float", "fraction", "numpy")


class SpeedReference:
    def __init__(self, kind):
        if kind not in KINDS:
            raise ValueError(f"unknown reference kind {kind!r}")
        self._kind = kind
        rng = random.Random(0)
        if kind == "fraction":
            self._alg = oracle.Algebra(oracle.STANDARD, Fraction(0))
            self._x, self._y = (tuple(Fraction(rng.randint(-9, 9),
                                               rng.randint(1, 4))
                                      for _ in range(8)) for _ in range(2))
        else:
            self._alg = oracle.Algebra()
            self._x, self._y = (tuple(rng.uniform(-1, 1) for _ in range(8))
                                for _ in range(2))
        nrng = np.random.default_rng(0)
        self._t = nrng.standard_normal((8, 8, 8))
        self._p = nrng.standard_normal((256, 8))
        self._times = []
        self._secs = []

    def sample(self):
        """Time the reference work once; returns its seconds."""
        at, t0 = time.perf_counter(), time.process_time()
        if self._kind == "float":
            for _ in range(80):
                self._alg.mul(self._x, self._y)
        elif self._kind == "fraction":
            for _ in range(2):
                self._alg.mul(self._x, self._y)
        else:
            for _ in range(2):
                np.einsum("abc,pa,pb->pc", self._t, self._p, self._p)
        dt = time.process_time() - t0
        self._times.append(at)
        self._secs.append(dt)
        return dt

    def median_s(self):
        return statistics.median(self._secs)

    def tick(self):
        """Sample if PERIOD_S has passed since the last sample."""
        if not self._times or time.perf_counter() - self._times[-1] \
                >= PERIOD_S:
            self.sample()

    def factor(self, t):
        """NOMINAL_S over the mean reference time near time t."""
        lo = bisect.bisect_left(self._times, t - WINDOW_S)
        hi = bisect.bisect_right(self._times, t + WINDOW_S)
        if lo == hi:   # no sample in the window: take the nearest one
            k = min(range(len(self._times)),
                    key=lambda j: abs(self._times[j] - t))
            lo, hi = k, k + 1
        return NOMINAL_S / statistics.fmean(self._secs[lo:hi])
