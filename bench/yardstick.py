"""A fixed reference computation that measures how fast the machine is right now.

On a shared machine the speed available to one process drifts by up to
1.7x over minutes, as other tenants come and go, and a whole run can sit
in a slow or a fast stretch. Per-input minimums do not remove that: the
slow stretches last longer than a run. So a run interleaves short samples
of this yardstick with its attempts (one every `INTERVAL_S`), and scales
each measured interval by `NOMINAL_S` over the mean yardstick time within
`WINDOW_S` of it. A scaled time reads as the time on a machine where one
yardstick sample takes `NOMINAL_S`; raw times are kept beside it.

The yardstick mixes interpreter work (tuples, dicts, strings, sorting)
with small numpy array work, because satguide's search is the first kind
and its networks the second, and contention slows the two by different
factors. On a 2-core shared virtual machine the mix cut the spread of
5-second blocks of prover and training work from 7-14% to 1.5-4%.

Changing the yardstick or its constants changes every scaled time: do it
only in a change that re-measures the baseline.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

NOMINAL_S = 0.025
INTERVAL_S = 0.5
WINDOW_S = 2.5

_X = np.linspace(-1.0, 1.0, 32 * 40 * 32).reshape(32, 40, 32)
_W = np.linspace(-0.5, 0.5, 32 * 64).reshape(32, 64)


def _interpreter_work() -> int:
    table: dict = {}
    total = 0
    for i in range(20_000):
        key = (i % 97, str(i % 13))
        table[key] = table.get(key, 0) + 1
        total += len(key[1])
    return total + len(sorted(str(x) for x in range(2_000)))


def _array_work() -> float:
    total = 0.0
    for _ in range(15):
        h = np.tanh(_X @ _W)
        g = np.zeros_like(h)
        g += h * 0.5
        total += float(np.maximum(h, 0.0).max(axis=1).sum())
    return total


class Yardstick:
    """Yardstick samples taken during one run, and the scaling they give."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.at: list[float] = []  # sample midpoints, increasing
        self.took: list[float] = []
        self._last = -float("inf")
        self.sample()  # warm-up: first calls pay one-off costs
        self.at.clear()
        self.took.clear()

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = self.clock()
            _interpreter_work()
            _array_work()
            t1 = self.clock()
            self.at.append((t0 + t1) / 2)
            self.took.append(t1 - t0)
            self._last = t1

    def tick(self) -> None:
        """Take a sample if `INTERVAL_S` has passed since the last one."""
        if self.clock() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the mean sample time near the interval [t0, t1]."""
        if not self.took:
            raise ValueError("no yardstick samples")
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        if hi - lo < 2:  # too few close by: take the nearest two
            mid = bisect.bisect_left(self.at, (t0 + t1) / 2)
            lo, hi = max(0, mid - 1), min(len(self.at), mid + 1)
            if hi - lo < 2:
                lo, hi = max(0, hi - 2), min(len(self.at), lo + 2)
        window = self.took[lo:hi]
        return NOMINAL_S / (sum(window) / len(window))

    def scaled(self, t0: float, t1: float) -> float:
        return (t1 - t0) * self.factor(t0, t1)

    def slowdown(self) -> float:
        """Mean sample time over NOMINAL_S for the whole run (1.0 = nominal)."""
        return sum(self.took) / len(self.took) / NOMINAL_S
