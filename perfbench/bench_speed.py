"""Machine speed gauge: how much slower than in its quiet spells the core runs now.

On a shared machine the same code runs up to 1.8x slower in spells that last
from tens of seconds to minutes, longer than a run, so no statistic over one
run's repeats removes them.  The gauge times a fixed pure-Python computation
between operations: the two kinds of work in the library's inner loops,
rational arithmetic on small integers and products and quotients of integers
of about a thousand digits.  An operation's calibrated time is its wall time
divided by the mean of the gauge's factors before and after it: the time it
takes in a quiet spell.

Neither kind alone tracks the library.  Over 3 minutes of alternating
operations and samples, the log of an operation's time moved 0.6-0.75 times
as much as the log of the rational part's time, and 1.1-1.4 times as much as
the log of the big-integer part's time; against their sum it moved 0.85-0.96
times as much, on each of the three workloads.
"""
from __future__ import annotations

import statistics
import time
from collections import deque
from fractions import Fraction

# reference_work() in the quiet spells of the 2-core machine the baseline was taken on
NOMINAL_S = 0.0030
SAMPLE_EVERY_S = 0.1  # at most one sample per this many seconds
WINDOW = 31  # samples in the rolling median
WARMUP = 40  # first runs of the reference, slower with cold caches, discarded

_A, _B = 3**2000 + 7, 5**1500 + 11


def reference_work() -> tuple[Fraction, int]:
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, 2 * i + 1) * Fraction(3, i + 7)
    big = 0
    for i in range(40):
        big += (_A * _B + i) // (_B + i)
    return acc, big


class SpeedGauge:
    """Rolling median of the reference time, sampled about every SAMPLE_EVERY_S.

    No sample can be taken during an operation, so after a long one the
    gauge takes the samples it missed, up to a full window: the window then
    describes the machine after the operation, not before it.
    """

    def __init__(self):
        self._samples: deque[float] = deque(maxlen=WINDOW)
        self._last = float("-inf")
        for _ in range(WARMUP):
            reference_work()
        for _ in range(WINDOW):
            self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self._samples.append(t1 - t0)
        self._last = t1

    def factor(self) -> float:
        """Current slowdown against the quiet spells (above 1: slower), sampling first if due."""
        due = int((time.perf_counter() - self._last) / SAMPLE_EVERY_S)
        for _ in range(min(due, WINDOW)):
            self.sample()
        return statistics.median(self._samples) / NOMINAL_S
