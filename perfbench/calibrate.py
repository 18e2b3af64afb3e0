"""A fixed pure-Python kernel that measures how fast this machine runs now.

The kernel closes S_6 under two generators (tuple composition, set and
dict traffic, as in betaring's own group code) and sums Fractions.  It
imports nothing from betaring, so changes to the program never change it.
Sampler runs it from a timer signal every PERIOD_S while calls run, so a
call of several seconds is scaled by the speed it actually ran at.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

# Benchmark times are reported scaled to a machine on which one kernel run
# takes this long (about the fast state of the 2-core Intel Xeon VM the
# benchmark was written on).
REFERENCE_S = 0.002
PERIOD_S = 0.25


def _kernel() -> int:
    gens = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]
    identity = tuple(range(6))
    seen = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(g[i] for i in x)
                if y not in seen:
                    seen[y] = len(seen)
                    nxt.append(y)
        frontier = nxt
    acc = Fraction(0)
    for k in range(1, 400):
        acc += Fraction(k % 7 + 1, k)
    return len(seen) + acc.numerator % 7


def measure(repeats: int = 9) -> float:
    """Median seconds of one kernel run over `repeats` runs.  The cyclic
    garbage collector is paused, so the caller's heap does not change the
    reading."""
    times = []
    paused = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if paused:
            gc.enable()
    times.sort()
    return times[len(times) // 2]


class Sampler:
    """Samples the kernel from SIGALRM every PERIOD_S, and once on entry and
    on exit.  `samples` holds (time, kernel seconds) and `pauses` the
    (start, end) of each sample, which callers take out of what they time."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._before = [0.0]  # _before[i]: total length of the first i pauses

    def sample(self, *_):
        t0 = time.perf_counter()
        value = measure(5)
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, value))
        self._starts.append(t0)
        self._ends.append(t1)
        self._before.append(self._before[-1] + t1 - t0)

    def paused_between(self, start: float, end: float) -> float:
        """Seconds of samples taken inside [start, end].  A sample runs
        between two bytecodes, so it lies wholly inside or outside."""
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_right(self._ends, end)
        return self._before[hi] - self._before[lo] if hi > lo else 0.0

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time of the samples taken in
        [start, end] and the nearest one on each side."""
        times = [t for t, _ in self.samples]
        lo = max(bisect.bisect_left(times, start) - 1, 0)
        hi = min(bisect.bisect_right(times, end) + 1, len(times))
        window = [v for _, v in self.samples[lo:hi]]
        return REFERENCE_S * len(window) / sum(window)
