"""A fixed slice of pure-Python work, timed to follow the host's speed.

The benchmark runs on shared hosts whose speed drifts by 10-50% over
seconds to minutes, and the library's times drift with it.  Workers time
this slice every TICK_EVERY_S between instances; each instance's time is
reported scaled by NOMINAL_S / (median time of the slices taken around
it): its time on a host where the slice takes NOMINAL_S.  The raw
times are kept in the run's results file.  The slice does not call the
library, so no change to the library can move it.
"""

import itertools
import statistics
import time

NOMINAL_S = 0.0017  # the slice on a 2-core x86-64 host at 2.1 GHz, Python 3.11
TICK_EVERY_S = 0.05
NEAR_S = 0.5  # an instance is scaled by the slices within this of it
NEAR_COUNT = 5  # or by the nearest this many, when fewer are that close

_BIG = 3**200
_TRAIL = (2, 1, 3)


def slice_s() -> float:
    """Time one slice: big-integer multiply-adds, tuple scans, dict updates,
    the mix of operations the engines spend their time on."""
    start = time.perf_counter()
    acc, xs = 0, []
    for i in range(2500):
        acc = (acc * 31 + i) % 1000003
        xs.append(_BIG * i + acc)
    n = 0
    for A in itertools.product(range(9), repeat=3):
        if all(a >= e for a, e in zip(A, _TRAIL)):
            n += 1
        else:
            n += min(A) // 2
    d = {}
    for i in range(1500):
        d[i % 97] = d.get(i % 97, 0) + i
    return time.perf_counter() - start


class HostClock:
    """Takes a slice at most every TICK_EVERY_S; `spent` is their total time."""

    def __init__(self):
        self.slices = []  # (perf_counter at the slice's middle, its duration)
        self._last = float("-inf")

    def tick(self, force=False):
        if force or time.perf_counter() - self._last >= TICK_EVERY_S:
            start = time.perf_counter()
            dur = slice_s()
            self.slices.append((start + dur / 2, dur))
            self._last = time.perf_counter()

    @property
    def spent(self) -> float:
        return sum(d for _, d in self.slices)


def median_slice(slices) -> float:
    return statistics.median(d for _, d in slices)


def near_slice(slices, start: float, end: float) -> float:
    """Median slice over [start - NEAR_S, end + NEAR_S], or over the
    NEAR_COUNT slices closest to the interval when fewer fall inside."""
    dist = sorted((max(start - t, t - end, 0.0), d) for t, d in slices)
    inside = [d for gap, d in dist if gap <= NEAR_S]
    return statistics.median(inside if len(inside) >= NEAR_COUNT else [d for _, d in dist[:NEAR_COUNT]])
