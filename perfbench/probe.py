"""Machine-speed probe: wall time rescaled to a reference machine speed.

The benchmark's box is shared, and other tenants slow it down by up to two
times for stretches of seconds to minutes, which would move a run's medians
by more than any bound worth setting.  While a run measures, a timer signal
runs a fixed pure-Python kernel twice every PERIOD seconds, in the benchmark's
own thread, and records how long the two runs took.  The first run refills
the caches the package evicted, so it follows the speed of the memory
system; the second runs warm and follows the speed of the core.
`scale(start, end)` turns a wall-clock interval into reference seconds: the
interval, less the probe's own time inside it, times REF_S over the probe's
mean time in and around the interval.  REF_S is the probe's time when run
back to back on a quiet box, so a reference second is a wall second at that
speed.

The kernel runs with the garbage collector off.  Its own short-lived objects
are freed before it returns, so it neither pays for collecting the package's
heap nor moves the package's collections; heap growth in the package shows
in the package's time only.  The mean, not the median, is taken because the
host takes the CPU away in slices of milliseconds: a sample that a slice
hits is long, and the mean counts the share of time lost that way as it is
lost by the package, where a median would ignore it.  selftest.py checks
that work added to an op grows its reference and wall seconds by the same
ratio.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

PERIOD_S = 0.02
REF_S = 0.00046
MARGIN_S = 0.05  # probe samples this far outside an interval still count


def _below(a: int, b: int) -> bool:
    return a & ~b == 0


def kernel() -> int:
    """Interpreter work like the searches': calls, dict and list updates,
    small tuples, int bit operations and a sort."""
    counts: dict[int, int] = {}
    items = []
    acc = 0
    for i in range(400):
        m = (i * 2654435761) & 0xFFFF
        k = m & 255
        counts[k] = counts.get(k, 0) + m.bit_count()
        items.append((k, m))
        if _below(m, acc):
            acc += 1
        acc ^= m >> 3
    items.sort()
    return acc + len(items)


class SpeedProbe:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.took: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        s = time.perf_counter()
        kernel()
        kernel()
        took = time.perf_counter() - s
        if enabled:
            gc.enable()
        self.starts.append(s)
        self.took.append(took)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _around(self, start: float, end: float) -> tuple[int, int]:
        lo = bisect.bisect_left(self.starts, start - MARGIN_S)
        hi = bisect.bisect_right(self.starts, end + MARGIN_S)
        if lo == hi:  # no sample near: take the closest one
            lo = max(0, min(lo, len(self.starts) - 1))
            hi = lo + 1
        return lo, hi

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per wall second over the interval."""
        lo, hi = self._around(start, end)
        return REF_S / statistics.fmean(self.took[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """Reference seconds taken by the interval's own work."""
        lo, hi = self._around(start, end)
        inside = sum(d for s, d in zip(self.starts[lo:hi], self.took[lo:hi]) if start <= s < end)
        return (end - start - inside) * REF_S / statistics.fmean(self.took[lo:hi])
