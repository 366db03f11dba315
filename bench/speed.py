"""Machine-speed reference for the end-to-end timings.

On a shared machine the speed of one core drifts. On a 2-core shared
Xeon VM at 2.1 GHz the kernel below took from 1.45 ms to 2.75 ms
within one minute, and whole benchmark runs a few minutes apart
differed by 25 % on every metric. A fixed pure-Python kernel (dict
churn, small tuples, 61-bit modular arithmetic, the instruction mix of
selectc's hot paths) is timed right before and right after each timed
step, and the step's time is scaled by REFERENCE_S / (the mean of the
two kernel times). That reports it at a fixed reference speed: drift on
the scale of a step or longer cancels, and the program's own cost does
not, since the kernel never calls into selectc. Measured on that VM, a
2,000-statement attack repeated for 150 s varied by 0.37 of its median
(IQR) unscaled and by 0.12 scaled; means of 8 consecutive repeats
varied by 25 % unscaled and 5 % scaled.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# nominal kernel time; scaled durations are "seconds at this speed"
REFERENCE_S = 0.002
TICK_REPEATS = 3  # a tick is the median of this many kernel timings
MAX_AGE_S = 0.2  # a tick younger than this is reused
_P = (1 << 61) - 1


def kernel() -> int:
    env = {}
    acc = 1
    for i in range(3000):
        acc = (acc * 6364136223846793005 + i) % _P
        env[("t", i)] = (acc, i % 7)
        if i % 3 == 0:
            env.pop(("t", i - 2), None)
    return len(env)


class RefClock:
    """Kernel timings taken between steps, reused while recent."""

    def __init__(self):
        self.ticks: list[float] = []
        self._last = (float("-inf"), 0.0)

    def tick(self) -> float:
        times = []
        for _ in range(TICK_REPEATS):
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
        tick = statistics.median(times)
        self.ticks.append(tick)
        self._last = (perf_counter(), tick)
        return tick

    def recent(self) -> float:
        """The last tick if it is younger than MAX_AGE_S, else a new one.

        Around a step shorter than MAX_AGE_S one tick serves both ends,
        so thousands of millisecond steps cost few ticks."""
        at, tick = self._last
        return tick if perf_counter() - at < MAX_AGE_S else self.tick()

    @staticmethod
    def scale(*ticks: float) -> float:
        """Factor that converts a duration measured between `ticks` to
        reference speed."""
        return REFERENCE_S / statistics.fmean(ticks)
