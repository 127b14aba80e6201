"""Machine-speed sampling, so that the time metrics read at one reference speed.

The 2-vCPU VM this benchmark was tuned on switches between speed states
about 1.5x apart that last tens of seconds: in the slow state even the
fastest of hundreds of repeats of a fixed loop, pure Python or numpy alike,
takes 1.5x as long.  A run of a minute or less may sit wholly in one state,
so raw timings of the same code spread past any useful bound.

`SpeedSampler` measures the machine's speed while the program runs.  A
SIGALRM timer interrupts the benchmark process every INTERVAL_S of wall
time; the handler runs a fixed loop of Fraction arithmetic and records
REF_S / (its duration), the speed relative to a machine on which the loop
takes REF_S (about this VM's fast state).  A duration measured over [a, b]
times `mean_speed(a, b)`, the mean speed of the samples taken within
WINDOW_S of that span, is that duration in reference seconds.  The samples
fall uniformly in wall time, so the mean speed is the share of reference
work a wall second holds, slow patches and preemptions included.

The loop's own time is kept in `spent`, so that callers can take it out of
what they measured.  The loop uses nothing of the program under test, so a
change of the program moves the reference times as much as the raw ones.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02      # wall time between samples
LOOP_N = 150           # iterations of the sampling loop
WARM_N = 10            # untimed iterations first, to warm the caches
REF_S = 0.0007         # the loop's duration at reference speed
WINDOW_S = 0.03        # samples this close to a span give its speed
RECENT = 25            # samples that give the speed of the moment

_clock = time.perf_counter


def _loop(n: int) -> Fraction:
    """Exact rational arithmetic with growing denominators.  The program's
    own hot loops are such small-object arithmetic (Fraction and cyclotomic
    sums) or numpy calls.  On the VM named above, a loop of machine-word
    integer adds tracked the numpy-bound scan as well, but in the slow
    state the alpha sums slowed down a third more than it."""
    s = Fraction(0)
    for i in range(1, n):
        s = (s + Fraction(i % 13, 7)) * Fraction(3, 5)
        if s.denominator > 10**6:
            s = Fraction(1, 3)
    return s


class SpeedSampler:
    def __init__(self):
        self.times: list = []      # when each sample was taken
        self.speeds: list = []     # REF_S / loop duration
        self.spent = 0.0           # seconds spent in the handler
        self._prefix = [0.0]

    def _tick(self, signum, frame):
        t0 = _clock()
        _loop(WARM_N)
        t1 = _clock()
        _loop(LOOP_N)
        t2 = _clock()
        self.times.append(t1)
        self.speeds.append(REF_S / (t2 - t1))
        self._prefix.append(self._prefix[-1] + self.speeds[-1])
        self.spent += t2 - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def recent_speed(self, k: int | None = RECENT) -> float:
        """Mean speed of the last k samples, or of all when k is None (one
        is taken if there is none)."""
        if not self.speeds:
            self._tick(None, None)
        k = len(self.speeds) if k is None else min(k, len(self.speeds))
        return (self._prefix[-1] - self._prefix[-1 - k]) / k

    def mean_speed(self, a: float, b: float) -> float:
        """Mean speed of the samples in [a - WINDOW_S, b + WINDOW_S]; the
        nearest sample's when there is none."""
        if not self.speeds:
            raise RuntimeError("no speed sample was taken")
        lo = bisect.bisect_left(self.times, a - WINDOW_S)
        hi = bisect.bisect_right(self.times, b + WINDOW_S)
        if hi > lo:
            return (self._prefix[hi] - self._prefix[lo]) / (hi - lo)
        i = min(lo, len(self.times) - 1)
        if i > 0 and a - self.times[i - 1] < self.times[i] - b:
            i -= 1
        return self.speeds[i]
