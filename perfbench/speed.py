"""Machine-speed normalisation of CPU time.

On a shared virtual machine the CPU time that fixed pure-Python work takes
moves by up to 2x within seconds (the host's other load and clock speed),
far more than the changes the benchmark has to resolve.  ``SpeedMeter``
samples that speed while ops run: every ``INTERVAL`` seconds of process
CPU time a SIGPROF handler times a fixed reference loop of Fraction
arithmetic.  An op's CPU time, minus the samples taken inside it, is then
scaled by ``REF_LOOP_S`` over the median sample cost around it: the result
is the op's CPU time on a machine where the reference loop takes
``REF_LOOP_S`` seconds.

Times are read from the thread CPU clock: while a process CPU timer is
armed, Linux serves the process CPU clock at scheduler-tick resolution.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array
from fractions import Fraction

INTERVAL = 0.05
REF_LOOP_S = 0.001
_STEP, _SHIFT = Fraction(3, 7), Fraction(1, 5)

clock = time.thread_time


def reference_loop() -> Fraction:
    """Fixed work: 150 rounds of Fraction multiply, add and reduce."""
    x = Fraction(1, 3)
    for _ in range(150):
        x = x * _STEP + _SHIFT
        x = Fraction(x.numerator % 1000003, x.denominator % 999983 or 1)
    return x


class SpeedMeter:
    """Context manager sampling machine speed on the process CPU clock."""

    def __init__(self):
        self.at = array("d")  # thread CPU time at each sample's start
        self.cost = array("d")  # CPU seconds the reference loop took
        self._old = None

    def _sample(self, signum, frame):
        t0 = clock()
        reference_loop()
        self.at.append(t0)
        self.cost.append(clock() - t0)

    def __enter__(self):
        self._sample(None, None)
        self._old = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old)
        return False

    def normalised(self, t0: float, t1: float) -> float:
        """CPU seconds of the work between clock readings t0 and t1, at the
        reference speed.  Samples inside the window are its own work's
        speed; with none, the nearest earlier sample stands in."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_left(self.at, t1)
        inside = self.cost[lo:hi]
        own = (t1 - t0) - sum(inside)
        around = inside if len(inside) else self.cost[max(lo - 1, 0):lo + 1]
        return own * REF_LOOP_S / statistics.median(around)
