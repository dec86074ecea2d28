"""Core-speed probe that corrects timings for periods of CPU contention.

On a shared machine a core can run at half its speed for tens of seconds, for
example while another tenant uses its sibling hyperthread.  CPU time then
equals wall time, yet a wall-clock median moves by a quarter between runs.
While the probe runs, a SIGALRM every ``PERIOD_S`` seconds times a fixed
small-array numpy kernel, so the kernel's duration tracks the core's speed through
every interval.  The work done in an interval, in kernel units, is its wall
time minus the probe's own time, times the mean of 1/(kernel time) over the
samples taken in it.  Multiplied by ``REFERENCE_KERNEL_S``, the kernel's
time on an uncontended core of the reference machine, it reads as seconds:
the time the interval would have taken there.  A fixed reference is used
because a run can spend all its seconds on a contended core, which leaves no
uncontended sample in it to calibrate against.
"""

import bisect
import signal
import time

import numpy as np

PERIOD_S = 0.02
# 1st-percentile kernel time on the baseline machine (2-core Intel Xeon,
# Python 3.11, numpy 2.4.6); contended stretches there read about 0.9 ms
REFERENCE_KERNEL_S = 0.48e-3


_A = np.array([[0.0, 1.0], [-1.0, 0.0]])
_C = np.linspace(0.0, 1.0, 7)


def _kernel():
    """About half a millisecond of small-array numpy work on an uncontended
    core: Runge-Kutta-like stages, the kind of work the workloads do."""
    y = np.array([1.0, 0.0])
    stages = np.zeros((7, 2))
    for _ in range(20):
        for j in range(1, 7):
            stages[j] = _A @ (y + 1e-3 * (_C[:j] @ stages[:j]))
        y = y + 1e-3 * stages[6]
    return y


class SpeedProbe:
    """Samples the kernel's duration on SIGALRM between start() and stop()."""

    def __init__(self):
        self.times = []     # perf_counter at the end of each sample
        self.kernel_s = []  # kernel duration of each sample
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame):
        if not self._busy:  # a handler can re-enter while a sample runs
            self.sample()

    def sample(self):
        self._busy = True
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.kernel_s.append(t1 - t0)
        self._busy = False

    def work(self, start: float, end: float) -> float:
        """Kernel units of work done in [start, end], the probe's time excluded.

        An interval too short to hold a sample takes its speed from the next
        three samples.
        """
        lo, hi = bisect.bisect_left(self.times, start), bisect.bisect_right(self.times, end)
        inside = self.kernel_s[lo:hi]
        speed = inside or self.kernel_s[hi:hi + 3]
        if not speed:
            raise ValueError("no speed sample in or after the interval")
        return (end - start - sum(inside)) * sum(1.0 / k for k in speed) / len(speed)

    def corrected_s(self, start: float, end: float) -> float:
        """Seconds [start, end] would have taken on the uncontended reference core."""
        return self.work(start, end) * REFERENCE_KERNEL_S

    def percentile_s(self, q: float) -> float:
        """q-th percentile kernel time of the samples so far."""
        ordered = sorted(self.kernel_s)
        return ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]
