"""Host-speed reference for the timed phase of a worker.

The CPU time of identical work on a shared host drifts by up to 2x, in
phases of ten seconds to a minute, as neighbours come and go.  To take that
drift out, a ``Sampler`` runs a small fixed pure-Python ``kernel`` (fractions, tuple-keyed
dicts, calls: the same kind of work as the program) every ``EVERY_S`` of
process CPU time, from a ``SIGPROF`` interval timer, and keeps each run's CPU
time.  The host speed at a sample is the median kernel time of the
``SMOOTH`` samples around it.  A measured interval is reported as its CPU
time, less the time the sampler took inside it, times the mean of
(``KERNEL_S`` / speed) ** ``ELASTICITY`` over the samples taken within
``WINDOW_S`` of it: the CPU seconds the work would have taken at the speed
where the kernel takes ``KERNEL_S``.  Averaging over the samples, rather
than taking one speed for the interval, follows the speed when it changes
during a long query.

``ELASTICITY`` is below 1 because the kernel fits in the CPU's caches and
the program does not: when the host slows, the kernel slows more than the
program.  0.8 is the exponent that made the scaled pass times of all four
workloads steadiest, fitted on 257 passes of 80 runs (two sets of ten
seeds per workload) on the VM named at ``KERNEL_S``: their coefficient of
variation was 13-18% unscaled, 2.7-5.1% with an exponent of 1, and
1.4-3.4% with 0.8.

CPU time here is the calling thread's (``time.thread_time``): while an
interval timer is armed, Linux advances the process CPU clock only at
scheduler ticks.  A worker has one thread, so the two agree otherwise.
``Unscaled`` has the same interface and reports plain CPU time; traced runs
use it, so that no sampler runs inside their spans.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

EVERY_S = 0.01      # CPU seconds between samples
WINDOW_S = 0.1      # samples this close to an interval set its speed
SMOOTH = 25         # samples whose median kernel time is the speed at one
# the kernel's median CPU time on the 2-vCPU VM the benchmark was defined on;
# a fixed unit, so that reported times stay near real CPU seconds
KERNEL_S = 2.2e-4
ELASTICITY = 0.8    # how much of the kernel's speed change the program sees


def kernel():
    memo = {}
    total = Fraction(0)
    for i in range(60):
        key = (i % 17, i % 5)
        memo[key] = memo.get(key, 0) + i
        total += Fraction(i % 7 + 1, i % 5 + 1)
    return total


class Sampler:
    def __init__(self):
        self.at = []        # CPU time each sample started
        self.took = []      # CPU seconds the kernel took in that sample
        self.spent = 0.0    # CPU seconds spent in the signal handler
        self._speed = []    # smoothed ``took``, see ``speeds``

    def _tick(self, signum, frame):
        # no collection inside the kernel: it would time the program's heap
        collecting = gc.isenabled()
        gc.disable()
        start = time.thread_time()
        kernel()
        end = time.thread_time()
        if collecting:
            gc.enable()
        self.at.append(start)
        self.took.append(end - start)
        self.spent += time.thread_time() - start

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self) -> tuple:
        """(CPU time, sampler time so far): the start or end of an interval."""
        return time.thread_time(), self.spent

    def speeds(self) -> list:
        """Per sample, the median kernel time of the ``SMOOTH`` around it."""
        if len(self._speed) != len(self.took):
            half = SMOOTH // 2
            self._speed = [statistics.median(self.took[max(0, i - half):i + half + 1])
                           for i in range(len(self.took))]
        return self._speed

    def scaled(self, begin: tuple, end: tuple) -> float:
        """CPU seconds from ``begin`` to ``end`` (two ``mark``s), without the
        sampler's own time, at the reference speed."""
        cpu = (end[0] - begin[0]) - (end[1] - begin[1])
        lo = bisect.bisect_left(self.at, begin[0] - WINDOW_S)
        hi = bisect.bisect_right(self.at, end[0] + WINDOW_S)
        speeds = self.speeds()[lo:hi] or self.speeds()
        return cpu * statistics.fmean((KERNEL_S / s) ** ELASTICITY for s in speeds)


class Unscaled:
    def stop(self):
        pass

    def mark(self) -> tuple:
        return time.thread_time(), 0.0

    def scaled(self, begin: tuple, end: tuple) -> float:
        return end[0] - begin[0]
