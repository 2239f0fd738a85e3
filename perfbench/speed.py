"""Machine-speed sampling, to scale measured times to a reference speed.

On a shared host the same code runs 10-70% slower for stretches of seconds
to minutes, because of other tenants, and ten runs of one commit spread by
more than any useful regression bound.  Measured on a 2-CPU host over
one-second windows, dflsim's crafting, SGD steps and FLAME aggregation each
varied by 13-20%, while their ratio to the pure-Python kernel below varied
by only ~4-5%.  A kernel that also summed a 1 MB array was tried; it
followed some steps better and others worse, and five seeds spread more on
the round medians.

Not all work slows down as much as the kernel.  Work on large numpy arrays
(the verify solver suite's 100,000-point grids) slows down about as the
square root of the kernel's slowdown, so each measured interval carries an
exponent saying how strongly its work follows the kernel (see
workloads.SPEED_EXPONENT).

A SpeedSampler interrupts its own process every INTERVAL_S (SIGALRM) and
times the kernel once.  ``scaled(a, b, exponent)`` turns a wall-clock
interval into the seconds it would take at the reference speed, at which
the kernel takes NOMINAL_S: slice by slice, the interval minus the
sampler's own time, times (NOMINAL_S over the median kernel time near that
slice) to the power ``exponent``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.025   # one kernel (~0.5 ms) every 25 ms: ~2% of the run
SLICE_S = 0.5        # an interval is scaled in slices of at most this length
WINDOW_S = 0.1       # kernel samples this close to a slice set its speed (window widened until MIN_SAMPLES)
KERNEL_LOOPS = 500
NOMINAL_S = 5.0e-4   # kernel time at the reference speed: about the median on the host that defined the benchmark
MIN_SAMPLES = 3


def kernel() -> float:
    """Fixed interpreter work: list sorts, dict stores, sums and loops."""
    acc = 0.0
    table = {}
    values = [float(i) for i in range(64)]
    for i in range(KERNEL_LOOPS):
        values.sort(reverse=(i % 2 == 0))
        table[i % 17] = values[i % 64]
        acc += sum(values[:8]) * 1e-9 + len(table)
    return acc


class SpeedSampler:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while len(self.starts) < MIN_SAMPLES:   # a child too short to be sampled
            self._sample()

    def _sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def _sampler_s(self, a: float, b: float) -> float:
        """Time within [a, b] spent in the sampler itself."""
        total = 0.0
        for i in range(bisect.bisect_left(self.ends, a), len(self.starts)):
            if self.starts[i] >= b:
                break
            total += min(b, self.ends[i]) - max(a, self.starts[i])
        return total

    def _kernel_s(self, a: float, b: float) -> float:
        """Median kernel time of the samples near [a, b]."""
        window = WINDOW_S
        while True:   # widen until enough samples are near
            lo = bisect.bisect_left(self.starts, a - window)
            hi = bisect.bisect_right(self.starts, b + window)
            if hi - lo >= MIN_SAMPLES or hi - lo == len(self.starts):
                return statistics.median(self.ends[i] - self.starts[i] for i in range(lo, hi))
            window *= 2

    def scaled(self, a: float, b: float, exponent: float = 1.0) -> float:
        """Seconds the wall-clock interval [a, b] would take at the reference speed."""
        total, t = 0.0, a
        while t < b:
            u = min(b, t + SLICE_S)
            total += (u - t - self._sampler_s(t, u)) * (NOMINAL_S / self._kernel_s(t, u)) ** exponent
            t = u
        return total

    def speed(self) -> float:
        """Speed over the whole child relative to the reference (above 1 is faster)."""
        return NOMINAL_S / statistics.median(e - s for s, e in zip(self.starts, self.ends))
