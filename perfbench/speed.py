"""Machine-speed probe, to keep the benchmark's times comparable on a host
whose speed changes from second to second and from minute to minute.

On a shared 2-core virtual machine the same exact-arithmetic work runs up
to 1.7 times slower while neighbouring load is high; CPU time slows down as
much as wall time, so it is no remedy.  While the benchmark runs, a timer
signal every `INTERVAL_S` runs a short fixed kernel and records its
slowdown: the kernel's time over `REFERENCE_KERNEL_S`.  The time spent in
the probe is taken out of each timed operation, and the operation's time
is divided by the typical slowdown of the samples taken while it ran.  The
kernel is a Fraction Gaussian elimination from the standard library only,
so no change to thetapairs moves it.  The reported times are thus seconds
on a host that runs the kernel in `REFERENCE_KERNEL_S`: the median speed
of the host the benchmark was tuned on, so they are close to the wall
seconds a run took there.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction
from statistics import mean, median

# median kernel time inside the probe over the benchmark's tuning runs on a
# 2-vCPU Intel Xeon virtual machine with Python 3.11.7
REFERENCE_KERNEL_S = 0.005
INTERVAL_S = 0.25            # one sample every quarter second of wall time
KERNELS_PER_SAMPLE = 3       # about 15 ms of probing per sample
MIN_SAMPLES = 3              # an operation is scaled by at least this many samples

_SIZE = 10
_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 5 + 1) for j in range(_SIZE)]
           for i in range(_SIZE)]


def kernel():
    """Reduced row echelon form of a fixed 10 x 10 rational matrix."""
    m = [list(row) for row in _MATRIX]
    for c in range(_SIZE):
        p = next(r for r in range(c, _SIZE) if m[r][c])
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [inv * x for x in m[c]]
        for r in range(_SIZE):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return m


class SpeedProbe:
    """Slowdown samples taken by a timer signal while it is running."""

    def __init__(self):
        self.samples = []
        self.probe_s = 0.0   # total time spent inside samples
        self._previous = None

    def sample(self, *_signal_args):
        start = time.perf_counter()
        for _ in range(KERNELS_PER_SAMPLE):
            kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed / KERNELS_PER_SAMPLE / REFERENCE_KERNEL_S)
        self.probe_s += elapsed

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, operation):
        """Run `operation`; return its seconds and its reference seconds, both
        without the samples taken inside it.  The slowdown applied is the
        typical one of the samples taken while it ran, or of the latest
        `MIN_SAMPLES` if fewer were."""
        first, probed = len(self.samples), self.probe_s
        start = time.perf_counter()
        operation()
        seconds = time.perf_counter() - start - (self.probe_s - probed)
        taken = self.samples[max(0, min(first, len(self.samples) - MIN_SAMPLES)):]
        return seconds, (seconds / typical(taken) if taken else seconds)


def typical(samples):
    """The median of a few samples; of many, the mean of the middle 80 %,
    which follows a speed that alternates during a long operation yet
    ignores the odd sample that the host stalled."""
    if len(samples) < 10:
        return median(samples)
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return mean(ordered[cut:len(ordered) - cut])
