"""Machine-speed sampling, so times can be reported in nominal seconds.

On a shared machine the speed of one process drifts by up to 2x within
seconds, while nothing in the process changes. A timer signal every
SAMPLE_INTERVAL_S runs a tiny fixed kernel, between bytecodes of whatever
is executing, and records how long it took. ``nominal(t0, t1)`` turns the
wall time of an interval into the time it would have taken at the speed
where the kernel runs in NOMINAL_KERNEL_S, with the kernel's own time
taken out. The kernel does not touch twistlab, so a change to the program
moves nominal time as much as wall time.
"""

from __future__ import annotations

import bisect
import signal
import time

SAMPLE_INTERVAL_S = 0.02
NOMINAL_KERNEL_S = 1e-4


def kernel():
    """Dict updates with modular integer arithmetic, the program's hot
    pattern, on fixed data."""
    p = 10007
    v = {}
    for i in range(300):
        k = (i * 37) % 211
        v[k] = (v.get(k, 0) + i * 12345) % p
    return v


class Speedometer:
    """Context manager sampling the kernel's time on SIGALRM."""

    def __init__(self):
        self.starts = []
        self.costs = []
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        kernel()
        self.costs.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def nominal(self, t0, t1):
        """Nominal seconds for the wall interval [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = self.costs[lo:hi]
        own = sum(inside)
        if not inside:  # shorter than one interval: the nearest samples
            inside = self.costs[max(lo - 1, 0):lo + 1]
        speed = sum(NOMINAL_KERNEL_S / c for c in inside) / len(inside)
        return (t1 - t0 - own) * speed
