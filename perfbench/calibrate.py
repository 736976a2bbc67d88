"""Host-speed calibration: a fixed reference kernel, timed all through a run.

On a shared host the same code can run 1.7 times slower for seconds or
minutes at a time while other tenants are busy, which swamps any change to
the program.  ``HostSpeed`` times a short reference kernel every
``INTERVAL`` seconds from a timer signal while the jobs run, and scales each
job's wall time by ``REFERENCE_S / (mean kernel time during the job)``: the
job's time at the host speed under which the kernel takes ``REFERENCE_S``.
The kernel does what cnfopt's hot loops do, so it slows down with them:
straight-line float code called with plain lists, scatter-adds into a small
numpy array, and a small numpy reduction.  It never touches cnfopt, so a
change to the program cannot move it.
"""

import bisect
import signal
import time

import numpy as np

# kernel time at full speed on a 2-vCPU Intel Xeon sandbox (its fastest
# decile; busy neighbours push the median up to about twice this)
REFERENCE_S = 0.00042
INTERVAL = 0.02


def _straight_line(x, y):
    t0 = x[0] * x[1] - y[0]
    t1 = t0 * t0 + 0.5 * x[2] * y[1]
    t2 = (x[3] + y[2]) * (x[3] - y[2])
    return t1 + t2 * t2, (2.0 * t0 * x[1], 2.0 * t0 * x[0], 0.5 * y[1], 4.0 * t2 * x[3])


_SLOTS = [0, 3, 5, 7]


def kernel_seconds(rounds=150):
    """Wall seconds of one fixed run of the kernel."""
    x = [0.1, 0.2, 0.3, 0.4]
    y = [0.5, 0.6, 0.7]
    t0 = time.perf_counter()
    total = 0.0
    for k in range(rounds):
        grad = np.zeros(8)
        val, parts = _straight_line(x, y)
        for idx, dp in zip(_SLOTS, parts):
            grad[idx] += dp
        total += val + float(np.linalg.norm(grad))
        x[k & 3] = 0.1 + 1e-3 * (k & 7)
    return time.perf_counter() - t0


class HostSpeed:
    """Samples the kernel from a SIGALRM timer while the context is open."""

    def __init__(self):
        self.stamps = []  # perf_counter() at the end of each sample
        self.kernel = []  # the sample's kernel seconds

    def _sample(self, signum=None, frame=None):
        k = kernel_seconds()
        self.stamps.append(time.perf_counter())
        self.kernel.append(k)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()  # one sample before the first job
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # one sample after the last job

    def calibrated(self, t0, t1):
        """Calibrated seconds of work done from ``t0`` to ``t1``: the wall
        time without the samples taken inside it, scaled by the mean kernel
        time from the last sample before ``t0`` to the first after ``t1``."""
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_right(self.stamps, t1)
        inside = sum(self.kernel[lo:hi])
        around = self.kernel[max(lo - 1, 0):hi + 1]
        return (t1 - t0 - inside) * REFERENCE_S * len(around) / sum(around)
