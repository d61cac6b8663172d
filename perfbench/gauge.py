"""Machine-speed gauge for a shared, throttled machine.

On a shared host the speed a process sees drifts by tens of percent over
seconds, while its CPU time keeps pace with wall time.  The runner samples a fixed reference kernel
(interpreted Python arithmetic plus small numpy calls, the mix ccpforge's
hot loops run, and independent of ccpforge) around every timed interval
and scales the interval by REFERENCE_S / (mean of the two samples).  Scaled
times are seconds at the gauge's reference speed, so runs made while the
host is busier or quieter compare with each other.
"""

from __future__ import annotations

import time

import numpy as np

ROUNDS = 600
# median kernel time on the machine the benchmark was defined on
REFERENCE_S = 0.020

_A = np.array([[0.3, 1.2, -0.7], [1.1, -0.4, 0.9], [0.2, 0.8, 1.5]])


def sample() -> float:
    """Seconds one run of the reference kernel takes now."""
    t0 = time.perf_counter()
    s = 0.0
    for k in range(ROUNDS):
        n = np.cross(_A[k % 3], _A[(k + 1) % 3])
        s += float(n @ n) + 0.5 * k
    return time.perf_counter() - t0


class Gauge:
    """Scales wall intervals by the speed sampled at their two ends."""

    def __init__(self):
        self.last = sample()
        self.samples = [self.last]

    def scale(self, wall: float) -> float:
        """Scale an interval that ended just now and began right after the
        previous sample; takes the next sample."""
        nxt = sample()
        self.samples.append(nxt)
        factor = REFERENCE_S / (0.5 * (self.last + nxt))
        self.last = nxt
        return wall * factor
