"""Machine speed, measured between timed operations with a fixed kernel.

On a shared host the same operation can take 1.5x longer for a minute at a
time, because other tenants slow the vCPU.  The kernel below does the kind of
work the toolkit does: tiny matrix products, element-wise numpy and Python
loop overhead.  It is timed for CAL_SECONDS before and after every operation,
and after every set-up inside the set-up's own process.  A wall time is then
rescaled to the kernel's reference speed:

    reference seconds = wall seconds * REFERENCE_US / mean(kernel us before, after)

The kernel never calls the toolkit, so a faster or slower program moves the
rescaled time exactly as much as the wall time.  The raw wall times are kept
beside the rescaled ones in every result file.
"""
from __future__ import annotations

from time import perf_counter

CAL_SECONDS = 0.2
# us per kernel iteration on one unloaded vCPU of the development machine
# (Intel Xeon, 2 vCPUs, numpy 2.4 with scipy-openblas 0.3.31, one BLAS thread)
REFERENCE_US = 12.0


class Calibrator:
    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.normal(size=(32, 64))
        self._b = rng.normal(size=(64, 16))
        self._v = rng.normal(size=2048)

    def _kernel(self, iterations):
        np, a, b, v = self._np, self._a, self._b, self._v
        total = 0.0
        for i in range(iterations):
            h = np.tanh(a @ b)
            total += float(h.sum()) + float(np.exp(-np.abs(v)).mean()) * (i % 3)
        return total

    def measure(self, seconds=CAL_SECONDS):
        """Mean microseconds per kernel iteration over about ``seconds``."""
        iterations = 0
        t0 = perf_counter()
        while True:
            self._kernel(50)
            iterations += 50
            elapsed = perf_counter() - t0
            if elapsed >= seconds:
                return elapsed / iterations * 1e6


def rescale(wall_s, cal_before_us, cal_after_us):
    """Wall seconds at the kernel's reference speed."""
    return wall_s * REFERENCE_US * 2.0 / (cal_before_us + cal_after_us)
