"""The host's current CPU speed, for scaling timings to a reference speed.

On a shared VM the same single-threaded code runs ±20-40 % faster or
slower from one minute to the next (the CPU's clock and its sibling's
load are not ours to control), which swamps run-to-run comparisons.
A fixed calibration loop, independent of ``repro``, is timed on the
same CPU between the measured operations; each measured time is then
scaled by ``REFERENCE_S / calibration``, i.e. reported as it would read
on a host where the loop takes ``REFERENCE_S``.  A change to ``repro``
moves the measured time but not the loop, so it shows in full.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

#: Calibration-loop time that defines the reference speed (seconds).
REFERENCE_S = 1.5e-3
#: Minimum spacing of calibration samples while stepping (seconds).
INTERVAL_S = 0.05

_ARRAY = np.ones((8, 8), dtype=np.float32)


def calibrate() -> float:
    """Seconds one fixed pure-Python + small-NumPy loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    for _ in range(200):
        _ARRAY + _ARRAY
    return time.perf_counter() - start


class SpeedTrack:
    """Calibration samples over time, and the scale factor for an interval."""

    def __init__(self) -> None:
        self.times: list = []
        self.values: list = []

    def sample(self) -> None:
        value = calibrate()
        self.times.append(time.perf_counter())
        self.values.append(value)

    def maybe_sample(self) -> None:
        """Sample unless the last sample is younger than ``INTERVAL_S``."""
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the calibration around ``[start, end]``.

        Uses the last sample taken before ``start`` and the first taken
        after ``end`` (either alone when the other does not exist).
        """
        i = bisect.bisect_right(self.times, start) - 1
        j = bisect.bisect_left(self.times, end)
        near = [self.values[k] for k in (i, j) if 0 <= k < len(self.values)]
        return REFERENCE_S / (sum(near) / len(near))

    def mean_scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the mean of all samples in ``[start, end]``."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        inside = self.values[lo:hi]
        return REFERENCE_S / (sum(inside) / len(inside))
