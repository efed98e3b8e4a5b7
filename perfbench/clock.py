"""Benchmark clock that scales times to a reference machine speed.

The speed of a small shared machine drifts: the same work can take 30%
longer, or more, for a minute at a time, and CPU time grows as much as
wall time. A fixed probe of about 4 ms is timed often between units of
work. It is plain numpy and Python owned by the benchmark, shaped like
the program's hot loops, so a change to the program never changes it:
a matrix product and elementwise numpy, an im2col convolution at the
student's refine shape, point-to-segment distances as in chamfer, and a
Python loop. A measured interval is scaled by PROBE_REF_S over the median
probe time around it, so a slow stretch of the machine cancels out while
a slower program still reads slower. Probe time is left out of every
interval measured with ``now``.
"""

import statistics
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

PROBE_REF_S = 0.004  # the probe's median on the machine the bounds were set on


class Clock:
    """``now`` without the probes' time; ``speed`` for an interval of it."""

    def __init__(self, probing=True):
        self.probing = probing
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(64, 256))
        self._b = rng.normal(size=(256, 256))
        self._x = rng.normal(size=50_000)
        self._image = rng.normal(size=(16, 26, 50))  # padded 16x24x48 map
        self._kernel = rng.normal(size=(16, 16 * 3 * 3))
        self._points = rng.normal(size=(300, 2))
        self._seg_a = rng.normal(size=(60, 2))
        self._seg_ab = rng.normal(size=(60, 2))
        self._excluded = 0.0
        self.readings = []  # (clock time, probe seconds)

    def now(self):
        return time.perf_counter() - self._excluded

    def probe(self):
        if not self.probing:
            return
        t0 = time.perf_counter()
        for _ in range(3):
            self._a @ self._b
        for _ in range(4):
            np.sqrt(self._x * self._x + 1.0).sum()
        for _ in range(2):
            win = sliding_window_view(self._image, (3, 3), axis=(1, 2))
            cols = np.ascontiguousarray(win.transpose(0, 3, 4, 1, 2)).reshape(144, -1)
            (self._kernel @ cols).sum()
        ap = self._points[:, None, :] - self._seg_a[None]
        ab = self._seg_ab[None]
        t = np.clip((ap * ab).sum(-1) / (ab * ab).sum(-1), 0.0, 1.0)
        d = ap - t[..., None] * ab
        np.sqrt((d * d).sum(-1)).min(axis=1).sum()
        total = 0
        for i in range(15_000):
            total += i
        took = time.perf_counter() - t0
        self.readings.append((t0 - self._excluded, took))
        self._excluded += took

    def speed(self, start, end):
        """PROBE_REF_S over the median probe taken within [start, end] or
        nearest to it on either side; 1.0 when nothing was probed."""
        inside = [d for t, d in self.readings if start <= t <= end]
        before = [d for t, d in self.readings if t < start][-1:]
        after = [d for t, d in self.readings if t > end][:1]
        sample = before + inside + after
        return PROBE_REF_S / statistics.median(sample) if sample else 1.0
