"""Timing that corrects for the machine's own speed drift.

On a shared machine the speed of one core drifts by 20% and more over tens
of seconds, whatever the benchmark does; a plain spin loop shows it.  Longer
runs do not average it out.  So the timed loop is cut into segments of about
``INTERVAL_S``, and between segments the clock times a fixed calibration
kernel; the pause is left out of every time reported.  Each segment's wall
and CPU time is scaled by ``NOMINAL_S / kernel time``, the kernel time being
the mean over the calibrations within ``SMOOTH_S`` of the segment.  That
expresses it in seconds of a machine running the kernel in ``NOMINAL_S``.
The kernel is the benchmark's own code, not percop's, so a change to percop
moves the scaled times exactly as it moves the raw ones.  Raw times are kept
too and reported next to the scaled ones.
"""

from __future__ import annotations

import statistics
from collections import deque
from time import perf_counter, process_time

INTERVAL_S = 0.05
SMOOTH_S = 1.0
# kernel time on the reference machine (2-core Intel Xeon VM, Python 3.11.7,
# at its faster speed)
NOMINAL_S = 0.0003
KERNEL_STEPS = 200
KERNEL_REPEATS = 3


def _kernel(steps):
    """Small attractors, run until ``steps`` states were popped: the kinds of
    interpreter work percop's solver does (deque, bytearray and list
    indexing, divmod, a tuple-keyed dict, fresh arrays per solve)."""
    n = 64
    done = 0
    while done < steps:
        win = bytearray(n * 8)
        counter = [3] * (n * 8)
        succ = {}
        queue = deque(range(0, n * 8, 7))
        for s in queue:
            win[s] = 1
        while queue:
            s = queue.popleft()
            done += 1
            t, r = divmod(s, n)
            key = (t, r & 7)
            nbrs = succ.get(key)
            if nbrs is None:
                nbrs = succ[key] = [((t * 5 + i) % 8) * n + (r + i) % n for i in range(4)]
            for s2 in nbrs:
                if not win[s2]:
                    c = counter[s2] - 1
                    counter[s2] = c
                    if c <= 0:
                        win[s2] = 1
                        queue.append(s2)
    return done


def calibrate():
    """Best of a few kernel runs, so one interrupt does not count."""
    best = None
    for _ in range(KERNEL_REPEATS):
        t0 = perf_counter()
        _kernel(KERNEL_STEPS)
        dt = perf_counter() - t0
        if best is None or dt < best:
            best = dt
    return best


class SpeedClock:
    """Segment clock for one timed loop.

    Call ``start`` before the loop, ``checkpoint`` wherever a pause is
    harmless (between ops, between solver calls) and ``stop`` after it.
    ``op(t0, t1)`` records an op by its ``perf_counter`` bounds; a
    calibration that falls inside an op is not counted in its time.
    """

    def __init__(self):
        self.calibrations = []
        self.segments = []   # (start, end, raw cpu) per segment
        self.ops = []        # (start, end) per op
        self._t0 = self._c0 = None

    def start(self):
        self.calibrations.append((perf_counter(), calibrate()))
        self._t0, self._c0 = perf_counter(), process_time()

    def checkpoint(self):
        if perf_counter() - self._t0 >= INTERVAL_S:
            self._close()
            self.start()

    def stop(self):
        self._close()
        self.calibrations.append((perf_counter(), calibrate()))

    def _close(self):
        self.segments.append((self._t0, perf_counter(), process_time() - self._c0))

    def op(self, t0, t1):
        self.ops.append((t0, t1))

    def factors(self):
        """Per segment: NOMINAL_S over the mean kernel time within SMOOTH_S.

        One kernel run samples the machine's speed for a millisecond, and
        that speed also flickers from one 50 ms slice to the next; the mean
        over a window follows the slower drift that the scaling is for.
        """
        cal = self.calibrations
        out = []
        lo = hi = 0
        total = 0.0
        for start, end, _cpu in self.segments:
            while hi < len(cal) and cal[hi][0] <= end + SMOOTH_S:
                total += cal[hi][1]
                hi += 1
            while cal[lo][0] < start - SMOOTH_S:
                total -= cal[lo][1]
                lo += 1
            out.append(NOMINAL_S / (total / (hi - lo)))
        return out

    def _op_times(self, factors):
        """(scaled, raw) time of each op, in op order: its overlap with the
        segments."""
        segs = self.segments
        scaled, raw = [], []
        j = 0
        for t0, t1 in self.ops:
            while j < len(segs) and segs[j][1] <= t0:
                j += 1
            s = r = 0.0
            k = j
            while k < len(segs) and segs[k][0] < t1:
                overlap = min(t1, segs[k][1]) - max(t0, segs[k][0])
                if overlap > 0:
                    s += overlap * factors[k]
                    r += overlap
                k += 1
            scaled.append(s)
            raw.append(r)
        return scaled, raw

    def summary(self):
        """Scaled and raw totals of the loop and its ops."""
        factors = self.factors()
        op_s, raw_op_s = self._op_times(factors)
        return {
            "wall_s": sum((b - a) * f for (a, b, _c), f in zip(self.segments, factors)),
            "cpu_s": sum(c * f for (_a, _b, c), f in zip(self.segments, factors)),
            "raw_wall_s": sum(b - a for a, b, _c in self.segments),
            "raw_cpu_s": sum(c for _a, _b, c in self.segments),
            "op_s": op_s,
            "raw_op_s": raw_op_s,
            "speed": {
                "calibrations": len(self.calibrations),
                "kernel_s_median": statistics.median(c for _t, c in self.calibrations),
                "factor_min": min(factors),
                "factor_max": max(factors),
            },
        }


def timed_setup(fn):
    """Run ``fn`` once; return (result, scaled seconds, raw seconds)."""
    before = calibrate()
    t0 = perf_counter()
    result = fn()
    raw = perf_counter() - t0
    after = calibrate()
    return result, raw * NOMINAL_S / ((before + after) / 2), raw
