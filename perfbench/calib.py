"""Wall time at a reference machine speed.

On a shared host the CPU speed seen by one process drifts by up to about
1.8x over minutes, so raw wall times of identical work spread far more than
any change worth detecting. A Clock therefore runs a short calibration loop
(exact Fraction products accumulated in a dict, the shape of the cl8 product
kernel, using only the standard library) between segments of work, and
rescales each segment by REFERENCE_S / probe time. The result reads as the
wall time the work would take at the speed where the loop takes REFERENCE_S.
A change to cl8 moves it as it moves raw time, since the loop runs no cl8
code; probe time is kept out of both totals.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# best-of-three probe time on an idle 2-vCPU shared VM, Python 3.11.7
REFERENCE_S = 0.0009

# a segment ends at the first tick at least this long after it started
SEGMENT_S = 0.2


def _loop() -> dict:
    out = {}
    for a in range(1, 17):
        ca = Fraction(a % 5 - 2, 2)
        for b in range(1, 17):
            c = ca * Fraction(b % 3 - 1, 4)
            key = a ^ b
            cur = out.get(key)
            out[key] = c if cur is None else cur + c
    return out


def probe_s() -> float:
    """Best of three timings of the calibration loop, with the cyclic GC
    off so the program's heap size does not leak into the probe."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return best


class Clock:
    """Accumulates raw wall time and reference-speed time of work segments."""

    def __init__(self):
        self.raw_s = 0.0
        self.ref_s = 0.0
        self._mark = time.perf_counter()

    def tick(self, force: bool = False) -> None:
        """Close the current segment if it is long enough (or if forced)."""
        segment = time.perf_counter() - self._mark
        if force or segment >= SEGMENT_S:
            self.raw_s += segment
            self.ref_s += segment * REFERENCE_S / probe_s()
            self._mark = time.perf_counter()


def at_reference(seconds: float) -> float:
    """Rescale a duration just measured, using a probe taken right after it."""
    return seconds * REFERENCE_S / probe_s()
