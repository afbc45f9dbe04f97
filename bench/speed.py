"""Host-speed scaling of measured times.

The shared 2-core host these numbers come from changes speed by up to
±25 % within seconds and by more over minutes (a fixed pure-Python loop
drifts that much).  Raw wall times of identical work then spread by about
20 % between runs, close to the largest regression bound.  So every time
the benchmark reports is scaled to a reference speed: a short calibration
loop is timed before and after each measured interval, and the interval is
multiplied by CAL_REF_S / (mean of the two calibration times).  The loop is
interpreter work of the same kind as the library's (dicts, tuples, small
ints), so it slows down with the host when the jobs do: in a 60 s test,
10 s windowed medians of fixed jobs spread by about 20 % raw and 2 % scaled.
Drift inside a long job is only seen at its two ends, so multi-second jobs
keep more of it.

Scaled seconds are "seconds at reference speed", where the calibration
loop takes CAL_REF_S.  The raw figures are printed beside the scaled ones.
The scaling assumes the library does not change the interpreter's speed for
unrelated code (by starting threads at import, say); such a change would
slow the calibration loop as well and be hidden.
"""

from __future__ import annotations

from time import perf_counter

CAL_REF_S = 600e-6      # about the loop's busy-host time on the reference host


def _loop():
    d = {}
    s = 0
    for i in range(2000):
        key = (i & 127, i & 7)
        d[key] = d.get(key, 0) + i * i % 7
        s += len(d)
    return s


def calibrate():
    """Seconds the calibration loop takes right now (best of 3)."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _loop()
        best = min(best, perf_counter() - t0)
    return best


class Speed:
    """Scales consecutive intervals by the calibrations that bracket them."""

    def __init__(self):
        self._last = calibrate()

    def mark(self):
        """Calibrate now; the next interval is scaled against this point."""
        self._last = calibrate()

    def scaled(self, raw_s):
        """raw_s (just measured, started after the last mark) at reference speed."""
        now = calibrate()
        factor = CAL_REF_S / ((self._last + now) / 2)
        self._last = now
        return raw_s * factor
