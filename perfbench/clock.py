"""Timers for the benchmark: plain wall time, and wall time scaled by host speed.

The benchmark runs on shared hosts whose speed changes by up to about 1.8x
in phases that last from a second to minutes, so raw wall time of the same
code spreads by 30% from one run to the next. HostClock keeps that out of
the end-to-end times: while it runs, a timer signal interrupts the timed code
every INTERVAL seconds to time a small fixed calibration job, and each slice
of wall time between two samples is scaled by REFERENCE_S over the job's time
around that slice. The calibration runs in the benchmark's own code and
stdlib only, so no change to the library moves it; its own time is left out
of the measurement.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

# Seconds between calibration samples while a HostClock runs.
INTERVAL = 0.02

# The calibration job's time, in seconds, on the reference host in its fast
# phase (a 2-CPU Intel Xeon at 2.1 GHz, Python 3.11). A HostClock reading is
# the time the timed code would have taken there.
REFERENCE_S = 0.00080


def calibration():
    """A fixed job of exact polynomial arithmetic, formatting and parsing,
    the kind of work the library does; under a millisecond."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(3) for j in range(3)}
    b = {(i, j): i * 3 - j for i in range(4) for j in range(3)}
    product = {}
    for (i, j), c in a.items():
        for (k, m), d in b.items():
            product[i + k, j + m] = product.get((i + k, j + m), 0) + c * d
    text = " + ".join(f"{c}*x^{i}*y^{j}" for (i, j), c in sorted(product.items()))
    parsed = {}
    for term in text.split(" + "):
        c, x, y = term.split("*")
        parsed[int(x[2:]), int(y[2:])] = Fraction(c)
    return parsed == product


class WallClock:
    """Wall time of the body of a with-statement, in `seconds`."""

    def __init__(self):
        self.seconds = 0.0

    def __enter__(self):
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = perf_counter() - self._start
        return False


class HostClock:
    """Wall time of the body of a with-statement at reference host speed.

    `seconds` is the sum over the slices between calibration samples of each
    slice's wall time times REFERENCE_S over the mean of the calibration times
    at its two ends; `raw_seconds` is the unscaled sum. One sample is taken
    just before the body and one just after it. HostClocks do not nest: they
    share the process's real-time interval timer.
    """

    def __init__(self):
        self.seconds = 0.0
        self.raw_seconds = 0.0

    def _sample(self, *_):
        t0 = perf_counter()
        calibration()
        self._samples.append((t0, perf_counter()))

    def __enter__(self):
        self._samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        # Disarm first, so that no sample can start after `end`.
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        samples = self._samples
        # The timed slices run from one sample's end to the next's start.
        begins = [self._start] + [t1 for _, t1 in samples[1:-1]]
        stops = [t0 for t0, _ in samples[1:-1]] + [end]
        for i, (begin, stop) in enumerate(zip(begins, stops)):
            speed = sum(1 / (t1 - t0) for t0, t1 in samples[i:i + 2]) / 2
            self.raw_seconds += stop - begin
            self.seconds += (stop - begin) * REFERENCE_S * speed
        return False
