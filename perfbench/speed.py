"""The machine's speed over time, sampled from a timer signal, and quiet seconds.

On a shared machine other tenants slow a process down, by up to 1.8x and for
stretches of seconds to minutes, so the wall time of a pass follows their
load more than the program's cost.  While a run measures, a timer signal
interrupts the process every ``INTERVAL`` seconds and times a fixed loop of
integer arithmetic.  A sample that took ``d`` seconds says the process ran
at ``REFERENCE_LOOP_S / d`` of the reference machine's unloaded speed.

A stretch of wall time is then counted in *quiet seconds*: each piece
between two samples is scaled by ``REFERENCE_LOOP_S / d`` of the sample that
ends it, and the samples' own time counts zero.  Quiet seconds are the
seconds the same work takes on the reference machine when nothing else
slows it: a slower program takes more of them, a busier machine does not.
They add up over adjacent stretches, so a span's self time is its quiet
duration minus its children's, as in wall seconds.

The reference is a constant, not the fastest sample of a run: a run may see
no unloaded moment at all, and its own fastest sample would then scale all
of its times up.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL = 0.004  # seconds between samples
# seconds the loop takes on the reference machine, unloaded: a 2-vCPU virtual
# machine (Intel Xeon, 2.1 GHz) with Python 3.11
REFERENCE_LOOP_S = 13.5e-6


def _loop():
    total = 0
    for i in range(300):
        total += i * i
    return total


class SpeedProbe:
    """Samples (start, duration) of the fixed loop while it runs."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        self._sampling = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        # the timer is inherited across exec: it must be off before a child starts
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        if self._sampling:  # a signal that arrived during a sample: samples must not nest
            return
        self._sampling = True
        start = time.perf_counter()
        _loop()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)
        self._sampling = False

    def clock(self):
        """Wall time -> quiet seconds since the first sample."""
        starts, durations = self.starts, self.durations
        if not starts:
            raise ValueError("no speed samples")
        ends = [s + d for s, d in zip(starts, durations)]
        at_start = [0.0]  # the clock at each sample's start; it stands still during a sample
        for i in range(1, len(starts)):
            at_start.append(at_start[-1] + (starts[i] - ends[i - 1]) * REFERENCE_LOOP_S / durations[i])

        def read(t):
            i = bisect.bisect_right(starts, t)
            if i == 0:
                return (t - starts[0]) * REFERENCE_LOOP_S / durations[0]
            if t < ends[i - 1]:
                return at_start[i - 1]
            weight = durations[i] if i < len(starts) else durations[-1]
            return at_start[i - 1] + (t - ends[i - 1]) * REFERENCE_LOOP_S / weight

        return read

    def slowdown(self) -> float:
        """The median sample over the reference: how much slower than unloaded the run was."""
        return statistics.median(self.durations) / REFERENCE_LOOP_S
