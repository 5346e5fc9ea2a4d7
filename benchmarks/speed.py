"""CPU-speed probe that runs interleaved with the measured work.

The machines this benchmark runs on share their cores with other tenants,
and their speed drifts by up to 2x over seconds to minutes.  A wall time
alone then measures the neighbours as much as the engine.  The probe runs
a fixed piece of pure-Python ``Fraction`` arithmetic (the same kind of work
the engine does) from a ``SIGALRM`` handler every few milliseconds, in the
measured process itself, so that its samples fall in the same time slices
as the work being timed.

A measured interval is then reported as::

    (wall time - time spent in the probe) * mean(probe speed) * REF_OP_S

where a probe's speed is 1 / its duration.  Averaging speeds (not
durations) over samples spread evenly in wall time gives the fraction of
the interval's wall time the engine would have needed at full speed, so the
result is the interval's time on an uncontended core, in seconds, whatever
the neighbours did.  ``REF_OP_S`` is the probe's duration on an uncontended
2.1 GHz core of the machine the benchmark was written on; it only fixes the
unit and is the same for every commit compared.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REF_OP_S = 0.55e-3
_STEP = Fraction(1, 7)


def _reference_op() -> Fraction:
    x = Fraction(1, 3)
    total = Fraction(0)
    for k in range(150):
        total += x * (k * _STEP)
    return total


class SpeedProbe:
    """Samples the CPU speed from a timer signal while it is started."""

    def __init__(self, interval_s: float = 0.02):
        self.interval_s = interval_s
        self.probe_s = 0.0      # wall time spent inside the probe
        self.samples = 0
        self.speed_sum = 0.0    # sum of 1 / probe duration
        self.on_sample = None   # called with each probe's duration
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _reference_op()
        took = time.perf_counter() - start
        self.probe_s += took
        self.samples += 1
        self.speed_sum += 1.0 / took
        if self.on_sample is not None:
            self.on_sample(took)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self) -> "Mark":
        return Mark(time.perf_counter(), self.probe_s, self.samples,
                    self.speed_sum)


class Mark:
    """A point in time with the probe's running totals."""

    __slots__ = ("wall", "probe_s", "samples", "speed_sum")

    def __init__(self, wall, probe_s, samples, speed_sum):
        self.wall = wall
        self.probe_s = probe_s
        self.samples = samples
        self.speed_sum = speed_sum


ORIGIN = Mark(0.0, 0.0, 0, 0.0)   # before a probe's first sample


def net_wall(start: Mark, end: Mark) -> float:
    """Wall time between two marks, without the probe's own time."""
    return (end.wall - start.wall) - (end.probe_s - start.probe_s)


def mean_speed(start: Mark, end: Mark) -> float | None:
    """Mean probe speed (1/s) between two marks, or None without samples."""
    n = end.samples - start.samples
    if n <= 0:
        return None
    return (end.speed_sum - start.speed_sum) / n


def normalized(seconds: float, speed: float) -> float:
    """Seconds at the probe's reference speed."""
    return seconds * speed * REF_OP_S
