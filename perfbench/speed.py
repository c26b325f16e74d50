"""Timing at a reference CPU speed.

The cores of a small shared machine change speed under the benchmark:
each core alternates between states up to 1.5 to 2 times apart, for
seconds at a time and independently of the other core, so the wall
time of a 6 to 14 second command differs by 30% from one run to the
next.  A ``SpeedSampler`` interrupts the process every ``PERIOD``
seconds (every ``FAST_PERIOD`` at first) and times a fixed routine
(``calibrate``) on the same core.  An
interval's time at reference speed is its wall time, less the sampling,
scaled by how much slower than ``NOMINAL_S`` the routine ran around it.

The routine walks a few megabytes of small frozen dataclass objects,
builds tuples from generators, looks tuple keys up in a dict and
divides a large integer, as doctrina does.  The garbage collector is off while it runs, so a
collection of the program's heap never lands in a sample.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from dataclasses import dataclass

PERIOD = 0.02
FAST_PERIOD = 0.002  # for the first FAST_SAMPLES, so short calls get samples too
FAST_SAMPLES = 20
STEPS = 150
WINDOW = 0.25  # seconds of samples either side of a short interval
# duration of ``calibrate`` between slices of doctrina's work on an
# unloaded core of a 2-vCPU VM with Python 3.11; it only sets the scale
# of reference times
NOMINAL_S = 250e-6


@dataclass(frozen=True)
class _Node:
    a: int
    b: tuple


_POOL = [_Node(i, tuple(range(i % 5))) for i in range(20000)]
_STRIDE = 7919
_BIG = 5 ** 6000  # a cost vector of 6000 digits, as the tropical codec sees


def calibrate(start: int, seen: dict) -> int:
    acc = 0
    for n in _POOL[start:start + STEPS]:
        k = (n.a & 255, n.b)
        seen[k] = seen.get(k, 0) + 1
        acc += len(tuple(x + 1 for x in n.b))
    x = _BIG + start
    for _ in range(16):
        x //= 5
        acc ^= x & 255
    return acc


class SpeedSampler:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._pos = 0
        self._seen: dict = {}
        self._previous = None

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        calibrate(self._pos, self._seen)
        self.durations.append(time.perf_counter() - t)
        if collecting:
            gc.enable()
        self.starts.append(t)
        self._pos = (self._pos + _STRIDE) % (len(_POOL) - STEPS)
        if len(self.durations) == FAST_SAMPLES:
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, FAST_PERIOD, FAST_PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_time(self, t0: float, t1: float) -> float:
        """The program's time in [t0, t1] (``perf_counter`` readings) at
        reference speed: wall time less sampling, times the mean slowdown
        of the samples inside the interval, or within ``WINDOW`` of it
        when the interval is too short to hold a few."""
        def between(a: float, b: float) -> list[float]:
            lo = bisect.bisect_left(self.starts, a)
            return self.durations[lo:bisect.bisect_left(self.starts, b, lo)]

        inside = between(t0, t1)
        own = (t1 - t0) - sum(inside)
        near = inside if len(inside) >= 5 else between(t0 - WINDOW, t1 + WINDOW)
        if not near:
            return own
        return own * NOMINAL_S * sum(1 / d for d in near) / len(near)
