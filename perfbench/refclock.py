"""A clock that runs at a fixed host speed, for timing on a shared host.

The benchmark runs on a share of cores that other tenants use too.  As their
load comes and goes, the same pure-Python code runs up to 1.7 times slower or
faster, switching within a second (see "Host speed" in README.md).  Wall
time then measures the neighbours as much as the program.

:class:`RefClock` samples the host's speed while the program runs.  Every
``SAMPLE_EVERY_S`` of process CPU time, a SIGPROF handler runs a fixed
pure-Python kernel, which shares no code with the package, and times it.
The host's speed is ``REFERENCE_S`` over the median of the last
``MEDIAN_OF`` kernel times, raised to the power ``SENSITIVITY``.  The clock
advances by wall time multiplied by that speed, so a stretch of work reads
about the same whether the host was fast or slow while it ran.  The kernel's own time is left out.  On a host where the
kernel takes ``REFERENCE_S``, the clock keeps pace with the wall clock.
"""

from __future__ import annotations

import signal
from collections import deque
from statistics import median
from time import perf_counter

# Median kernel time on the 2-vCPU Xeon VM where the benchmark was written.
REFERENCE_S = 150e-6
SAMPLE_EVERY_S = 0.01
MEDIAN_OF = 3
# The package's code slows down less than the kernel when the host does.  Of
# the powers 0.5 to 1.0, 0.8 left the least spread in pass totals and in
# single instances on each of the three workloads.
SENSITIVITY = 0.8


def kernel() -> int:
    """Fixed interpreter work: dict reads and writes in a tight loop."""
    table: dict[int, int] = {}
    total = 0
    for i in range(600):
        table[i & 127] = table.get(i & 127, 0) + i
        total += len(table)
    return total


def _time_kernel() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


class RefClock:
    """Seconds at the reference host speed; call it like ``perf_counter``.

    Use it as a context manager: the sampler runs only inside the block.
    """

    def __init__(self) -> None:
        self.samples = [_time_kernel() for _ in range(MEDIAN_OF)]
        self._recent = deque(self.samples, maxlen=MEDIAN_OF)
        # One attribute, read and replaced whole, so that a sample taken in
        # the middle of a reading cannot mix old and new state.
        self._state = (0.0, perf_counter(), self._speed())
        self._previous = None

    def _speed(self) -> float:
        return (REFERENCE_S / median(self._recent)) ** SENSITIVITY

    def __call__(self) -> float:
        base, last, speed = self._state
        return base + (perf_counter() - last) * speed

    def _sample(self, signum, frame) -> None:
        base, last, speed = self._state
        start = perf_counter()
        took = _time_kernel()
        self.samples.append(took)
        self._recent.append(took)
        self._state = (base + (start - last) * speed, perf_counter(), self._speed())

    def __enter__(self) -> RefClock:
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
