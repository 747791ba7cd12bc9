"""The benchmark's speed reference, timed inside every job.

A shared virtual machine runs the same code up to 1.8x slower for seconds or
minutes at a time, which no number of samples in one run evens out.  So each
job times a fixed chunk of work of the kind realgw does when it starts,
every INTERVAL_S seconds while it runs, and when it ends, and run.py scales
the job's time by CHUNK_S over the mean chunk time.  The chunks are evenly
spaced in time, so their mean is the job's average slowness, which is what
its time is made of; a median would miss a slow spell shorter than half the
job.  A time then reads as it would on a machine on which a chunk takes
CHUNK_S.  The chunk is the benchmark's own code, so a change to realgw moves
the job's time and not the chunk's.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# About the mean time of one chunk on the machine named in README.md.  It
# fixes the unit of the reported times, nothing else.
CHUNK_S = 0.015
# Wall time between chunks inside a running job.
INTERVAL_S = 0.5


def chunk() -> tuple[float, float]:
    """Time one chunk, in wall and in CPU seconds: fill a dict of tuple keys
    and Fraction values, as realgw's sparse polynomials are, then walk it.

    The table takes about 2 MB, so the chunk, like a job, feels a slower
    memory system as well as a slower CPU.  The collector is off meanwhile,
    so the chunk does not make the job collect its own objects.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start, start_cpu = time.perf_counter(), time.process_time()
        table = {}
        for i in range(10000):
            table[(i % 101, i // 101, str(i))] = Fraction(i, 1 + i % 17)
        total = 0
        for key, value in table.items():
            total += value.numerator * key[0]
        del table
        return time.perf_counter() - start, time.process_time() - start_cpu
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times a chunk on start(), on every SIGALRM tick, and on stop()."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(chunk())

    def start(self) -> "Sampler":
        self.samples.append(chunk())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> list[tuple[float, float]]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples.append(chunk())
        return self.samples
