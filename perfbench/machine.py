"""The machine's speed during a run, read from a fixed reference loop.

On a shared host the CPU's speed moves in phases, some lasting minutes: the
same job runs up to twice as long in one phase as in another, so a wall
time measured in one run says as much about the phase as about the
program.  A run therefore also times :func:`reference_loop`, a fixed
piece of interpreter work that calls nothing in the library, and reports
times in *reference seconds*: wall seconds scaled by ``REFERENCE_SECONDS``
over the loop's mean time around the stretch being timed.  On a machine
whose loop takes ``REFERENCE_SECONDS`` a reference second is a wall
second.  Phases also change within seconds, so each op (and each pump of
the stream) is scaled by the readings next to it, not by a run-wide one.
Time spent waiting for the stream's open-loop schedule stays in wall
seconds: a faster machine would not shorten it.

The loop runs between ops, when the program has no work in flight (a
batch op starts and stops its own shard processes), and in the stream's
waits for its next batch, when every shard server is blocked waiting for
the next command.  A change to the program therefore cannot move the
reference, only the figures scaled by it.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter
from typing import List, Tuple

#: Iterations of one :func:`reference_loop` call.
REFERENCE_ITERATIONS = 20_000
#: The loop's time on the reference machine: a 2.1 GHz Xeon vCPU of a shared
#: host in its fast phase (its slow phases read 15-18 ms).
REFERENCE_SECONDS = 0.009
#: Loop calls per reading between ops; a reading is their median time.
CALLS_PER_READING = 5
#: Smallest wait for the stream's next batch that takes a one-call reading.
READING_SLACK = 0.03


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def weight(self) -> int:
        return self.value - self.key


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> int:
    """Interpreter work shaped like the engines': calls, dicts, lists, small objects."""
    table = {}
    pending: List[_Cell] = []
    total = 0
    for i in range(iterations):
        key = i & 1023
        table[key] = _Cell(key, i)
        hit = table.get((i >> 1) & 1023)
        if hit is not None:
            total += hit.weight()
            pending.append(hit)
        if len(pending) > 64:
            total += len({cell.key for cell in pending})
            pending.clear()
    return total


class Speedometer:
    """Reference-loop readings along a run, and the scale they give a stretch of it."""

    def __init__(self) -> None:
        #: ``(start, end, seconds)`` of every reading, in order.
        self.readings: List[Tuple[float, float, float]] = []
        self.read()

    def read(self, calls: int = CALLS_PER_READING) -> None:
        """Take one reading: the median time of ``calls`` loop calls.

        The collector is off while the loop runs (the loop makes no cycles),
        so the size of the program's heap cannot move the reading.
        """
        start = perf_counter()
        times = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(calls):
                began = perf_counter()
                reference_loop()
                times.append(perf_counter() - began)
        finally:
            if enabled:
                gc.enable()
        self.readings.append((start, perf_counter(), statistics.median(times)))

    def scale(self, began: float, ended: float) -> float:
        """Reference seconds per wall second over ``[began, ended]``.

        Averages the last reading before the stretch, every reading inside
        it and the first reading after it.
        """
        before = [seconds for _, end, seconds in self.readings if end <= began][-1:]
        inside = [seconds for start, end, seconds in self.readings
                  if began < start and end < ended]
        after = [seconds for start, _, seconds in self.readings if start >= ended][:1]
        return REFERENCE_SECONDS / statistics.mean(before + inside + after)
