"""Host-speed probe.

The benchmark shares its host: for tens of seconds at a time, other
tenants can slow every instruction of this process by up to half, and
the slowdown shows in CPU time as much as in wall time. A fixed piece of
work timed right before and right after each timed call measures the
host's speed during that call; dividing the call's wall time by the
probe's slowdown against :data:`REFERENCE_S` gives the call's duration
on the host at reference speed. The probe mixes what the program does:
dict and tuple churn, a heap, float arithmetic and small NumPy slices.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: Probe duration, in seconds, that counts as reference host speed.
#: Fixed for good: changing it rescales every normalized figure.
REFERENCE_S = 0.02

_ITERATIONS = 30_000


def _work() -> float:
    table: dict[tuple[int, int], float] = {}
    heap: list[tuple[int, int]] = []
    values = np.arange(64, dtype=float)
    acc = 0.0
    for i in range(_ITERATIONS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + i * 0.5
        if i % 4 == 0:
            heapq.heappush(heap, ((i * 7919) % 1000, i))
        if i % 16 == 0:
            acc += float(values[i % 32:i % 32 + 16].sum())
    while heap:
        acc += heapq.heappop(heap)[0]
    return acc + sum(table.values())


def probe() -> float:
    """Seconds the probe work takes on the host right now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def slowdown(before: float, after: float) -> float:
    """How much slower than reference the host ran between two probes."""
    return (before + after) / (2.0 * REFERENCE_S)
