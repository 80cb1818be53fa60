"""The host's speed, sampled while a CLI child runs.

The measuring VM's CPU speed drifts by up to 1.8x in phases that last
minutes, longer than a run.  Raw host times therefore spread between
runs by as much as the bound allows, however long a run is (NOTES.md,
"Noise").  Each timed child is paused now and then while the parent
times one :func:`burst` of fixed pure-Python work, so the bursts sample
the speed at which the child itself ran.  A time scaled by
:func:`scale` is the time the work would take at the reference speed,
where one burst takes ``REFERENCE_BURST_S``.

This module imports nothing from the program: the burst is the
benchmark's own code, so no change to the program moves it.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Sequence

REFERENCE_BURST_S = 0.006
"""A burst's duration at the reference speed: about its mean during CLI
children on the 2.1 GHz Xeon VM the benchmark was built on, where it
ranged 4.5-8 ms with that VM's speed."""

SAMPLE_EVERY_S = 0.1
"""How often a timed child is paused for one burst.  A burst of about
6 ms every 0.1 s adds about 6% to a run's duration; bursts vary by
about 20-25% each, so an 11 s child's hundred bursts give its mean
speed within about 2.5%, against 4% at one burst every 0.25 s."""


def _dict_loop() -> int:
    table: dict[int, int] = {}
    total = 0
    for index in range(12000):
        key = index & 511
        table[key] = table.get(key, 0) + index
        total += len(table) ^ index
    return total


class _Event:
    __slots__ = ("cycle", "index")

    def __init__(self, cycle: int, index: int) -> None:
        self.cycle = cycle
        self.index = index


def _event_loop() -> int:
    heap: list[tuple[int, int, _Event]] = []
    for index in range(1500):
        event = _Event((index * 7919) % 1013, index)
        heapq.heappush(heap, (event.cycle, event.index, event))
    now = done = 0
    while heap:
        cycle, index, event = heapq.heappop(heap)
        now = max(now, cycle)
        if event.cycle <= now:
            done += 1
        done += len(sorted(range(index & 7)))
    return done


def burst() -> float:
    """Seconds one fixed unit of pure-Python work takes right now.

    The work mimics the braid simulator's inner loop: dict updates,
    a heap of events on slotted objects, and small sorts.
    """
    start = time.perf_counter()
    _dict_loop()
    _event_loop()
    return time.perf_counter() - start


def scale(bursts: Sequence[float]) -> float:
    """Factor that turns host seconds measured while ``bursts`` were
    taken into seconds at the reference speed.

    The mean, not the median: bursts come at even intervals, so their
    mean weighs every moment of the child's run alike, as its duration
    does.
    """
    return REFERENCE_BURST_S / statistics.fmean(bursts)
