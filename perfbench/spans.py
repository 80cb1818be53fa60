"""Spans of the traced run and the per-layer metrics derived from them.

A span is the list ``[name, start, end, parent, point, family]``:
``parent`` is the index of the enclosing span (None for the root),
``point`` is the grid point's ``point`` key digest (or the Figure 9
variant label) shared by every span under that point, and ``family``
is the braid policy family of a ``braid_sim`` span.  Spans stay in
memory and are written out once, when the traced run ends.

This module imports nothing from the program, so the benchmark's
parent process and its tests use it without the checkout's ``src/``.
"""

from __future__ import annotations

import contextlib
import time
from typing import Iterator, Optional, Sequence

NAME, START, END, PARENT, POINT, FAMILY = range(6)


class Tracer:
    """Records nested spans in memory.

    A span without an explicit ``point`` inherits its parent's, or
    else ``group``: traced.py sets ``group`` to the Figure 9 variant
    being calibrated, which has no ``point`` stage of its own.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.group: Optional[str] = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        point: Optional[str] = None,
        family: Optional[str] = None,
    ) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        if point is None and parent is not None:
            point = self.spans[parent][POINT]
        if point is None:
            point = self.group
        record = [name, time.perf_counter(), None, parent, point, family]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._open.pop()


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END])
            )
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


LAYER_SPANS: dict[str, tuple[str, ...]] = {
    "network.braid_sim_s": (
        "braid_sim/reactive", "braid_sim/reservation", "braid_sim/scoreboard",
    ),
    "network.braid_plan_s": ("braid_plan",),
    "network.simd_epr_s": ("simd_epr",),
    "frontend.lowered_s": ("lowered",),
    "frontend.dag_s": ("frontend",),
    "frontend.scaling_calib_s": ("scaling_calib",),
    "partition.layout_s": ("layout",),
    "arch.simd_s": ("simd",),
    "core.model_s": ("scaling", "accounting", "crossover"),
    "runner.disk_store_s": ("store_payload",),
    "runner.disk_load_s": ("load_payload",),
    "runner.sweep_s": ("root", "point"),
}
"""Self-time metric -> the span keys (see :func:`span_seconds`) it
sums.  The metrics partition the spans, so they add up with
``trace.unattributed_s`` to the traced wall time; a span named nowhere
here lands in ``trace.unattributed_s``.  Span keys that are 0 on every
run of some workload -- the reservation and scoreboard families, the
``crossover`` span, the ``point`` stage -- are folded into a metric
that is not, since the benchmark format admits no time that reads
the same on every run.  run.py still prints every span key."""

PER_LAYER: tuple[tuple[str, str], ...] = (
    ("network.braid_sim_s", "s"),
    ("network.braid_sim_reactive_s", "s"),
    ("network.us_per_braid", "us"),
    ("network.braid_plan_s", "s"),
    ("network.plan_builds", "count"),
    ("network.simd_epr_s", "s"),
    ("frontend.lowered_s", "s"),
    ("frontend.lowered_ops", "count"),
    ("frontend.us_per_op", "us"),
    ("frontend.dag_s", "s"),
    ("frontend.scaling_calib_s", "s"),
    ("partition.layout_s", "s"),
    ("arch.simd_s", "s"),
    ("core.model_s", "s"),
    ("runner.disk_store_s", "s"),
    ("runner.disk_stores", "count"),
    ("runner.disk_stored_mb", "MB"),
    ("runner.disk_load_s", "s"),
    ("runner.sweep_s", "s"),
    ("runner.cache_computed", "count"),
    ("runner.cache_reused", "count"),
    ("runner.reuse_ratio", "ratio"),
    ("network.sim_cycles", "cycles"),
    ("network.braids", "count"),
    ("network.adaptive_routes", "count"),
    ("network.drops", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)
"""Every metric ``--trace 1`` prints, with its unit, in print order."""

COUNTERS: tuple[str, ...] = (
    "network.sim_cycles",
    "network.braids",
    "network.adaptive_routes",
    "network.drops",
    "network.plan_builds",
    "frontend.lowered_ops",
    "runner.cache_computed",
    "runner.cache_reused",
    "runner.disk_stores",
    "runner.disk_stored_mb",
)
"""Deterministic counts: identical on every run of one commit, and
moved only by a change to simulated behaviour or to what is stored."""

def span_seconds(spans: Sequence[Sequence]) -> dict[str, float]:
    """Self time summed per span key: the span's name, and for
    ``braid_sim`` spans ``braid_sim/<family>``."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        key = span[NAME]
        if span[FAMILY] is not None:
            key += "/" + span[FAMILY]
        totals[key] = totals.get(key, 0.0) + own
    return totals


def per_layer_metrics(
    spans: Sequence[Sequence],
    counts: dict[str, float],
    traced_wall: float,
    plain_wall: float,
) -> dict[str, float]:
    """All ``PER_LAYER`` values of one traced run.

    Args:
        spans: The traced child's spans.
        counts: Exact counters of the traced run (see check.py), plus
            ``network.plan_builds`` from the plan memo.
        traced_wall: Spawn-to-exit wall time of the traced child.
        plain_wall: The same for the untraced child doing the same
            work, so ``trace.overhead_s`` is their difference.
    """
    own = span_seconds(spans)
    values: dict[str, float] = {
        metric: sum(own.get(key, 0.0) for key in keys)
        for metric, keys in LAYER_SPANS.items()
    }
    values["network.braid_sim_reactive_s"] = own.get("braid_sim/reactive", 0.0)
    values.update({name: counts.get(name, 0) for name in COUNTERS})
    braids = counts.get("network.braids", 0)
    ops = counts.get("frontend.lowered_ops", 0)
    computed = counts.get("runner.cache_computed", 0)
    reused = counts.get("runner.cache_reused", 0)
    values["network.us_per_braid"] = (
        values["network.braid_sim_s"] / braids * 1e6 if braids else 0.0
    )
    values["frontend.us_per_op"] = (
        values["frontend.lowered_s"] / ops * 1e6 if ops else 0.0
    )
    values["runner.reuse_ratio"] = (
        reused / (computed + reused) if computed + reused else 0.0
    )
    attributed = sum(values[metric] for metric in LAYER_SPANS)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["trace.unattributed_s"] = traced_wall - attributed
    return {name: values[name] for name, _ in PER_LAYER}
