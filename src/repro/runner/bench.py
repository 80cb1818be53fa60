"""Benchmark-trajectory harness for the staged pipeline.

``python -m repro bench`` runs a cold-cache sweep (single process by
default), records per-stage wall-clock from the stage cache's timing
counters into a ``BENCH_<n>.json``-style report, and optionally:

* replays every swept braid point's plan through the *reference*
  simulator (``simulate_plan(plan, policy, engine="reference")``, the
  seed loop in :mod:`repro.network._braidsim_reference`) on the same
  machine, right after one more run of the optimized simulator on the
  same plan, asserting bit-identical results and measuring the
  optimized core's speedup from those paired runs; and
* compares against a committed baseline report, failing on regression.

Because absolute seconds are machine-dependent, the regression gate
uses *relative* metrics measured within one run:

* the optimized-vs-reference braid speedup (the headline ratio); and
* every stage's self time normalized by the reference simulator's
  time on the same machine (``stage_seconds[stage] /
  reference_braid_seconds``), which gates the whole pipeline —
  frontend, layout, braid, SIMD/EPR, scaling, accounting — not just
  the braid stage.

A committed baseline records the ratios this codebase achieved when
the baseline was captured; CI fails when the current tree loses more
than ``tolerance`` of any of them (plus :data:`RATIO_SLACK` so
millisecond-scale stages don't flake).  Absolute stage seconds are
also recorded, for same-machine trajectories like the repo-root
``BENCH_*.json`` series.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import time
from pathlib import Path
from typing import Optional, Sequence, Union

from ..network.braidsim import simulate_plan
from ..network.policies import POLICIES
from .cache import StageCache
from .stages import PointResult, compute_braid_plan
from .sweep import GridSpec, SweepRunner, fig6_grid

__all__ = [
    "BenchReport",
    "BENCH_GRIDS",
    "bench_grid",
    "run_bench",
    "compare_reports",
]

BENCH_FORMAT_VERSION = 1

BENCH_GRIDS: dict[str, str] = {
    "fig6": "the Figure 6 sweep (4 apps x 7 policies, sim sizes, d=5)",
    "tiny": "a minutes-budget CI grid (3 apps x 7 policies, tiny sizes)",
}


def bench_grid(name: str) -> GridSpec:
    """Resolve a bench grid preset."""
    if name == "fig6":
        return fig6_grid()
    if name == "tiny":
        return GridSpec(
            apps=("gse", "sq", "im"),
            sizes={"gse": 3, "sq": 2, "im": 8},
            policies=tuple(range(7)),
            distance=3,
        )
    raise KeyError(
        f"unknown bench grid {name!r}; available: {sorted(BENCH_GRIDS)}"
    )


@dataclasses.dataclass
class BenchReport:
    """One benchmark measurement (JSON round-trippable).

    Attributes:
        grid: Bench grid preset name.
        points: Grid points executed.
        workers: Process count of the measured sweep.
        stage_seconds: Per-stage wall-clock self time (cold cache).
        total_seconds: Whole-sweep wall-clock.
        reference_braid_seconds: Reference-simulator time over the same
            braid points (None when the reference pass was skipped).
        paired_flat_seconds: Optimized-simulator time over the braid
            points the reference pass replays, each run timed right
            before its reference replay (None without a reference
            pass).
        braid_speedup: ``reference_braid_seconds / braid_seconds``
            (None without a reference pass).
        equivalence_checked: Braid points verified bit-identical
            against the reference simulator.
        environment: Python/platform fingerprint of the machine, plus
            the run configuration (``workers``), so reports are
            self-describing across machines.
    """

    grid: str
    points: int
    workers: int
    stage_seconds: dict[str, float]
    total_seconds: float
    reference_braid_seconds: Optional[float] = None
    paired_flat_seconds: Optional[float] = None
    braid_speedup: Optional[float] = None
    equivalence_checked: int = 0
    environment: dict = dataclasses.field(default_factory=dict)

    @property
    def braid_seconds(self) -> float:
        """Optimized braid cost: shared plan builds plus simulation.

        The simulation is :attr:`paired_flat_seconds` after a reference
        pass, else the sweep's ``braid_sim`` self time.  ``braid_plan``
        self time (amortized across the policies of a design point) is
        added because the reference simulator pays its full per-run
        setup inside the timed pass.
        """
        simulation = self.paired_flat_seconds
        if simulation is None:
            simulation = self.stage_seconds.get("braid_sim", 0.0)
        return simulation + self.stage_seconds.get("braid_plan", 0.0)

    def stage_ratio(self, stage: str) -> Optional[float]:
        """One stage's self time normalized by the reference braid time.

        The reference simulator runs in the same process on the same
        inputs, so the ratio cancels machine speed out of cross-machine
        comparisons the same way ``braid_speedup`` does.  None when the
        reference pass was skipped.
        """
        if not self.reference_braid_seconds:
            return None
        return (
            self.stage_seconds.get(stage, 0.0)
            / self.reference_braid_seconds
        )

    def to_jsonable(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["format"] = BENCH_FORMAT_VERSION
        return payload

    @classmethod
    def from_jsonable(cls, payload: dict) -> "BenchReport":
        payload = dict(payload)
        version = payload.pop("format", None)
        if version != BENCH_FORMAT_VERSION:
            raise ValueError(
                f"bench report format {version!r} is not the supported "
                f"version {BENCH_FORMAT_VERSION}; re-record the report"
            )
        # Reports recorded while the runner had an engine axis carry an
        # ``engine`` key; every engine gave bit-identical results.
        payload.pop("engine", None)
        return cls(**payload)

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_jsonable(), indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "BenchReport":
        return cls.from_jsonable(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )


def _environment(workers: int) -> dict:
    import os

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "cpus": os.cpu_count(),
        "workers": workers,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _reference_pass(
    cache: StageCache, points: Sequence[PointResult]
) -> tuple[float, float, int]:
    """Replay each swept point's braid plan through the seed loop.

    Points sharing a braid simulation (same app, size, inline depth,
    policy, distance and layout) are replayed once.  After a serial
    sweep every plan is a memory hit in ``cache``; after a parallel
    one the plans were built in the workers and are rebuilt here.
    Returns the reference seconds, the seconds of an optimized run of
    each plan timed right before its replay, and the replay count.

    Raises:
        RuntimeError: If a point's braid result differs from the seed
            loop's.
    """
    seen: set[tuple] = set()
    elapsed = flat_elapsed = 0.0
    checked = 0
    for point in points:
        spec = point.spec
        policy = POLICIES[spec.policy]
        if policy.family == "reservation":
            # The seed loop cannot follow reserved issue cycles; Policy
            # 7's oracles are its planner and the check_sched replay.
            continue
        optimize_layout = (
            spec.optimize_layout
            if spec.optimize_layout is not None
            else policy.optimized_layout
        )
        ident = (
            spec.app, spec.size, spec.inline_depth, spec.policy,
            point.distance, optimize_layout,
        )
        if ident in seen:
            continue
        seen.add(ident)
        plan = compute_braid_plan(
            cache,
            spec.app,
            spec.size,
            spec.inline_depth,
            optimize_layout,
            point.distance,
        )
        start = time.perf_counter()
        simulate_plan(plan, policy)
        middle = time.perf_counter()
        reference = simulate_plan(plan, policy, engine="reference")
        elapsed += time.perf_counter() - middle
        flat_elapsed += middle - start
        checked += 1
        if reference != point.braid:
            raise RuntimeError(
                "optimized braid simulator diverged from the reference "
                f"at {ident}: {point.braid} != {reference}"
            )
    return elapsed, flat_elapsed, checked


def run_bench(
    grid: Union[str, GridSpec] = "fig6",
    reference: bool = False,
    workers: int = 1,
    cache: Optional[StageCache] = None,
) -> BenchReport:
    """Run one cold-cache benchmark measurement.

    Args:
        grid: Bench grid preset name (see :data:`BENCH_GRIDS`) or an
            explicit :class:`GridSpec` (reported as ``"custom"``).
        reference: Also time the reference simulator over the same
            braid points and verify bit-identical results.
        workers: Sweep process count (stage timing is only meaningful
            per process; keep 1 for trajectory comparisons).
        cache: Explicit stage cache (default: a fresh in-memory one,
            so the measurement is genuinely cold).
    """
    if isinstance(grid, str):
        spec = bench_grid(grid)
    else:
        spec, grid = grid, "custom"
    if cache is None:
        cache = StageCache()
    runner = SweepRunner(cache=cache, workers=workers)
    start = time.perf_counter()
    result = runner.run(spec)
    total = time.perf_counter() - start
    report = BenchReport(
        grid=grid,
        points=len(result.points),
        workers=result.workers,
        stage_seconds={
            stage: round(seconds, 4)
            for stage, seconds in sorted(result.stats.seconds.items())
        },
        total_seconds=round(total, 4),
        environment=_environment(result.workers),
    )
    if reference:
        ref_seconds, flat_seconds, checked = _reference_pass(
            cache, result.points
        )
        report.reference_braid_seconds = round(ref_seconds, 4)
        report.paired_flat_seconds = round(flat_seconds, 4)
        report.equivalence_checked = checked
        braid = report.braid_seconds
        if braid > 0:
            report.braid_speedup = round(ref_seconds / braid, 4)
    return report


RATIO_SLACK = 0.02
"""Additive slack on the normalized scale (~2% of the reference braid
time) so tiny stages aren't gated on scheduler noise."""


def compare_reports(
    current: BenchReport,
    baseline: BenchReport,
    tolerance: float = 0.25,
) -> list[str]:
    """Regression check; returns a list of failure descriptions.

    Gates the optimized-vs-reference braid speedup *and* every baseline
    stage's reference-normalized self time, which cancels machine speed
    out of the gate.  Stages present in the current report but absent
    from the baseline are not gated (re-record the baseline to start
    gating a new stage).
    """
    failures: list[str] = []
    if current.grid != baseline.grid:
        failures.append(
            f"grid mismatch: current {current.grid!r} vs baseline "
            f"{baseline.grid!r}"
        )
        return failures
    if current.braid_speedup is None:
        failures.append(
            "current report has no braid_speedup (run with reference=True)"
        )
        return failures
    if baseline.braid_speedup is None:
        failures.append("baseline report has no braid_speedup")
        return failures
    floor = baseline.braid_speedup * (1.0 - tolerance)
    if current.braid_speedup < floor:
        failures.append(
            f"braid_sim speedup regressed: {current.braid_speedup:.2f}x "
            f"< {baseline.braid_speedup:.2f}x * (1 - {tolerance:.2f})"
        )
    for stage in sorted(baseline.stage_seconds):
        base_ratio = baseline.stage_ratio(stage)
        cur_ratio = current.stage_ratio(stage)
        if base_ratio is None or cur_ratio is None:
            continue  # unreachable with braid_speedup set; be safe
        if stage not in current.stage_seconds:
            failures.append(
                f"{stage} missing from the current report "
                "(stage removed or renamed?)"
            )
            continue
        ceiling = base_ratio * (1.0 + tolerance) + RATIO_SLACK
        if cur_ratio > ceiling:
            failures.append(
                f"{stage} regressed: {cur_ratio:.3f}x reference braid "
                f"time > {base_ratio:.3f}x * (1 + {tolerance:.2f}) + "
                f"{RATIO_SLACK:.2f} slack"
            )
    return failures
