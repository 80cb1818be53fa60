"""Render the paper's figures/tables from cached sweep results.

Figure 6 and Table 2 re-render directly from persisted grid-point
results.  Figures 7-9 are analytic sweeps whose simulator-derived
inputs (braid congestion, EPR stall overhead) come from the same stage
cache, so a populated cache re-renders everything without simulating.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional, Sequence

from ..apps.registry import get_app
from ..core.report import (
    format_fig6,
    format_fig7,
    format_fig8,
    format_fig9,
    format_table1,
    format_table2_rows,
)
from ..core.sensitivity import FIGURE9_VARIANTS, boundary_for_app
from ..network.braidsim import BraidSimResult
from ..tech import OPTIMISTIC, technology_for_error_rate
from .cache import StageCache
from .stages import PointResult, PointSpec
from .sweep import DEFAULT_APPS

__all__ = [
    "load_points",
    "measure_table1",
    "render_failures",
    "render_fig6",
    "render_fig7",
    "render_fig8",
    "render_fig9",
    "render_table1",
    "render_table2",
]


def render_failures(failures: Sequence) -> str:
    """One line per :class:`~repro.runner.faults.PointFailure`.

    Used by the CLI to summarize a partially failed sweep next to the
    figures rendered from its surviving points.
    """
    lines = []
    for failure in failures:
        spec = failure.spec
        lines.append(
            f"FAILED {spec.app}[{spec.size}] policy={spec.policy}: "
            f"{failure.error_type} in stage "
            f"{failure.stage!r} after {failure.attempts} attempt(s): "
            f"{failure.error}"
        )
    return "\n".join(lines)


def load_points(cache: StageCache) -> list[PointResult]:
    """Revive the persisted grid-point results, one per spec.

    A cache can hold one point under several keys (two runs of a grid
    whose point keys differ); equal records collapse to one.

    Raises:
        ValueError: If two records of one spec disagree.
    """
    by_spec: dict[PointSpec, PointResult] = {}
    for record in cache.iter_payloads("point"):
        point = PointResult.from_jsonable(record["value"])
        if by_spec.setdefault(point.spec, point) != point:
            raise ValueError(
                f"conflicting cached results for {point.spec}"
            )
    return list(by_spec.values())


_SPEC_FIELDS = tuple(
    field.name
    for field in dataclasses.fields(PointSpec)
    if field.name not in ("app", "policy")
)


def _point_order(point: PointResult) -> tuple:
    """Canonical point order, whatever the source: apps in
    :data:`DEFAULT_APPS` order and then by name, then the remaining
    spec fields (``None`` last), then the policy."""
    spec = point.spec
    rank = (
        DEFAULT_APPS.index(spec.app)
        if spec.app in DEFAULT_APPS
        else len(DEFAULT_APPS)
    )
    rest = tuple(
        (value is None, value)
        for value in (getattr(spec, name) for name in _SPEC_FIELDS)
    )
    return (rank, spec.app, rest, spec.policy)


def _by_app_policy(
    points: Iterable[PointResult],
) -> dict[str, dict[int, BraidSimResult]]:
    """Group braid results as ``{row label: {policy: result}}``.

    Rows are keyed by the full non-policy spec, so a cache holding
    several sweeps (different sizes, distances, technologies) renders
    as separate rows instead of silently overwriting policies.  Rows
    and policies follow :func:`_point_order`.
    """
    groups: dict[object, dict[int, BraidSimResult]] = {}
    for point in sorted(points, key=_point_order):
        identity = dataclasses.replace(
            point.spec, policy=0, optimize_layout=None
        )
        groups.setdefault(identity, {})[point.spec.policy] = point.braid

    short = [f"{spec.app}[{spec.size}]" for spec in groups]
    ordered: dict[str, dict[int, BraidSimResult]] = {}
    for spec, by_policy in groups.items():
        label = f"{spec.app}[{spec.size}]"
        if short.count(label) > 1:
            label += f" d={spec.distance} {spec.tech_name}"
        while label in ordered:  # still colliding: keep rows distinct
            label += "'"
        ordered[label] = by_policy
    return ordered


def render_fig6(points: Iterable[PointResult]) -> str:
    """Figure 6 table (policy sweep) from grid-point results."""
    results = _by_app_policy(points)
    if not results:
        raise ValueError("no grid-point results to render Figure 6 from")
    return format_fig6(results)


def render_table2(points: Iterable[PointResult]) -> str:
    """Table 2 (parallelism factors) from grid-point results."""
    best: dict[str, PointResult] = {}
    for point in sorted(points, key=_point_order):
        app = point.spec.app
        if (
            app not in best
            or point.logical.total_operations
            > best[app].logical.total_operations
        ):
            best[app] = point
    if not best:
        raise ValueError("no grid-point results to render Table 2 from")
    rows = []
    for app in sorted(best, key=lambda a: best[a].logical.parallelism_factor):
        spec = get_app(app)
        rows.append(
            (
                spec.title,
                spec.purpose,
                spec.paper_parallelism,
                best[app].logical.parallelism_factor,
            )
        )
    return format_table2_rows(rows)


def _calibration(app: str, inline_depth: Optional[int], cache: StageCache):
    from ..core.calibration import calibrate_app

    return calibrate_app(app, inline_depth, cache=cache)


def render_fig7(cache: StageCache, app: str = "sq") -> str:
    """Figure 7 (absolute resources vs size) at pP = 1e-8."""
    from ..core.resources import estimate_double_defect, estimate_planar

    cal = _calibration(app, None, cache)
    rows = []
    for exponent in range(0, 25, 2):
        size = 10.0**exponent
        planar = estimate_planar(cal.scaling, size, OPTIMISTIC)
        dd = estimate_double_defect(
            cal.scaling, size, OPTIMISTIC, congestion=cal.braid_congestion
        )
        rows.append(
            (
                size,
                planar.seconds,
                dd.seconds,
                planar.physical_qubits,
                dd.physical_qubits,
            )
        )
    return format_fig7(rows)


def render_fig8(
    cache: StageCache,
    apps: Sequence[str] = ("sq", "im"),
    error_rate: float = 1e-8,
) -> str:
    """Figure 8 (favorability crossover) for one or more applications."""
    from ..core.crossover import analyze_crossover

    tech = technology_for_error_rate(error_rate)
    sections = []
    for app in apps:
        analysis = analyze_crossover(
            app, tech, calibration=_calibration(app, None, cache)
        )
        sections.append(format_fig8(analysis))
    return "\n\n".join(sections)


def render_fig9(
    cache: StageCache,
    variants: Sequence[tuple[str, Optional[int]]] = FIGURE9_VARIANTS,
) -> str:
    """Figure 9 (crossover boundary vs physical error rate)."""
    lines = [
        boundary_for_app(
            app,
            inline_depth,
            calibration=_calibration(app, inline_depth, cache),
        )
        for app, inline_depth in variants
    ]
    return format_fig9(lines)


def measure_table1(
    distance: int = 9, mesh_side: int = 8
) -> tuple[float, float, float, float]:
    """Measure Table 1's communication costs on a common microbenchmark
    (one corner-to-corner communication across a ``mesh_side`` mesh).

    Returns ``(teleport_qubits, teleport_latency, braid_qubits,
    braid_latency)``.
    """
    from ..network import (
        DEFAULT_TELEPORT_MODEL,
        dor_path,
        path_links,
    )
    from ..qec import DOUBLE_DEFECT, PLANAR

    src, dst = (0, 0), (mesh_side - 1, mesh_side - 1)
    # Braiding claims its whole route for ~2 cycles of open/close
    # (distance-independent latency); space = the route's channel qubits.
    braid_latency = 2.0
    route_links = len(path_links(dor_path(src, dst)))
    braid_qubits = route_links * DOUBLE_DEFECT.tile_qubits(distance) // 4
    # Teleportation: swap-chain distribution latency unless prefetched;
    # space = one EPR pair in flight.
    teleport_latency = DEFAULT_TELEPORT_MODEL.communication_cycles(
        (0, 0), src, dst, distance, prefetched=False
    )
    teleport_qubits = 2 * PLANAR.tile_qubits(distance)
    return teleport_qubits, teleport_latency, braid_qubits, braid_latency


def render_table1() -> str:
    """Table 1 (communication tradeoffs), measured."""
    tq, tl, bq, bl = measure_table1()
    return format_table1(tq, tl, bq, bl)
