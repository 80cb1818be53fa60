"""Grid-level verification driver.

:func:`check_grid` compiles every unique (app, size, layout, distance)
artifact of a sweep grid (Fig. 6 by default) through the staged cache
and runs every IR pass of :mod:`.ir_checks` over the lowered circuit,
DAG, placement, braid plan and Policy 7's reservation schedule,
returning a :class:`CheckReport` (this backs ``python -m repro
check``).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from ..network.policies import POLICIES
from ..qec.distance import choose_distance
from ..runner import stages
from ..runner.cache import StageCache
from ..runner.sweep import fig6_grid
from .diagnostics import Diagnostic, Severity
from .ir_checks import check_point_artifacts

__all__ = [
    "CheckReport",
    "check_grid",
]


@dataclasses.dataclass(frozen=True)
class CheckReport:
    """Result of verifying every artifact of a sweep grid."""

    points_checked: int
    artifacts_checked: int
    diagnostics: tuple[Diagnostic, ...]

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(
            d for d in self.diagnostics if d.severity is Severity.ERROR
        )

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_jsonable(self) -> dict:
        return {
            "points_checked": self.points_checked,
            "artifacts_checked": self.artifacts_checked,
            "ok": self.ok,
            "diagnostics": [d.to_jsonable() for d in self.diagnostics],
        }


def _resolved_layout(spec) -> bool:
    if spec.optimize_layout is not None:
        return spec.optimize_layout
    return POLICIES[spec.policy].optimized_layout


def check_grid(
    grid=None,
    cache=None,
    strict: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> CheckReport:
    """Verify every unique compiled artifact of a sweep grid.

    The grid's points collapse onto unique (app, size, inline depth,
    layout, distance) tuples — Fig. 6's 28 points share 8 artifact
    sets because the seven policies differ only in simulation-time
    scheduling — and each artifact set is compiled through the staged
    cache and handed to every IR pass.
    """
    if grid is None:
        grid = fig6_grid()
    if cache is None:
        cache = StageCache()
    points = [spec.normalized() for spec in grid.expand()]
    unique: dict[tuple, object] = {}
    for spec in points:
        distance = spec.distance
        if distance is None:
            fe = stages.compute_frontend(
                cache, spec.app, spec.size, spec.inline_depth
            )
            distance = choose_distance(
                fe.logical.target_pl, spec.technology()
            )
        ident = (
            spec.app,
            spec.size,
            spec.inline_depth,
            _resolved_layout(spec),
            distance,
        )
        unique.setdefault(ident, spec)

    diagnostics: list[Diagnostic] = []
    for (app, size, inline_depth, layout, distance), _ in sorted(
        unique.items(), key=lambda item: repr(item[0])
    ):
        artifact = (
            f"{app}[size={size}]"
            f"/layout={'opt' if layout else 'base'}/d={distance}"
        )
        if progress is not None:
            progress(artifact)
        fe = stages.compute_frontend(cache, app, size, inline_depth)
        plan = stages.compute_braid_plan(
            cache, app, size, inline_depth, layout, distance
        )
        diagnostics.extend(check_point_artifacts(
            fe.circuit,
            dag=fe.dag,
            placement=plan.placement,
            plan=plan,
            artifact=artifact,
            strict=strict,
        ))
    return CheckReport(
        points_checked=len(points),
        artifacts_checked=len(unique),
        diagnostics=tuple(diagnostics),
    )

