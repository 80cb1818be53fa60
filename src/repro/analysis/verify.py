"""Grid-level verification driver and cached-stage verify hooks.

Two entry points wire the IR passes of :mod:`.ir_checks` into the
toolflow:

* :func:`check_grid` — compile every unique (app, size, layout,
  distance) artifact of a sweep grid (Fig. 6 by default) and run all
  passes over the lowered circuit, DAG, placement, braid plan and
  Policy 7's reservation schedule, returning a :class:`CheckReport`
  (this backs ``python -m repro check``).
* :func:`stage_verifier` — per-stage hooks for
  :meth:`StageCache.get_or_compute(verify=...)
  <repro.runner.cache.StageCache.get_or_compute>`: each checks the
  stage's artifact and raises
  :class:`~repro.analysis.diagnostics.AnalysisError` on any ERROR
  finding, so a defective artifact never enters the cache.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from ..network.policies import POLICIES
from .diagnostics import Diagnostic, Severity, raise_on_errors
from .ir_checks import (
    check_circuit,
    check_dag,
    check_placement,
    check_plan,
    check_sched,
)

__all__ = [
    "CheckReport",
    "check_grid",
    "stage_verifier",
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
    # Deferred: runner imports analysis for its verify hooks.
    from ..runner import stages
    from ..runner.cache import StageCache
    from ..runner.sweep import fig6_grid

    if grid is None:
        grid = fig6_grid()
    if cache is None:
        cache = StageCache()
    points = [spec.normalized() for spec in grid.expand()]
    unique: dict[tuple, object] = {}
    for spec in points:
        distance = spec.distance
        if distance is None:
            from ..qec.distance import choose_distance

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
        diagnostics.extend(check_circuit(
            fe.circuit, artifact=artifact, lowered=True, strict=strict
        ))
        diagnostics.extend(
            check_dag(fe.dag, artifact=artifact, circuit=fe.circuit)
        )
        diagnostics.extend(check_placement(
            plan.placement, artifact=artifact, circuit=plan.circuit
        ))
        diagnostics.extend(
            check_plan(plan, artifact=artifact, strict=strict)
        )
        diagnostics.extend(check_sched(plan, artifact=artifact))
    return CheckReport(
        points_checked=len(points),
        artifacts_checked=len(unique),
        diagnostics=tuple(diagnostics),
    )


def _verify_lowered(circuit) -> None:
    raise_on_errors(check_circuit(circuit, artifact="lowered", lowered=True))


def _verify_frontend(fe) -> None:
    diags = check_circuit(fe.circuit, artifact="frontend", lowered=True)
    diags.extend(check_dag(fe.dag, artifact="frontend", circuit=fe.circuit))
    raise_on_errors(diags)


def _verify_layout(placement) -> None:
    raise_on_errors(check_placement(placement, artifact="layout"))


def _verify_plan(plan) -> None:
    raise_on_errors(check_plan(plan, artifact="braid_plan"))


_STAGE_VERIFIERS: dict[str, Callable[[object], None]] = {
    "lowered": _verify_lowered,
    "frontend": _verify_frontend,
    "layout": _verify_layout,
    "braid_plan": _verify_plan,
}


def stage_verifier(stage: str) -> Optional[Callable[[object], None]]:
    """The ``verify=`` hook for a cached stage (None when unchecked)."""
    return _STAGE_VERIFIERS.get(stage)
