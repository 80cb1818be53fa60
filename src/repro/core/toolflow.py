"""End-to-end toolflow (Figure 4): application -> physical estimate.

``run_toolflow`` chains every stage the paper's Figure 4 depicts:
frontend compilation (flatten, decompose, estimate), backend mapping
(layout, machine construction), network simulation (braids for
double-defect, SIMD schedule + EPR pipeline for planar), and the final
space-time resource accounting for both codes.

Each stage runs through :mod:`repro.runner.stages`, memoized in a
:class:`~repro.runner.cache.StageCache` keyed by the stage's inputs, so
repeated runs sharing a prefix (the same circuit across policies,
distances, or technologies) compute the shared work once per process.
Pass ``cache`` to control sharing explicitly; by default the
process-wide cache is used.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from ..arch.multisimd import MultiSimdMachine
from ..arch.tiled import TiledMachine, build_tiled_machine
from ..frontend.estimate import LogicalEstimate
from ..network.braidsim import BraidSimResult
from ..network.epr import EprPipelineResult
from ..qasm.circuit import Circuit
from ..qec.distance import choose_distance
from ..tech import Technology
from .resources import (
    DEFAULT_CONSTANTS,
    CommunicationConstants,
    SpaceTimeEstimate,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runner.cache import StageCache

__all__ = ["ToolflowResult", "run_toolflow"]


@dataclasses.dataclass(frozen=True)
class ToolflowResult:
    """Everything the toolflow produces for one application instance.

    Attributes:
        circuit: The flat Clifford+T circuit.
        logical: Frontend resource/parallelism estimate.
        distance: Selected code distance.
        tiled_machine: Sized double-defect machine.
        braid_result: Braid network simulation outcome.
        simd_machine: Sized Multi-SIMD machine.
        epr_result: Pipelined EPR distribution outcome.
        planar_estimate: Planar space-time estimate at this size.
        double_defect_estimate: Double-defect space-time estimate.
    """

    circuit: Circuit
    logical: LogicalEstimate
    distance: int
    tiled_machine: TiledMachine
    braid_result: BraidSimResult
    simd_machine: MultiSimdMachine
    epr_result: EprPipelineResult
    planar_estimate: SpaceTimeEstimate
    double_defect_estimate: SpaceTimeEstimate

    @property
    def preferred_code(self) -> str:
        """The code with the smaller qubits x time product."""
        if (
            self.planar_estimate.spacetime
            <= self.double_defect_estimate.spacetime
        ):
            return self.planar_estimate.code_name
        return self.double_defect_estimate.code_name


def run_toolflow(
    app_name: str,
    size: Optional[int] = None,
    tech: Optional[Technology] = None,
    policy: int = 6,
    regions: int = 4,
    inline_depth: Optional[int] = None,
    constants: CommunicationConstants = DEFAULT_CONSTANTS,
    cache: Optional["StageCache"] = None,
) -> ToolflowResult:
    """Run the full Figure 4 pipeline on one application instance.

    Args:
        app_name: Registry application name.
        size: Problem size knob (app default if omitted).
        tech: Technology preset (defaults to ``repro.INTERMEDIATE``).
        policy: Braid scheduling policy for the tiled simulation.
        regions: SIMD region count for the Multi-SIMD machine.
        inline_depth: Flattening depth (None = full inlining).
        constants: Communication model constants.
        cache: Stage cache to run through (the process-wide default
            cache if omitted, so repeated calls share stage results).
    """
    from ..runner import stages
    from ..tech import INTERMEDIATE

    tech = tech or INTERMEDIATE
    cache = cache if cache is not None else stages.default_cache()

    fe = stages.compute_frontend(cache, app_name, size, inline_depth)
    distance = choose_distance(fe.logical.target_pl, tech)

    # The reference toolflow always maps onto the interaction-aware
    # layout, whichever policy schedules the braids.
    tiled = build_tiled_machine(
        fe.circuit,
        stages.compute_layout(
            cache, app_name, size, inline_depth, optimize_layout=True
        ),
    )
    braid = stages.compute_braid(
        cache,
        app_name,
        size,
        inline_depth,
        policy=policy,
        distance=distance,
        optimize_layout=True,
    )

    simd = stages.compute_simd(cache, app_name, size, inline_depth, regions)
    epr = stages.compute_epr(
        cache,
        app_name,
        size,
        inline_depth,
        regions=regions,
        distance=distance,
    )

    accounting = stages.compute_accounting(
        cache,
        app_name,
        fe.logical.computation_size,
        tech,
        congestion=max(1.0, braid.schedule_to_critical_ratio),
        constants=constants,
    )
    return ToolflowResult(
        circuit=fe.circuit,
        logical=fe.logical,
        distance=distance,
        tiled_machine=tiled,
        braid_result=braid,
        simd_machine=simd.machine,
        epr_result=epr,
        planar_estimate=accounting.planar,
        double_defect_estimate=accounting.double_defect,
    )
