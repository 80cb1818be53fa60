"""Space-time resource estimation for both codes (Figures 7 and 8).

For a computation of ``K`` logical operations, the estimator combines:

* the frontend's application model (logical qubits, parallelism, gate
  mix -- extrapolated by :mod:`repro.apps.scaling`),
* code distance selection (:mod:`repro.qec.distance`),
* tile footprints (:mod:`repro.qec.codes`), and
* a communication time model whose congestion parameters are
  *calibrated from the cycle-accurate simulators* on small instances.

Communication models:

**Double-defect / braiding.**  Every 2-qubit or T operation is a braid
(1-cycle claim, d-cycle stabilization); congestion inflates the schedule
by the factor the braid simulator measures for this application
(Figure 6's schedule-to-critical-path ratio, policy 6).

**Planar / teleportation.**  Logical ops take d cycles; a teleport adds
a small constant.  EPR distribution is prefetched, so it costs nothing
*until* the swap-chain latency (~ sqrt(n) tiles x d cycles/tile) exceeds
the just-in-time lead budget; past that point every communication op
stalls for the uncovered remainder, shared across the channel pool.
This is the space-time cap of Section 8.1: bounded EPR qubit budget
means bounded prefetch lead.
"""

from __future__ import annotations

import dataclasses
import math

from ..apps.scaling import AppScalingModel
from ..qec.codes import DOUBLE_DEFECT, PLANAR, SurfaceCode
from ..qec.distance import choose_distance
from ..tech import Technology

__all__ = [
    "CommunicationConstants",
    "SpaceTimeEstimate",
    "estimate_planar",
    "estimate_double_defect",
]

ANCILLA_TILE_FACTOR = 1.25
"""Data + ancilla region tiles per logical data qubit (Section 4.3's
1:4 ancilla-to-data balance, covering factories and buffers)."""


@dataclasses.dataclass(frozen=True)
class CommunicationConstants:
    """Tunable constants of the communication time models.

    Attributes:
        mean_hop_fraction: Mean communication distance as a fraction of
            the mesh side length sqrt(n).
        swap_cycles_per_tile: EC cycles for an EPR half to cross one
            tile per unit code distance.
        teleport_cycles: Constant teleport latency (EC cycles).
        epr_lead_budget: Maximum prefetch lead (EC cycles) the EPR
            qubit budget sustains; distribution latency beyond this
            stalls the consumer (Section 8.1's window cap).
        epr_channels: Concurrent swap-channel capacity absorbing stalls.
    """

    mean_hop_fraction: float = 0.5
    swap_cycles_per_tile: float = 1.0
    teleport_cycles: float = 2.0
    epr_lead_budget: float = 2048.0
    epr_channels: float = 8.0


DEFAULT_CONSTANTS = CommunicationConstants()


@dataclasses.dataclass(frozen=True)
class SpaceTimeEstimate:
    """Resource estimate for one (application, size, code, technology).

    Attributes:
        code_name: ``"planar"`` or ``"double-defect"``.
        computation_size: K, total logical operations (= 1 / (2 pL)).
        distance: Selected code distance.
        logical_qubits: Application logical qubits.
        physical_qubits: Total physical qubits including ancilla regions.
        cycles: Execution time in error-correction cycles.
        seconds: Wall-clock execution time.
    """

    code_name: str
    computation_size: float
    distance: int
    logical_qubits: int
    physical_qubits: float
    cycles: float
    seconds: float

    @property
    def spacetime(self) -> float:
        """The paper's favorability metric: qubits x time."""
        return self.physical_qubits * self.seconds


def _common(
    model: AppScalingModel, computation_size: float, tech: Technology
) -> tuple[int, int, float, float]:
    """Shared pieces: distance, logical qubits, depth, comm rate."""
    if computation_size < 1:
        raise ValueError(
            f"computation_size must be >= 1, got {computation_size}"
        )
    target_pl = 0.5 / computation_size
    distance = choose_distance(target_pl, tech)
    logical_qubits = model.logical_qubits(computation_size)
    depth = computation_size / max(model.parallelism_factor, 1.0)
    comm_rate = (
        model.two_qubit_fraction + model.t_fraction
    ) * model.parallelism_factor
    return distance, logical_qubits, depth, comm_rate


def estimate_planar(
    model: AppScalingModel,
    computation_size: float,
    tech: Technology,
    constants: CommunicationConstants = DEFAULT_CONSTANTS,
    code: SurfaceCode = PLANAR,
) -> SpaceTimeEstimate:
    """Planar-code estimate on the Multi-SIMD architecture."""
    d, n, depth, comm_rate = _common(model, computation_size, tech)
    del comm_rate  # EPR channels are provisioned proportionally to demand
    c = constants
    # Prefetched-EPR stall: swap-chain latency beyond the lead budget.
    # Channel capacity scales with communication demand (Section 8.1:
    # "degree of application parallelism has little effect, since
    # ancillas do not follow regular data dependencies"), so the residual
    # stall per logical cycle is demand-independent.
    distribution = c.mean_hop_fraction * math.sqrt(n) * d * c.swap_cycles_per_tile
    # Smooth saturating stall: negligible while distribution latency is
    # well under the lead budget (fully hidden), approaching the full
    # distribution latency once it dwarfs the budget.  The soft knee
    # models the spread of communication distances around the mean -- a
    # fraction of pairs miss the budget before the mean does.
    stall_per_op = distribution * distribution / (
        distribution + c.epr_lead_budget
    )
    per_cycle = d + c.teleport_cycles + stall_per_op / c.epr_channels
    cycles = depth * per_cycle
    # EPR buffers/factories scale with the data region, not a constant.
    epr_tiles = max(2.0, 0.05 * n)
    tiles = ANCILLA_TILE_FACTOR * n + epr_tiles
    physical = tiles * code.tile_qubits(d)
    return SpaceTimeEstimate(
        code_name=code.name,
        computation_size=computation_size,
        distance=d,
        logical_qubits=n,
        physical_qubits=physical,
        cycles=cycles,
        seconds=tech.seconds(cycles),
    )


def estimate_double_defect(
    model: AppScalingModel,
    computation_size: float,
    tech: Technology,
    congestion: float = 1.0,
    constants: CommunicationConstants = DEFAULT_CONSTANTS,
    code: SurfaceCode = DOUBLE_DEFECT,
) -> SpaceTimeEstimate:
    """Double-defect estimate on the tiled architecture.

    Args:
        congestion: Braid schedule inflation (schedule / critical path)
            measured by the braid simulator for this application under
            the chosen policy (>= 1; Figure 6).
    """
    if congestion < 1.0:
        raise ValueError(f"congestion factor must be >= 1, got {congestion}")
    d, n, depth, _ = _common(model, computation_size, tech)
    per_op = 2 * d + 2  # Figure 5: two stabilized braid segments
    cycles = depth * per_op * congestion
    tiles = ANCILLA_TILE_FACTOR * n
    physical = tiles * code.tile_qubits(d)
    return SpaceTimeEstimate(
        code_name=code.name,
        computation_size=computation_size,
        distance=d,
        logical_qubits=n,
        physical_qubits=physical,
        cycles=cycles,
        seconds=tech.seconds(cycles),
    )
