"""Multi-SIMD architecture for planar QEC (Section 4.4, Figure 3a).

"Many qubits undergoing the same operation are clustered in one SIMD
region, and multiple (reconfigurable) SIMD regions can accommodate
heterogeneous types of operations at any cycle."  Communication is by
teleportation; EPR pairs are produced in dedicated factories and
distributed through swap channels, prefetched by the Section 8.1
pipeline.

The SIMD schedule groups dependence-ready operations by gate type and
issues the ``k`` largest groups each logical cycle -- qubit-level
parallelism within a region is free (microwave broadcast), region count
is the constrained resource.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..frontend.schedule import LogicalSchedule
from ..partition.layout import GridShape, Placement
from ..qasm.circuit import Circuit
from ..qasm.dag import CircuitDag
from ..qec.codes import PLANAR, SurfaceCode
from ..network.epr import (
    EprPipelineConfig,
    EprPipelineResult,
    run_epr_pipeline,
)
from ..network.mesh import Router, manhattan
from ..network.teleport import DEFAULT_TELEPORT_MODEL

__all__ = ["MultiSimdMachine", "simd_schedule", "build_multisimd_machine"]


def simd_schedule(
    circuit: Circuit,
    regions: int,
    dag: Optional[CircuitDag] = None,
) -> LogicalSchedule:
    """Multi-SIMD list schedule: k same-gate groups per logical cycle.

    Greedy level scheduler: among dependence-ready operations, pick the
    ``regions`` largest same-mnemonic groups (SIMD regions are
    reconfigurable per cycle), issue them together, repeat.  With
    abundant regions this converges to the ASAP schedule.

    Ready operations wait in per-gate groups that grow as their last
    dependence issues; a cycle issues each chosen group whole, in op
    order, largest group first (ties by gate name).
    """
    if regions < 1:
        raise ValueError(f"regions must be >= 1, got {regions}")
    dag = dag or CircuitDag(circuit)
    gates = [op.gate for op in circuit]
    successors = dag.successor_tuples()
    remaining = dag.in_degrees()
    groups: dict[str, list[int]] = {}
    for op, degree in enumerate(remaining):
        if not degree:
            groups.setdefault(gates[op], []).append(op)
    cycles: list[tuple[int, ...]] = []
    done = 0
    while done < dag.num_nodes:
        if not groups:
            raise RuntimeError("SIMD scheduler stalled with work remaining")
        issued: list[int] = []
        for gate in sorted(
            groups, key=lambda gate: (-len(groups[gate]), gate)
        )[:regions]:
            group = groups.pop(gate)
            group.sort()
            issued += group
        for op in issued:
            for succ in successors[op]:
                remaining[succ] -= 1
                if not remaining[succ]:
                    groups.setdefault(gates[succ], []).append(succ)
        cycles.append(tuple(issued))
        done += len(issued)
    return LogicalSchedule(circuit, tuple(cycles))


@dataclasses.dataclass(frozen=True)
class MultiSimdMachine:
    """A sized Multi-SIMD machine bound to one circuit.

    Attributes:
        circuit: The (flat, Clifford+T) program.
        regions: SIMD region count.
        region_grid: Grid of regions/memories for distance accounting.
        placement: Qubit -> home memory region site.
        epr_factory: EPR factory site (corner of the region grid).
        code: The planar code model.
    """

    circuit: Circuit
    regions: int
    region_grid: GridShape
    placement: Placement
    epr_factory: Router
    code: SurfaceCode

    def schedule(self, dag: Optional[CircuitDag] = None) -> LogicalSchedule:
        return simd_schedule(self.circuit, self.regions, dag)

    def physical_qubits(self, distance: int, peak_epr_pairs: int = 0) -> int:
        """Data tiles + ancilla region + in-flight EPR pairs, in planar
        tiles (Section 4.3's 1:4 ancilla:data balance covers factories
        and teleport buffers)."""
        data_tiles = self.circuit.num_qubits
        ancilla_tiles = -(-data_tiles // 4)
        epr_tiles = 2 * peak_epr_pairs
        return (data_tiles + ancilla_tiles + epr_tiles) * self.code.tile_qubits(
            distance
        )

    def epr_pipeline(
        self,
        schedule: LogicalSchedule,
        distance: int,
        window: int = 64,
    ) -> EprPipelineResult:
        """Run the Section 8.1 pipelined EPR distribution for a schedule.

        The window is given in logical cycles and scaled to error
        correction cycles internally (one logical cycle = d EC cycles on
        the planar lattice).

        The schedule compiles straight into the pipeline's use-cycle and
        duration lists, in ``(use_cycle, op_index)`` order: the demands
        of :func:`~repro.network.epr.demands_from_schedule`, without a
        demand object per teleport.  A demand's swap chain is as long as
        its farther endpoint is from the EPR factory; a magic-state
        consumer's other endpoint is the factory itself.

        Raises:
            ValueError: On a negative ``window``.
        """
        if window < 0:
            raise ValueError(
                f"window must be >= 0 logical cycles, got {window}"
            )
        model = DEFAULT_TELEPORT_MODEL
        factory = self.epr_factory
        qubit_hops = {
            qubit: manhattan(factory, site)
            for qubit, site in self.placement.positions.items()
        }
        # Gate -> how many of a demand's endpoints are operand qubits: a
        # 2-qubit gate teleports one operand to the other (2), a
        # magic-state consumer teleports its state in from the factory
        # (1), and any other gate is local (0, no demand).
        qubit_endpoints: dict[str, int] = {}
        cycles_by_hops: dict[int, float] = {}
        operations = schedule.circuit.operations
        use_cycles: list[int] = []
        durations: list[float] = []
        for cycle, ops in enumerate(schedule.cycles):
            use = cycle * distance
            for op_index in sorted(ops):
                op = operations[op_index]
                endpoints = qubit_endpoints.get(op.gate)
                if endpoints is None:
                    endpoints = qubit_endpoints[op.gate] = (
                        2 if op.arity == 2 else int(op.consumes_magic_state)
                    )
                if not endpoints:
                    continue
                hops = qubit_hops[op.qubits[0]]
                if endpoints == 2:
                    other = qubit_hops[op.qubits[1]]
                    if other > hops:
                        hops = other
                duration = cycles_by_hops.get(hops)
                if duration is None:
                    duration = cycles_by_hops[hops] = model.swap_chain_cycles(
                        hops, distance
                    )
                use_cycles.append(use)
                durations.append(duration)
        # Provision swap channels for ~2/3 utilization at this program's
        # mean distribution demand (Section 8.1: channel capacity follows
        # demand; parallelism has little effect on pipelinability).
        ideal = max(1, schedule.length * distance)
        bandwidth = max(4, round(1.5 * sum(durations) / ideal))
        config = EprPipelineConfig(
            window=window * distance,
            bandwidth=bandwidth,
            distance=distance,
        )
        return run_epr_pipeline(
            use_cycles, durations, config, schedule.length * distance
        )


def build_multisimd_machine(
    circuit: Circuit,
    placement: Placement,
    regions: int = 4,
    code: SurfaceCode = PLANAR,
) -> MultiSimdMachine:
    """Size a Multi-SIMD machine around a qubit placement.

    The placement's grid is the grid of memory regions: with the
    interaction-aware layout (the mapping-level communication reduction
    of [35]) strongly interacting qubits share nearby regions.
    """
    if regions < 1:
        raise ValueError(f"regions must be >= 1, got {regions}")
    return MultiSimdMachine(
        circuit=circuit,
        regions=regions,
        region_grid=placement.grid,
        placement=placement,
        epr_factory=(0, 0),
        code=code,
    )
