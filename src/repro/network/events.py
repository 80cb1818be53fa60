"""Translation of logical operations into braid-network tasks.

Section 6.1 / Figure 5: a 2-qubit logical operation between double-defect
tiles becomes two braid segments (loop out, loop back), each opened in
one cycle, held ``d`` cycles for syndrome stabilization, and closed in
one cycle.  A T operation consumes a magic state braided in from the
nearest factory tile (Section 4.5).  Single-qubit operations stay local
to their tile.
"""

from __future__ import annotations

import dataclasses

from ..partition.layout import Placement
from ..qasm.circuit import Circuit
from ..qasm.gates import GateKind
from ..qec.codes import SurfaceCode
from .mesh import BraidMesh, Router, manhattan

__all__ = ["BraidSegment", "OpTask", "build_tasks", "nearest_factory"]


@dataclasses.dataclass(frozen=True)
class BraidSegment:
    """One braid segment: a route claim held for ``hold`` cycles."""

    src: Router
    dst: Router
    hold: int

    @property
    def busy_cycles(self) -> int:
        """Dependence-chain latency of the segment: the open cycle plus
        the stabilization hold.  The close coincides with the cycle in
        which a dependent event may issue, so it adds no chain latency
        (mirroring the simulator's timing exactly -- a zero-contention
        schedule achieves precisely the critical path)."""
        return self.hold + 1

    @property
    def min_length(self) -> int:
        return manhattan(self.src, self.dst)


@dataclasses.dataclass(frozen=True)
class OpTask:
    """Network-level task for one logical operation.

    Attributes:
        index: Operation index in the circuit (program order).
        segments: Braid segments, executed sequentially.  Empty for
            tile-local operations.
        local_cycles: Duration of tile-local work (used when there are
            no segments).
    """

    index: int
    segments: tuple[BraidSegment, ...]
    local_cycles: int

    @property
    def is_braid(self) -> bool:
        return bool(self.segments)

    @property
    def busy_cycles(self) -> int:
        """Dependence-chain latency contribution of this task."""
        if self.is_braid:
            return sum(seg.busy_cycles for seg in self.segments)
        return self.local_cycles

    @property
    def route_length(self) -> int:
        """Minimal total route length (the policy 'length' metric)."""
        return sum(seg.min_length for seg in self.segments)


def nearest_factory(
    factories: tuple[Router, ...], target: Router
) -> Router:
    """The factory a magic state for ``target`` is braided from.

    Nearest by Manhattan distance, ties broken by router id; the one
    tie-break :func:`build_tasks` and the plan compile share.
    """
    if not factories:
        raise ValueError("T operation requires at least one factory site")
    return min(
        factories, key=lambda f: (manhattan(f, target), f)
    )


def _nearest_factory_map(
    factories: tuple[Router, ...], targets: set[Router]
) -> dict[Router, Router]:
    """Nearest factory per distinct target (ties broken by router id).

    Circuits consume magic states at far fewer distinct sites than T
    gates, so resolving each site once beats a per-gate search.
    """
    return {
        target: nearest_factory(factories, target) for target in targets
    }


def build_tasks(
    circuit: Circuit,
    placement: Placement,
    mesh: BraidMesh,
    code: SurfaceCode,
    distance: int,
    factory_routers: tuple[Router, ...] = (),
) -> list[OpTask]:
    """Build one :class:`OpTask` per circuit operation.

    Args:
        circuit: Flat Clifford+T circuit.
        placement: Data-qubit tile placement.
        mesh: The braid mesh (for endpoint router lookup).
        code: Surface code (for local-op latencies).
        distance: Code distance d (braid stabilization time).
        factory_routers: Router positions of magic-state factories
            (required if the circuit contains T gates).

    Raises:
        ValueError: On composite gates or missing factory sites.
    """
    if distance < 1:
        raise ValueError(f"distance must be >= 1, got {distance}")
    # Resolve per-qubit endpoint routers and the nearest factory per
    # distinct consumption site once, instead of per operation.
    endpoint: dict[str, Router] = {
        q: mesh.tile_router(placement.position(q))
        for q in placement.positions
    }
    magic_sites = {
        endpoint[op.qubits[0]]
        for op in circuit
        if op.consumes_magic_state and op.qubits[0] in endpoint
    }
    nearest = (
        _nearest_factory_map(factory_routers, magic_sites)
        if magic_sites
        else {}
    )
    local_cycles_by_kind: dict[GateKind, int] = {}
    tasks: list[OpTask] = []
    for index, op in enumerate(circuit):
        kind = op.spec.kind
        if kind is GateKind.COMPOSITE:
            raise ValueError(
                f"operation {index} ({op.gate}) must be decomposed before "
                "network simulation"
            )
        if op.arity == 2:
            src = endpoint[op.qubits[0]]
            dst = endpoint[op.qubits[1]]
            segments = (
                BraidSegment(src, dst, hold=distance),
                BraidSegment(src, dst, hold=distance),
            )
            tasks.append(OpTask(index, segments, local_cycles=0))
        elif op.consumes_magic_state:
            target = endpoint[op.qubits[0]]
            factory = nearest[target]
            segments = (BraidSegment(factory, target, hold=distance),)
            tasks.append(OpTask(index, segments, local_cycles=0))
        else:
            cycles = local_cycles_by_kind.get(kind)
            if cycles is None:
                cycles = max(1, round(code.op_cycles(kind, distance)))
                local_cycles_by_kind[kind] = cycles
            tasks.append(OpTask(index, (), local_cycles=cycles))
    return tasks
