"""Precompiled braid simulation plans, shared across scheduling policies.

The Figure 6 methodology runs the *same* compiled circuit under all
seven scheduling policies.  Everything the braid simulator prepares
that does not depend on the policy — the per-op translation of
Figure 5 (braid flags, route lengths, local-op latencies, the
nearest-factory resolution per consumption site), the per-segment
dominant route and link mask bound from the shared
:class:`~repro.network.routing.RouteTable`, the dependence DAG's
in-degrees/successor tuples, the policy-independent critical path, and
the lazily materialized criticality array — used to be rebuilt by
``BraidSimulator.__init__`` once *per policy point*.

:meth:`BraidPlan.build` compiles the circuit in one pass straight into
flat per-op arrays: ops with the same endpoints share one prebound
segment tuple, and no per-op task object is made.
:func:`~repro.network.events.build_tasks` stays the slow, obviously
correct transcription of Figure 5 and is the compile's oracle (the
seed loop, the IR verifier's ``check_plan`` and the equivalence tests
compare against it).

A :class:`BraidPlan` packages all of it, built once per
``(circuit, placement, mesh shape, code, distance, max_detour)`` and
reused by every simulation of that design point: the ``braid_plan``
toolflow stage (:func:`repro.runner.stages.compute_braid_plan`) is the
one plan memo, and :func:`plan_memo_stats` counts the builds.  Plans
are immutable: simulators copy the one mutable seed (`in_degrees`) and
treat every other field as read-only, which the mutation-guard tests
enforce by hashing a shared plan's arrays across simulations.
"""

from __future__ import annotations

from typing import Optional

from ..partition.layout import Placement
from ..qasm.circuit import Circuit
from ..qasm.dag import CircuitDag
from ..qasm.gates import GateKind
from ..qec.codes import DOUBLE_DEFECT, SurfaceCode
from .events import OpTask, nearest_factory
from .mesh import BraidMesh, Router, manhattan
from .routing import RouteTable, route_table

__all__ = [
    "DEFAULT_MAX_DETOUR",
    "BraidPlan",
    "plan_memo_stats",
]

DEFAULT_MAX_DETOUR = 4
"""Staircase detour radius shared by ``BraidSimConfig`` and plan builds."""

_PLAN_BUILDS = 0


class BraidPlan:
    """Immutable, policy-independent simulation plan for one design point.

    Attributes:
        circuit: The flat Clifford+T program.
        placement: Data-qubit placement the endpoints were resolved
            against.
        code: Surface code used for local-op latencies.
        distance: Code distance d (braid stabilization hold).
        rows / cols: Mesh tile shape the routes were compiled for.
        max_detour: Adaptive-routing detour radius of :attr:`routes`.
        dag: The dependence DAG (owner of the lazy criticality array).
        is_braid: Per-op braid flag.
        route_length: Per-op minimal total route length (policy metric).
        segments: Per-op tuples of ``(src, dst, hold, min_len, dor_path,
            dor_mask)``, dominant route prebound from :attr:`routes`.
            Ops with the same endpoints share one tuple, and a 2-qubit
            op's two segments are one object.
        local_cycles: Per-op duration of tile-local work (0 for braids).
        in_degrees: Per-op predecessor counts (simulators copy this).
        successors: Per-op successor index tuples.
        sources: Initially-ready operation indices.
        critical_path: Dependence-limited schedule lower bound (cycles).
        routes: The shared :class:`RouteTable` for adaptive alternatives.

    Treat every field as read-only; plans are shared across simulations.
    """

    __slots__ = (
        "circuit", "placement", "code", "distance", "factory_routers",
        "rows", "cols", "max_detour", "dag", "num_ops",
        "is_braid", "route_length", "segments", "local_cycles",
        "in_degrees", "successors", "sources", "critical_path", "routes",
    )

    def __init__(self, **fields: object) -> None:
        for name in self.__slots__:
            object.__setattr__(self, name, fields[name])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BraidPlan is immutable")

    @classmethod
    def build(
        cls,
        circuit: Circuit,
        placement: Placement,
        mesh: BraidMesh,
        code: SurfaceCode = DOUBLE_DEFECT,
        distance: int = 5,
        factory_routers: tuple[Router, ...] = (),
        max_detour: int = DEFAULT_MAX_DETOUR,
        dag: Optional[CircuitDag] = None,
        tasks: Optional[list[OpTask]] = None,
    ) -> "BraidPlan":
        """Compile one plan (counted by :func:`plan_memo_stats`).

        ``tasks`` replaces the compile with explicit network tasks (a
        test seam: the same arrays are filled from the given tasks).

        Raises:
            ValueError: On ``distance < 1``, a composite gate, or a
                magic-state consumer with no factory site (the errors
                :func:`~repro.network.events.build_tasks` raises).
        """
        global _PLAN_BUILDS
        _PLAN_BUILDS += 1
        routes: RouteTable = route_table(mesh.rows, mesh.cols, max_detour)
        if tasks is None:
            entries = _compile(
                circuit, placement, mesh, code, distance,
                tuple(factory_routers), routes,
            )
        else:
            entries = [_task_entry(task, routes) for task in tasks]
        n = len(entries)
        is_braid, route_length, segments, local_cycles, busy = (
            zip(*entries) if n else ((),) * 5
        )
        dag = dag or CircuitDag(circuit)
        successors = dag.successor_tuples()[:n] if n else ()
        return cls(
            circuit=circuit,
            placement=placement,
            code=code,
            distance=distance,
            factory_routers=tuple(factory_routers),
            rows=mesh.rows,
            cols=mesh.cols,
            max_detour=max_detour,
            dag=dag,
            num_ops=n,
            is_braid=is_braid,
            route_length=route_length,
            segments=segments,
            local_cycles=local_cycles,
            in_degrees=tuple(dag.in_degrees()[:n]),
            successors=successors,
            sources=tuple(dag.sources()),
            critical_path=_critical_path(busy, successors),
            routes=routes,
        )

    def criticality(self) -> list[int]:
        """The shared per-op criticality array (lazy, owned by the DAG).

        Materialized on the first simulation whose policy ranks by
        criticality and shared read-only by every later one.
        """
        return self.dag.criticality_array()


_BRAID = object()  # gate-name marker: entry resolved per operand tuple


def _compile(
    circuit: Circuit,
    placement: Placement,
    mesh: BraidMesh,
    code: SurfaceCode,
    distance: int,
    factory_routers: tuple[Router, ...],
    routes: RouteTable,
) -> list[tuple]:
    """One pass over ``circuit``: one plan entry per op.

    An entry is ``(is_braid, route_length, segments, local_cycles,
    busy)``, where ``busy`` is the op's dependence-chain latency.  The
    translation is :func:`~repro.network.events.build_tasks`' (Figure
    5) without its per-op objects: a gate name is classified once, all
    local ops of one gate name share one entry, and all braid ops with
    the same operands share one entry, whose segments repeat one
    prebound segment tuple for a 2-qubit op.  A circuit with several
    defects may report a different one first.
    """
    if distance < 1:
        raise ValueError(f"distance must be >= 1, got {distance}")
    endpoint: dict[str, Router] = {
        q: mesh.tile_router(placement.position(q))
        for q in placement.positions
    }
    hold_busy = distance + 1  # open cycle + stabilization hold

    def gate_entry(index: int, op) -> object:
        spec = op.spec
        if spec.kind is GateKind.COMPOSITE:
            raise ValueError(
                f"operation {index} ({op.gate}) must be decomposed before "
                "network simulation"
            )
        if spec.arity == 2 or spec.consumes_magic_state:
            return _BRAID
        cycles = max(1, round(code.op_cycles(spec.kind, distance)))
        return (False, 0, (), cycles, cycles)

    def braid_entry(qubits: tuple[str, ...]) -> tuple:
        if len(qubits) == 2:
            src, dst = endpoint[qubits[0]], endpoint[qubits[1]]
        else:  # magic state braided in from the nearest factory
            dst = endpoint[qubits[0]]
            src = nearest_factory(factory_routers, dst)
        min_len = manhattan(src, dst)
        segment = (src, dst, distance, min_len, *routes.dor(src, dst))
        count = len(qubits)
        return (True, count * min_len, (segment,) * count, 0,
                count * hold_busy)

    by_gate: dict[str, object] = {}
    by_operands: dict[tuple[str, ...], tuple] = {}
    entries = []
    append = entries.append
    for index, op in enumerate(circuit):
        entry = by_gate.get(op.gate)
        if entry is None:
            entry = by_gate[op.gate] = gate_entry(index, op)
        if entry is _BRAID:
            entry = by_operands.get(op.qubits)
            if entry is None:
                entry = by_operands[op.qubits] = braid_entry(op.qubits)
        append(entry)
    return entries


def _task_entry(task: OpTask, routes: RouteTable) -> tuple:
    """The plan entry of one explicit :class:`OpTask`."""
    segments = tuple(
        (seg.src, seg.dst, seg.hold, seg.min_length,
         *routes.dor(seg.src, seg.dst))
        for seg in task.segments
    )
    return (
        task.is_braid, task.route_length, segments, task.local_cycles,
        task.busy_cycles,
    )


def _critical_path(
    busy: tuple[int, ...], successors: tuple[tuple[int, ...], ...]
) -> int:
    """Forward ASAP recurrence over the op latencies (program order is
    topological), shared by all simulations of a plan."""
    start = [0] * len(busy)
    critical = 0
    for index, latency in enumerate(busy):
        finish = start[index] + latency
        if finish > critical:
            critical = finish
        for succ in successors[index]:
            if finish > start[succ]:
                start[succ] = finish
    return critical


def plan_memo_stats() -> dict[str, int]:
    """``{"builds": n}``: the :meth:`BraidPlan.build` calls so far in
    this process."""
    return {"builds": _PLAN_BUILDS}
