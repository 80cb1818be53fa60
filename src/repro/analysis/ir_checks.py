"""Multi-pass static verifier over compiled toolflow artifacts.

Each pass takes one artifact of the Circuit -> DAG -> placement ->
BraidPlan pipeline and re-derives its invariants *independently* of the
code that built it (masks are recomputed from paths, the critical path
is recomputed from op latencies, in-degrees are recounted from the
edge lists), so a defect introduced anywhere — a buggy rewrite, a
corrupt cache payload, a mutated shared array — surfaces as a
structured :class:`~repro.analysis.diagnostics.Diagnostic` instead of
a wrong simulation result.

Passes:

* :func:`check_circuit` — gate arity/operand validity against the
  :data:`~repro.qasm.gates.GATE_SPECS` declarations, dangling
  operands, fence sanity; ``lowered=True`` additionally rejects
  composite gates; ``strict=True`` adds use-before-init and
  unused-qubit warnings.
* :func:`check_dag` — node/op count agreement, edge bounds, forward
  (program-order) edges, successor/predecessor mirror consistency,
  in-degree agreement, acyclicity by an independent Kahn sweep.
* :func:`check_placement` — positions on-grid, no double-booked sites,
  every operand qubit placed.
* :func:`check_plan` — :class:`~repro.network.plan.BraidPlan` internal
  consistency: array lengths and read-only (tuple) types, every per-op
  array cross-checked against the network tasks re-derived by
  :func:`~repro.network.events.build_tasks` (the compile's oracle,
  which also fixes the factory binding of magic-state consumers),
  per-segment route endpoints on-mesh, link masks recomputed from
  paths, segment holds matching the plan's code distance, minimal
  route lengths, DAG array agreement, and the policy-independent
  critical path re-derived from the op latencies.
* :func:`check_sched` — Policy 7's reservation schedule
  (:mod:`repro.network.policies_sched`) replayed against a fresh
  modulo table: no double-booked link-cycle slot,
  dependence-respecting reserved cycles, achieved initiation interval
  >= the recomputed ``ii()`` bound, makespan >= the critical path.

All passes return ``list[Diagnostic]`` (empty == verified) and never
raise on malformed input; :func:`check_point_artifacts` composes them
for one design point.
"""

from __future__ import annotations

from typing import Optional

from ..network.events import build_tasks
from ..network.mesh import BraidMesh, manhattan
from ..network.plan import BraidPlan
from ..partition.layout import Placement
from ..qasm.circuit import Circuit
from ..qasm.dag import CircuitDag
from ..qasm.gates import GATE_SPECS, GateKind, canonical_gate_name
from .diagnostics import Diagnostic, Severity

__all__ = [
    "check_circuit",
    "check_dag",
    "check_placement",
    "check_plan",
    "check_sched",
    "check_point_artifacts",
]


def _diag(
    severity: Severity,
    pass_name: str,
    artifact: str,
    location: str,
    message: str,
) -> Diagnostic:
    return Diagnostic(severity, pass_name, artifact, location, message)


# ---------------------------------------------------------------------------
# Circuit pass


def check_circuit(
    circuit: Circuit,
    artifact: str = "circuit",
    lowered: bool = False,
    strict: bool = False,
) -> list[Diagnostic]:
    """Validate a circuit against the gate-set declarations.

    Args:
        circuit: The circuit to verify.
        artifact: Label used in diagnostics.
        lowered: Reject composite gates (mandatory post-decomposition).
        strict: Also emit warnings for qubits first used without a
            preparation and for registered-but-unused qubits (real
            lowered workloads legitimately contain both, so these are
            opt-in).
    """
    out: list[Diagnostic] = []
    registered = set(circuit.qubits)
    for name in registered:
        if not name or any(ch.isspace() for ch in name):
            out.append(_diag(
                Severity.ERROR, "circuit", artifact, "",
                f"invalid qubit name {name!r}",
            ))
    first_use: dict[str, int] = {}
    for index, op in enumerate(circuit):
        where = f"op {index}"
        gate = getattr(op, "gate", None)
        qubits = tuple(getattr(op, "qubits", ()) or ())
        spec = GATE_SPECS.get(canonical_gate_name(gate)) if gate else None
        if spec is None:
            out.append(_diag(
                Severity.ERROR, "circuit", artifact, where,
                f"unknown gate {gate!r}",
            ))
            continue
        if len(qubits) != spec.arity:
            out.append(_diag(
                Severity.ERROR, "circuit", artifact, where,
                f"{spec.name} declares arity {spec.arity}, "
                f"got {len(qubits)} operand(s) {qubits}",
            ))
        if len(qubits) > 1 and len(set(qubits)) != len(qubits):
            out.append(_diag(
                Severity.ERROR, "circuit", artifact, where,
                f"{spec.name} operands must be distinct, got {qubits}",
            ))
        param = getattr(op, "param", None)
        if spec.parametric and param is None:
            out.append(_diag(
                Severity.ERROR, "circuit", artifact, where,
                f"parametric gate {spec.name} is missing its parameter",
            ))
        if lowered and spec.is_composite:
            out.append(_diag(
                Severity.ERROR, "circuit", artifact, where,
                f"composite gate {spec.name} in a lowered circuit "
                "(must be decomposed before mapping)",
            ))
        for qubit in qubits:
            if qubit not in registered:
                out.append(_diag(
                    Severity.ERROR, "circuit", artifact, where,
                    f"dangling operand {qubit!r} (not a registered qubit)",
                ))
            if qubit not in first_use:
                first_use[qubit] = index
                if (
                    strict
                    and spec.kind is not GateKind.PREPARATION
                    and qubit in registered
                ):
                    out.append(_diag(
                        Severity.WARNING, "circuit", artifact, where,
                        f"qubit {qubit!r} first used by {spec.name} "
                        "without a preparation",
                    ))
    num_ops = len(circuit)
    for pos, fenced in circuit.fences:
        where = f"fence @{pos}"
        if not (0 <= pos <= num_ops):
            out.append(_diag(
                Severity.ERROR, "circuit", artifact, where,
                f"fence position {pos} outside [0, {num_ops}]",
            ))
        for qubit in fenced:
            if qubit not in registered:
                out.append(_diag(
                    Severity.ERROR, "circuit", artifact, where,
                    f"fence covers unregistered qubit {qubit!r}",
                ))
    if strict:
        for qubit in registered:
            if qubit not in first_use:
                out.append(_diag(
                    Severity.WARNING, "circuit", artifact, "",
                    f"registered qubit {qubit!r} is never used",
                ))
    return out


# ---------------------------------------------------------------------------
# DAG pass


def check_dag(
    dag: CircuitDag,
    artifact: str = "dag",
    circuit: Optional[Circuit] = None,
) -> list[Diagnostic]:
    """Verify DAG structural invariants with an independent traversal."""
    out: list[Diagnostic] = []
    n = dag.num_nodes
    if circuit is not None and n != len(circuit):
        out.append(_diag(
            Severity.ERROR, "dag", artifact, "",
            f"DAG has {n} nodes for a {len(circuit)}-op circuit",
        ))
    successors = [dag.successors(i) for i in range(n)]
    stray = [
        (index, succ)
        for index, succs in enumerate(successors)
        for succ in succs
        if not (0 <= succ < n)
    ]
    if stray:
        # The DAG derives its predecessor lists from these successor
        # lists, which an edge outside the node range breaks.
        out.extend(
            _diag(
                Severity.ERROR, "dag", artifact, f"op {index}",
                f"edge {index} -> {succ} leaves the node range [0, {n})",
            )
            for index, succ in stray
        )
        return out
    predecessors = [dag.predecessors(i) for i in range(n)]
    in_degrees = dag.in_degrees()
    if len(in_degrees) != n:
        out.append(_diag(
            Severity.ERROR, "dag", artifact, "",
            f"in_degrees() has {len(in_degrees)} entries for {n} nodes",
        ))
        in_degrees = in_degrees[:n] + [0] * (n - len(in_degrees))
    bounds_bad = False
    for index, succs in enumerate(successors):
        where = f"op {index}"
        for succ in succs:
            if succ <= index:
                out.append(_diag(
                    Severity.ERROR, "dag", artifact, where,
                    f"edge {index} -> {succ} violates program order "
                    "(dependence edges must point forward)",
                ))
            if index not in predecessors[succ]:
                out.append(_diag(
                    Severity.ERROR, "dag", artifact, where,
                    f"edge {index} -> {succ} has no mirrored "
                    "predecessor entry",
                ))
    for index, preds in enumerate(predecessors):
        where = f"op {index}"
        for pred in preds:
            if not (0 <= pred < n):
                out.append(_diag(
                    Severity.ERROR, "dag", artifact, where,
                    f"predecessor {pred} of {index} leaves the node "
                    f"range [0, {n})",
                ))
                bounds_bad = True
                continue
            if index not in successors[pred]:
                out.append(_diag(
                    Severity.ERROR, "dag", artifact, where,
                    f"predecessor edge {pred} -> {index} has no mirrored "
                    "successor entry",
                ))
        if in_degrees[index] != len(preds):
            out.append(_diag(
                Severity.ERROR, "dag", artifact, where,
                f"in_degree {in_degrees[index]} != {len(preds)} "
                "recorded predecessors",
            ))
    if not bounds_bad:
        # Independent Kahn sweep over the successor lists; a shortfall
        # means a cycle (unreachable-from-sources nodes with nonzero
        # in-degree).
        remaining = [len(p) for p in predecessors]
        ready = [i for i, d in enumerate(remaining) if d == 0]
        visited = 0
        while ready:
            node = ready.pop()
            visited += 1
            for succ in successors[node]:
                remaining[succ] -= 1
                if remaining[succ] == 0:
                    ready.append(succ)
        if visited != n:
            out.append(_diag(
                Severity.ERROR, "dag", artifact, "",
                f"dependence graph has a cycle ({n - visited} of {n} "
                "nodes unreachable by topological sweep)",
            ))
    return out


# ---------------------------------------------------------------------------
# Placement pass


def check_placement(
    placement: Placement,
    artifact: str = "placement",
    circuit: Optional[Circuit] = None,
) -> list[Diagnostic]:
    """Verify placement site validity and operand coverage."""
    out: list[Diagnostic] = []
    grid = placement.grid
    seen: dict[tuple[int, int], object] = {}
    for node, site in placement.positions.items():
        row, col = site
        if not (0 <= row < grid.rows and 0 <= col < grid.cols):
            out.append(_diag(
                Severity.ERROR, "placement", artifact, f"qubit {node!r}",
                f"placed off-grid at {site} "
                f"(grid is {grid.rows}x{grid.cols})",
            ))
        if site in seen:
            out.append(_diag(
                Severity.ERROR, "placement", artifact, f"qubit {node!r}",
                f"site {site} already assigned to {seen[site]!r}",
            ))
        else:
            seen[site] = node
    if circuit is not None:
        placed = set(placement.positions)
        missing: dict[str, int] = {}
        for index, op in enumerate(circuit):
            for qubit in op.qubits:
                if qubit not in placed and qubit not in missing:
                    missing[qubit] = index
        for qubit, index in missing.items():
            out.append(_diag(
                Severity.ERROR, "placement", artifact, f"op {index}",
                f"operand {qubit!r} has no placement",
            ))
    return out


# ---------------------------------------------------------------------------
# BraidPlan pass


_READONLY_FIELDS = (
    "is_braid", "route_length", "segments", "local_cycles",
    "in_degrees", "successors", "sources",
)

_TASK_FIELDS = ("is_braid", "route_length", "local_cycles", "segments")


def check_plan(
    plan: BraidPlan,
    artifact: str = "plan",
    strict: bool = False,
) -> list[Diagnostic]:
    """Verify a :class:`BraidPlan`'s internal consistency.

    Re-derives the network tasks from the plan's circuit and placement
    with :func:`~repro.network.events.build_tasks` and cross-checks
    every per-op array against them, re-derives every redundant
    structure (masks from paths, minimal lengths from endpoints, the
    critical path from op latencies and successor edges, in-degrees
    and sources from the DAG) and checks the plan's shared arrays are
    actually immutable tuples — the property simulators rely on when
    treating a plan as read-only.
    """
    out: list[Diagnostic] = []
    for field in _READONLY_FIELDS:
        value = getattr(plan, field)
        if not isinstance(value, tuple):
            out.append(_diag(
                Severity.ERROR, "plan", artifact, field,
                f"shared plan array {field!r} is a mutable "
                f"{type(value).__name__} (must be a tuple)",
            ))
    n = plan.num_ops
    circuit_ops = len(plan.circuit)
    if n != circuit_ops:
        out.append(_diag(
            Severity.ERROR, "plan", artifact, "",
            f"plan covers {n} ops but its circuit has {circuit_ops} "
            "(planned circuits must not be mutated)",
        ))
    for field in ("is_braid", "route_length", "segments", "local_cycles",
                  "in_degrees", "successors"):
        length = len(getattr(plan, field))
        if length != n:
            out.append(_diag(
                Severity.ERROR, "plan", artifact, field,
                f"array {field!r} has {length} entries for {n} ops",
            ))
    if any(d.severity is Severity.ERROR for d in out):
        # Structural damage: per-op cross-checks below would index
        # mismatched arrays.
        return out

    mesh = BraidMesh(plan.rows, plan.cols)
    for router in plan.factory_routers:
        if not mesh.in_bounds(router):
            out.append(_diag(
                Severity.ERROR, "plan", artifact, f"factory {router}",
                f"factory router {router} is off-mesh "
                f"({mesh.router_rows}x{mesh.router_cols} routers)",
            ))
    t_count = plan.circuit.t_count
    if t_count and not plan.factory_routers:
        out.append(_diag(
            Severity.ERROR, "plan", artifact, "",
            f"circuit consumes {t_count} magic states but the plan "
            "has no factory routers",
        ))

    # The oracle: the slow, obviously correct transcription of Figure 5
    # (it also rejects a placement that does not fit the mesh).
    try:
        tasks = build_tasks(
            plan.circuit, plan.placement, mesh, plan.code, plan.distance,
            plan.factory_routers,
        )
    except (KeyError, ValueError) as error:
        out.append(_diag(
            Severity.ERROR, "plan", artifact, "",
            f"network tasks cannot be re-derived from the circuit: "
            f"{error}",
        ))
        tasks = None

    for index in range(n):
        where = f"op {index}"
        segment_infos = plan.segments[index]
        if plan.is_braid[index] != bool(segment_infos):
            out.append(_diag(
                Severity.ERROR, "plan", artifact, where,
                f"is_braid={plan.is_braid[index]} disagrees with "
                f"{len(segment_infos)} segment(s)",
            ))
        expected_len = sum(info[3] for info in segment_infos)
        if plan.route_length[index] != expected_len:
            out.append(_diag(
                Severity.ERROR, "plan", artifact, where,
                f"route_length={plan.route_length[index]} != "
                f"{expected_len} (sum of minimal segment lengths)",
            ))
        if not segment_infos and plan.local_cycles[index] < 1:
            out.append(_diag(
                Severity.ERROR, "plan", artifact, where,
                f"local op has non-positive duration "
                f"{plan.local_cycles[index]}",
            ))
        if tasks is not None:
            task = tasks[index]
            planned = (
                plan.is_braid[index], plan.route_length[index],
                plan.local_cycles[index],
                tuple(info[:4] for info in segment_infos),
            )
            derived = (
                task.is_braid, task.route_length, task.local_cycles,
                tuple(
                    (seg.src, seg.dst, seg.hold, seg.min_length)
                    for seg in task.segments
                ),
            )
            for field, have, want in zip(_TASK_FIELDS, planned, derived):
                if have != want:
                    out.append(_diag(
                        Severity.ERROR, "plan", artifact, where,
                        f"{field}={have!r} but build_tasks derives "
                        f"{want!r}",
                    ))
        for seg_idx, info in enumerate(segment_infos):
            seg_where = f"segment {seg_idx} of op {index}"
            src, dst, hold, min_len, dor_path, dor_mask = info
            if not mesh.in_bounds(src) or not mesh.in_bounds(dst):
                out.append(_diag(
                    Severity.ERROR, "plan", artifact, seg_where,
                    f"route endpoint off-mesh: {src} -> {dst} on a "
                    f"{mesh.router_rows}x{mesh.router_cols} router grid",
                ))
                continue
            if hold != plan.distance:
                out.append(_diag(
                    Severity.ERROR, "plan", artifact, seg_where,
                    f"stabilization hold {hold} != code distance "
                    f"{plan.distance}",
                ))
            expected_min = manhattan(src, dst)
            if min_len != expected_min:
                out.append(_diag(
                    Severity.ERROR, "plan", artifact, seg_where,
                    f"minimal length {min_len} != Manhattan distance "
                    f"{expected_min}",
                ))
            if not dor_path or dor_path[0] != src or dor_path[-1] != dst:
                out.append(_diag(
                    Severity.ERROR, "plan", artifact, seg_where,
                    f"dominant route {dor_path!r} does not connect "
                    f"{src} -> {dst}",
                ))
                continue
            if len(dor_path) != expected_min + 1:
                out.append(_diag(
                    Severity.ERROR, "plan", artifact, seg_where,
                    f"dominant route visits {len(dor_path)} routers; a "
                    f"minimal route visits {expected_min + 1}",
                ))
            if any(not mesh.in_bounds(node) for node in dor_path):
                out.append(_diag(
                    Severity.ERROR, "plan", artifact, seg_where,
                    "dominant route leaves the mesh",
                ))
                continue
            try:
                expected_mask = mesh.path_mask(dor_path)
            except ValueError as error:
                out.append(_diag(
                    Severity.ERROR, "plan", artifact, seg_where,
                    f"dominant route is not a mesh path: {error}",
                ))
                continue
            if dor_mask >> mesh.num_links:
                out.append(_diag(
                    Severity.ERROR, "plan", artifact, seg_where,
                    f"link mask claims bits beyond the mesh's "
                    f"{mesh.num_links} links",
                ))
            elif dor_mask != expected_mask:
                out.append(_diag(
                    Severity.ERROR, "plan", artifact, seg_where,
                    f"link mask {dor_mask:#x} does not match its route "
                    f"(expected {expected_mask:#x})",
                ))

    # DAG array agreement: the plan's scheduling arrays must be the
    # DAG's own view of the (unmutated) dependence structure.
    dag_in = plan.dag.in_degrees()[:n]
    if list(plan.in_degrees) != dag_in:
        out.append(_diag(
            Severity.ERROR, "plan", artifact, "in_degrees",
            "plan in_degrees do not match the dependence DAG "
            "(shared seed array was mutated or is stale)",
        ))
    dag_succ = plan.dag.successor_tuples()[:n]
    if tuple(plan.successors) != tuple(dag_succ):
        out.append(_diag(
            Severity.ERROR, "plan", artifact, "successors",
            "plan successor arrays do not match the dependence DAG",
        ))
    if list(plan.sources) != plan.dag.sources():
        out.append(_diag(
            Severity.ERROR, "plan", artifact, "sources",
            "plan source set does not match the dependence DAG",
        ))

    # Critical path re-derivation (same ASAP recurrence, fresh arrays):
    # a braid op holds each segment for its open cycle plus its hold.
    start = [0] * n
    critical = 0
    for index in range(n):
        segments = plan.segments[index]
        latency = (
            sum(seg[2] + 1 for seg in segments)
            if segments
            else plan.local_cycles[index]
        )
        finish = start[index] + latency
        if finish > critical:
            critical = finish
        for succ in plan.successors[index]:
            if 0 <= succ < n and finish > start[succ]:
                start[succ] = finish
    if critical != plan.critical_path:
        out.append(_diag(
            Severity.ERROR, "plan", artifact, "critical_path",
            f"recorded critical path {plan.critical_path} != "
            f"{critical} re-derived from the op latencies",
        ))

    factories = set(plan.factory_routers)
    if strict and factories:
        from ..arch.tiled import DATA_TILES_PER_FACTORY

        data_tiles = len(plan.placement.positions)
        ratio = data_tiles / len(factories)
        if ratio > 4 * DATA_TILES_PER_FACTORY:
            out.append(_diag(
                Severity.WARNING, "plan", artifact, "",
                f"{data_tiles} data tiles share {len(factories)} "
                f"factories ({ratio:.1f} tiles/factory; balance is "
                f"~{DATA_TILES_PER_FACTORY})",
            ))
    return out


# ---------------------------------------------------------------------------
# Reservation-schedule pass (Policy 7's artifact)


def check_sched(
    plan: BraidPlan,
    artifact: str = "plan",
    schedule=None,
) -> list[Diagnostic]:
    """Verify the reservation schedule derived from ``plan``.

    By default validates exactly what the engine will use —
    :func:`~repro.network.policies_sched.build_reservation` of this
    plan; pass ``schedule`` to audit an externally revived or suspect
    schedule instead.

    The reservation schedule is *replayed*: every reserved window is
    re-booked into a fresh :class:`~repro.network.policies_sched.
    ReservationTable` (any overlap on a link-cycle slot is a
    double-book), ready times are recomputed from the DAG with the
    simulator's exact latencies, and the achieved initiation interval
    and makespan are checked against the independently recomputed
    ``ii()`` bound and the plan's critical path.
    """
    from ..network.policies_sched import (
        ReservationTable,
        build_reservation,
        ii_lower_bound,
    )

    out: list[Diagnostic] = []
    n = plan.num_ops
    if schedule is None:
        schedule = build_reservation(plan)

    structural = False
    if len(schedule.reserved) != n or len(schedule.finish) != n:
        out.append(_diag(
            Severity.ERROR, "sched", artifact, "reserved",
            f"schedule covers {len(schedule.reserved)} ops "
            f"(finish: {len(schedule.finish)}) for a {n}-op plan",
        ))
        structural = True
    if schedule.ii < 1:
        out.append(_diag(
            Severity.ERROR, "sched", artifact, "ii",
            f"initiation interval {schedule.ii} is not positive",
        ))
        structural = True
    if not structural:
        bound = ii_lower_bound(plan)
        if schedule.ii_lower != bound:
            out.append(_diag(
                Severity.ERROR, "sched", artifact, "ii",
                f"recorded ii lower bound {schedule.ii_lower} != "
                f"recomputed link-pressure bound {bound}",
            ))
        if schedule.ii < bound:
            out.append(_diag(
                Severity.ERROR, "sched", artifact, "ii",
                f"achieved initiation interval {schedule.ii} is below "
                f"the ii() lower bound {bound}",
            ))
        table = ReservationTable(schedule.ii)
        ready = [0] * n
        makespan = 0
        for op in range(n):
            where = f"op {op}"
            opens = schedule.reserved[op]
            if not plan.is_braid[op]:
                if opens:
                    out.append(_diag(
                        Severity.ERROR, "sched", artifact, where,
                        f"local op carries {len(opens)} reserved "
                        "cycles (must be none)",
                    ))
                end = ready[op] + plan.local_cycles[op]
            else:
                segments = plan.segments[op]
                if len(opens) != len(segments):
                    out.append(_diag(
                        Severity.ERROR, "sched", artifact, where,
                        f"{len(opens)} reserved cycles for "
                        f"{len(segments)} braid segments",
                    ))
                    end = schedule.finish[op]  # keep the sweep going
                else:
                    cursor = ready[op]
                    for index, (seg, cycle) in enumerate(
                        zip(segments, opens)
                    ):
                        hold, mask = seg[2], seg[5]
                        if cycle < cursor:
                            out.append(_diag(
                                Severity.ERROR, "sched", artifact,
                                f"{where} segment {index}",
                                f"reserved at cycle {cycle} before its "
                                f"dependence-ready cycle {cursor}",
                            ))
                        try:
                            table.book(cycle, hold + 2, mask)
                        except ValueError as error:
                            out.append(_diag(
                                Severity.ERROR, "sched", artifact,
                                f"{where} segment {index}",
                                f"double-books the table: {error}",
                            ))
                        cursor = cycle + 1 + hold
                    end = cursor
            if end != schedule.finish[op]:
                out.append(_diag(
                    Severity.ERROR, "sched", artifact, where,
                    f"recorded finish {schedule.finish[op]} != replayed "
                    f"finish {end}",
                ))
            if end > makespan:
                makespan = end
            for succ in plan.successors[op]:
                if end > ready[succ]:
                    ready[succ] = end
        if makespan != schedule.makespan:
            out.append(_diag(
                Severity.ERROR, "sched", artifact, "makespan",
                f"recorded makespan {schedule.makespan} != replayed "
                f"makespan {makespan}",
            ))
        if schedule.makespan < plan.critical_path:
            out.append(_diag(
                Severity.ERROR, "sched", artifact, "makespan",
                f"makespan {schedule.makespan} is below the plan's "
                f"critical path {plan.critical_path}",
            ))
    return out


# ---------------------------------------------------------------------------
# Composition


def check_point_artifacts(
    circuit: Circuit,
    dag: Optional[CircuitDag] = None,
    placement: Optional[Placement] = None,
    plan: Optional[BraidPlan] = None,
    artifact: str = "point",
    strict: bool = False,
) -> list[Diagnostic]:
    """Run every applicable pass over one design point's artifacts."""
    out = check_circuit(
        circuit, artifact=artifact, lowered=True, strict=strict
    )
    if dag is not None:
        out.extend(check_dag(dag, artifact=artifact, circuit=circuit))
    if placement is not None:
        out.extend(
            check_placement(placement, artifact=artifact, circuit=circuit)
        )
    if plan is not None:
        out.extend(check_plan(plan, artifact=artifact, strict=strict))
        out.extend(check_sched(plan, artifact=artifact))
    return out
