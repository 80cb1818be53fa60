"""Seeded-defect coverage for the IR verifier passes.

Each test class plants one class of defect in an otherwise-valid
artifact — through the same trusted/bypass paths a real bug would use
(``Circuit.from_operations``, direct DAG list mutation, the raw
``BraidPlan(**fields)`` constructor) — and asserts the verifier flags
it with an actionable diagnostic.  Hypothesis sweeps randomized
variants of the highest-value classes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Severity
from repro.analysis.ir_checks import (
    check_circuit,
    check_dag,
    check_placement,
    check_plan,
    check_point_artifacts,
)
from repro.arch.tiled import build_tiled_machine
from repro.network.plan import BraidPlan
from repro.partition.layout import GridShape, Placement, circuit_layout
from repro.qasm.circuit import Circuit, Operation
from repro.qasm.dag import CircuitDag


def raw_operation(gate, qubits, param=None):
    """Build an Operation bypassing ``__post_init__`` validation."""
    op = object.__new__(Operation)
    object.__setattr__(op, "gate", gate)
    object.__setattr__(op, "qubits", tuple(qubits))
    object.__setattr__(op, "param", param)
    return op


def tiny_circuit():
    c = Circuit(name="tiny")
    qs = c.add_register("q", 4)
    for q in qs:
        c.apply("PREPZ", q)
    c.apply("CNOT", qs[0], qs[1])
    c.apply("T", qs[2])
    c.apply("CNOT", qs[2], qs[3])
    c.apply("H", qs[0])
    c.apply("MEASZ", qs[0])
    return c


def tiny_plan(distance=3):
    circuit = tiny_circuit()
    machine = build_tiled_machine(
        circuit, circuit_layout(circuit, optimize=False)
    )
    return machine.plan(distance)


def seed_edge(dag, src, dst, mirrored=True):
    """Plant the edge ``src -> dst`` by direct list mutation.

    The DAG derives its predecessor lists from the successor lists on
    first use, so they are derived before the plant: a mirrored edge
    then enters both lists and the in-degree count, an unmirrored one
    the successor list alone.
    """
    predecessors = dag._predecessor_lists()
    dag._successors[src].append(dst)
    if mirrored:
        predecessors[dst].append(src)
        dag._in_degree[dst] += 1


def corrupted(plan, **overrides):
    """Clone a plan through its raw constructor with fields replaced."""
    fields = {name: getattr(plan, name) for name in BraidPlan.__slots__}
    fields.update(overrides)
    return BraidPlan(**fields)


def errors_of(diags, pass_name=None):
    return [
        d
        for d in diags
        if d.severity is Severity.ERROR
        and (pass_name is None or d.pass_name == pass_name)
    ]


class TestCleanArtifacts:
    def test_tiny_point_is_clean(self):
        plan = tiny_plan()
        diags = check_point_artifacts(
            plan.circuit,
            dag=plan.dag,
            placement=plan.placement,
            plan=plan,
            strict=True,
        )
        assert diags == []


class TestCircuitDefects:
    def test_bad_arity(self):
        c = tiny_circuit()
        bad = Circuit.from_operations(
            c.name, c.qubits, [*c.operations, raw_operation("CNOT", ("q0",))]
        )
        (diag,) = errors_of(check_circuit(bad), "circuit")
        assert "arity" in diag.message
        assert diag.location == f"op {len(bad) - 1}"

    def test_unknown_gate(self):
        bad = Circuit.from_operations(
            "g", ["q0"], [raw_operation("WARP", ("q0",))]
        )
        (diag,) = errors_of(check_circuit(bad), "circuit")
        assert "unknown gate" in diag.message

    def test_duplicate_operands(self):
        bad = Circuit.from_operations(
            "g", ["q0"], [raw_operation("CNOT", ("q0", "q0"))]
        )
        (diag,) = errors_of(check_circuit(bad), "circuit")
        assert "distinct" in diag.message

    def test_dangling_operand(self):
        bad = Circuit.from_operations(
            "g", ["q0"], [raw_operation("CNOT", ("q0", "ghost"))]
        )
        (diag,) = errors_of(check_circuit(bad), "circuit")
        assert "dangling" in diag.message and "ghost" in diag.message

    def test_composite_gate_in_lowered_circuit(self):
        c = Circuit(name="g")
        c.apply("TOFFOLI", "a", "b", "c")
        assert errors_of(check_circuit(c, lowered=False)) == []
        (diag,) = errors_of(check_circuit(c, lowered=True), "circuit")
        assert "composite" in diag.message

    def test_missing_parameter(self):
        bad = Circuit.from_operations(
            "g", ["q0"], [raw_operation("RZ", ("q0",), param=None)]
        )
        diags = errors_of(check_circuit(bad), "circuit")
        assert any("parameter" in d.message for d in diags)

    def test_invalid_qubit_name(self):
        bad = Circuit(name="g")
        bad._qubits["a b"] = None  # bypasses add_qubit validation
        bad._operations.append(raw_operation("H", ("a b",)))
        diags = errors_of(check_circuit(bad), "circuit")
        assert any("invalid qubit name" in d.message for d in diags)

    def test_fence_out_of_range(self):
        c = tiny_circuit()
        bad = Circuit.from_operations(
            c.name, c.qubits, c.operations, fences=[(999, ("q0",))]
        )
        diags = errors_of(check_circuit(bad), "circuit")
        assert any("fence position" in d.message for d in diags)

    def test_use_before_init_is_strict_only(self):
        c = Circuit(name="g")
        c.apply("H", "q0")  # no PREPZ first
        assert check_circuit(c) == []
        diags = check_circuit(c, strict=True)
        assert any(
            d.severity is Severity.WARNING and "preparation" in d.message
            for d in diags
        )


class TestDagDefects:
    def test_back_edge_violates_program_order(self):
        c = tiny_circuit()
        dag = CircuitDag(c)
        seed_edge(dag, 5, 4)
        diags = errors_of(check_dag(dag, circuit=c), "dag")
        assert any("program order" in d.message for d in diags)

    def test_two_cycle_fails_topological_sweep(self):
        c = tiny_circuit()
        dag = CircuitDag(c)
        # 4 <-> 5 cycle (one direction may already exist).
        if 5 not in dag.successors(4):
            seed_edge(dag, 4, 5)
        seed_edge(dag, 5, 4)
        diags = errors_of(check_dag(dag, circuit=c), "dag")
        assert any("cycle" in d.message for d in diags)

    def test_unmirrored_edge(self):
        c = tiny_circuit()
        dag = CircuitDag(c)
        seed_edge(dag, 0, len(c) - 1, mirrored=False)
        diags = errors_of(check_dag(dag, circuit=c), "dag")
        assert any("mirrored" in d.message for d in diags)

    def test_edge_out_of_range(self):
        c = tiny_circuit()
        dag = CircuitDag(c)
        dag._successors[0].append(999)
        diags = errors_of(check_dag(dag, circuit=c), "dag")
        assert any("node range" in d.message for d in diags)

    def test_node_count_mismatch(self):
        c = tiny_circuit()
        dag = CircuitDag(c)
        grown = c.copy()
        grown.apply("H", "q1")
        diags = errors_of(check_dag(dag, circuit=grown), "dag")
        assert any("nodes" in d.message for d in diags)

    def test_edges_accessor_is_forward_only(self):
        dag = CircuitDag(tiny_circuit())
        edges = list(dag.edges())
        assert edges and all(src < dst for src, dst in edges)


class TestPlacementDefects:
    def test_off_grid_site(self):
        placement = Placement(GridShape(2, 2), {"a": (0, 0)})
        placement.positions["b"] = (9, 9)  # bypasses __post_init__
        diags = errors_of(check_placement(placement), "placement")
        assert any("off-grid" in d.message for d in diags)

    def test_double_booked_site(self):
        placement = Placement(GridShape(2, 2), {"a": (0, 0)})
        placement.positions["b"] = (0, 0)
        diags = errors_of(check_placement(placement), "placement")
        assert any("already assigned" in d.message for d in diags)

    def test_unplaced_operand(self):
        c = tiny_circuit()
        placement = Placement(GridShape(3, 3), {"q0": (0, 0)})
        diags = errors_of(
            check_placement(placement, circuit=c), "placement"
        )
        missing = {d.message.split("'")[1] for d in diags}
        assert missing == {"q1", "q2", "q3"}


def replace_segment(plan, op_index, seg_index, **seg_overrides):
    """Corrupt one prebound segment tuple of one op."""
    src, dst, hold, min_len, path, mask = plan.segments[op_index][seg_index]
    seg = {
        "src": src, "dst": dst, "hold": hold,
        "min_len": min_len, "path": path, "mask": mask,
    }
    seg.update(seg_overrides)
    new_seg = (
        seg["src"], seg["dst"], seg["hold"],
        seg["min_len"], seg["path"], seg["mask"],
    )
    segments = list(plan.segments)
    per_op = list(segments[op_index])
    per_op[seg_index] = new_seg
    segments[op_index] = tuple(per_op)
    return corrupted(plan, segments=tuple(segments))


def first_braid_op(plan):
    return next(i for i in range(plan.num_ops) if plan.is_braid[i])


class TestPlanDefects:
    def test_off_mesh_route(self):
        plan = tiny_plan()
        index = first_braid_op(plan)
        bad = replace_segment(plan, index, 0, src=(99, 99))
        diags = errors_of(check_plan(bad), "plan")
        assert any("off-mesh" in d.message for d in diags)

    def test_mask_link_mismatch(self):
        plan = tiny_plan()
        index = first_braid_op(plan)
        old_mask = plan.segments[index][0][5]
        bad = replace_segment(plan, index, 0, mask=old_mask ^ 1 or 1)
        diags = errors_of(check_plan(bad), "plan")
        assert any("mask" in d.message for d in diags)

    def test_mask_beyond_mesh_links(self):
        plan = tiny_plan()
        index = first_braid_op(plan)
        old_mask = plan.segments[index][0][5]
        from repro.network.mesh import BraidMesh

        num_links = BraidMesh(plan.rows, plan.cols).num_links
        bad = replace_segment(
            plan, index, 0, mask=old_mask | (1 << num_links)
        )
        diags = errors_of(check_plan(bad), "plan")
        assert any("beyond" in d.message for d in diags)

    def test_distance_mismatch(self):
        plan = tiny_plan(distance=3)
        index = first_braid_op(plan)
        bad = replace_segment(plan, index, 0, hold=5)
        diags = errors_of(check_plan(bad), "plan")
        assert any("hold 5" in d.message and "distance 3" in d.message
                   for d in diags)

    def test_disconnected_route(self):
        plan = tiny_plan()
        index = first_braid_op(plan)
        src, dst, *_ = plan.segments[index][0]
        bad = replace_segment(plan, index, 0, path=(src, src))
        diags = errors_of(check_plan(bad), "plan")
        assert any("route" in d.message for d in diags)

    def test_mutated_plan_array_type(self):
        plan = tiny_plan()
        bad = corrupted(plan, in_degrees=list(plan.in_degrees))
        diags = errors_of(check_plan(bad), "plan")
        assert any(
            "mutable" in d.message and "in_degrees" in d.message
            for d in diags
        )

    def test_stale_dag_arrays(self):
        plan = tiny_plan()
        in_degrees = list(plan.in_degrees)
        in_degrees[0] += 1
        bad = corrupted(plan, in_degrees=tuple(in_degrees))
        diags = errors_of(check_plan(bad), "plan")
        assert any("in_degrees" in (d.location or d.message) for d in diags)

    def test_critical_path_mismatch(self):
        plan = tiny_plan()
        bad = corrupted(plan, critical_path=plan.critical_path + 1)
        diags = errors_of(check_plan(bad), "plan")
        assert any("critical path" in d.message for d in diags)

    def test_missing_factory(self):
        plan = tiny_plan()
        assert plan.circuit.t_count > 0
        bad = corrupted(plan, factory_routers=())
        diags = errors_of(check_plan(bad), "plan")
        assert any("no factory" in d.message for d in diags)

    def test_consistent_segment_from_wrong_source(self):
        # A magic state braided from a router that is not the nearest
        # factory, with route, mask and lengths all consistent: only the
        # tasks re-derived by build_tasks can tell.
        plan = tiny_plan()
        index = next(
            i for i, op in enumerate(plan.circuit) if op.consumes_magic_state
        )
        src, dst = plan.segments[index][0][:2]
        wrong = next(
            (r, c)
            for r in range(plan.rows + 1)
            for c in range(plan.cols + 1)
            if (r, c) not in (src, dst)
        )
        path, mask = plan.routes.dor(wrong, dst)
        min_len = len(path) - 1
        bad = replace_segment(
            plan, index, 0, src=wrong, min_len=min_len, path=path, mask=mask
        )
        lengths = list(bad.route_length)
        lengths[index] = min_len
        bad = corrupted(bad, route_length=tuple(lengths))
        diags = errors_of(check_plan(bad), "plan")
        assert diags
        assert all("build_tasks derives" in d.message for d in diags)

    def test_route_length_mismatch(self):
        plan = tiny_plan()
        index = first_braid_op(plan)
        lengths = list(plan.route_length)
        lengths[index] += 3
        bad = corrupted(plan, route_length=tuple(lengths))
        diags = errors_of(check_plan(bad), "plan")
        assert any("route_length" in d.message for d in diags)

    def test_circuit_length_drift(self):
        plan = tiny_plan()
        plan.circuit.apply("H", "q1")  # mutate the planned circuit
        try:
            diags = errors_of(check_plan(plan), "plan")
            assert any("must not be mutated" in d.message for d in diags)
        finally:
            # Restore: the circuit object is shared with the plan memo.
            del plan.circuit._operations[-1]


# ---------------------------------------------------------------------------
# Hypothesis: randomized defect variants

GATE_POOL = st.sampled_from(["H", "X", "Z", "S", "T", "CNOT", "CZ"])
QUBITS = [f"q{i}" for i in range(5)]


@st.composite
def valid_circuits(draw):
    c = Circuit(name="gen")
    c.add_qubits(QUBITS)
    for q in QUBITS:
        c.apply("PREPZ", q)
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        gate = draw(GATE_POOL)
        if gate in ("CNOT", "CZ"):
            a, b = draw(
                st.lists(
                    st.sampled_from(QUBITS),
                    min_size=2, max_size=2, unique=True,
                )
            )
            c.apply(gate, a, b)
        else:
            c.apply(gate, draw(st.sampled_from(QUBITS)))
    return c


@settings(max_examples=25, deadline=None)
@given(circuit=valid_circuits())
def test_generated_circuits_verify_clean(circuit):
    assert check_circuit(circuit, lowered=True) == []
    assert check_dag(CircuitDag(circuit), circuit=circuit) == []


@settings(max_examples=25, deadline=None)
@given(
    circuit=valid_circuits(),
    data=st.data(),
)
def test_seeded_arity_defect_is_always_flagged(circuit, data):
    index = data.draw(
        st.integers(min_value=0, max_value=len(circuit) - 1)
    )
    ops = list(circuit.operations)
    victim = ops[index]
    ops[index] = raw_operation(victim.gate, (*victim.qubits, "q0", "q0"))
    bad = Circuit.from_operations(circuit.name, circuit.qubits, ops)
    diags = errors_of(check_circuit(bad), "circuit")
    assert any(d.location == f"op {index}" for d in diags)


@settings(max_examples=25, deadline=None)
@given(circuit=valid_circuits(), data=st.data())
def test_seeded_back_edge_is_always_flagged(circuit, data):
    dag = CircuitDag(circuit)
    dst = data.draw(
        st.integers(min_value=0, max_value=dag.num_nodes - 2)
    )
    src = data.draw(
        st.integers(min_value=dst + 1, max_value=dag.num_nodes - 1)
    )
    seed_edge(dag, src, dst)
    diags = errors_of(check_dag(dag, circuit=circuit), "dag")
    assert diags


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_seeded_mask_flip_is_always_flagged(data):
    plan = tiny_plan()
    braid_ops = [i for i in range(plan.num_ops) if plan.is_braid[i]]
    index = data.draw(st.sampled_from(braid_ops))
    seg_index = data.draw(
        st.integers(
            min_value=0, max_value=len(plan.segments[index]) - 1
        )
    )
    mask = plan.segments[index][seg_index][5]
    bit = data.draw(st.integers(min_value=0, max_value=7))
    flipped = mask ^ (1 << bit)
    bad = replace_segment(plan, index, seg_index, mask=flipped)
    assert errors_of(check_plan(bad), "plan")
