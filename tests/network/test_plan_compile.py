"""The braid-plan compile against its oracle, and the sharing it keeps.

:meth:`BraidPlan.build` compiles a circuit in one pass straight into
the per-op arrays the simulator reads.  :func:`build_tasks` is the
slow, obviously correct transcription of Figure 5, and filling a plan
from its tasks (the ``tasks=`` seam) must give equal arrays on every
input: random small circuits (with one factory, and with several so
that nearest-factory ties occur) and the four Figure 6 apps at two
distances in both layouts.  The compile also raises the errors
``build_tasks`` raises, and the sharing pins hold it to one segment
tuple per endpoint pair and no per-op task objects.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import build_tiled_machine
from repro.network import BraidMesh
from repro.network.events import build_tasks
from repro.network.plan import BraidPlan
from repro.partition import GridShape, naive_layout
from repro.qasm import Circuit
from repro.qec.codes import DOUBLE_DEFECT
from repro.runner import StageCache
from repro.runner.stages import compute_frontend, compute_layout
from repro.runner.sweep import DEFAULT_APPS

from .test_policy_differential import _MESHES, small_plans

PLAN_ARRAYS = (
    "num_ops", "is_braid", "route_length", "segments", "local_cycles",
    "in_degrees", "successors", "sources", "critical_path",
)

FIG6_SIZES = {"gse": 4, "sq": 3, "sha1": 4, "im": 12}


def oracle_plan(plan):
    """The same design point filled from ``build_tasks``' tasks."""
    mesh = BraidMesh(plan.rows, plan.cols)
    tasks = build_tasks(
        plan.circuit, plan.placement, mesh, plan.code, plan.distance,
        plan.factory_routers,
    )
    return BraidPlan.build(
        plan.circuit, plan.placement, mesh, plan.code, plan.distance,
        plan.factory_routers, plan.max_detour, dag=plan.dag, tasks=tasks,
    )


def assert_matches_oracle(plan):
    oracle = oracle_plan(plan)
    for field in PLAN_ARRAYS:
        assert getattr(plan, field) == getattr(oracle, field), field


@st.composite
def multi_factory_plans(draw):
    """Random circuits with 1-4 factories anywhere on the router grid,
    so that magic-state sites often tie between factories."""
    rows, cols = draw(st.sampled_from(_MESHES))
    n = draw(st.integers(2, rows * cols))
    qubits = [f"q{i}" for i in range(n)]
    routers = st.tuples(st.integers(0, rows), st.integers(0, cols))
    factories = tuple(
        draw(st.lists(routers, min_size=1, max_size=4, unique=True))
    )
    circuit = Circuit(qubits=qubits)
    for _ in range(draw(st.integers(1, 16))):
        gate = draw(st.sampled_from(
            ("CNOT", "CZ", "SWAP", "T", "TDG", "H", "S", "PREPZ", "MEASZ")
        ))
        i = draw(st.integers(0, n - 1))
        if gate in ("CNOT", "CZ", "SWAP"):
            j = draw(st.integers(0, n - 2))
            circuit.apply(gate, qubits[i], qubits[j + (j >= i)])
        else:
            circuit.apply(gate, qubits[i])
    return BraidPlan.build(
        circuit,
        naive_layout(qubits, GridShape(rows, cols)),
        BraidMesh(rows, cols),
        distance=draw(st.integers(1, 7)),
        factory_routers=factories,
    )


class TestCompileOracle:
    @given(plan=small_plans())
    @settings(max_examples=60, deadline=None)
    def test_small_plans(self, plan):
        assert_matches_oracle(plan)

    @given(plan=multi_factory_plans())
    @settings(max_examples=60, deadline=None)
    def test_multi_factory_plans(self, plan):
        assert_matches_oracle(plan)

    @pytest.fixture(scope="class")
    def cache(self):
        return StageCache()

    @pytest.mark.parametrize("optimize", (False, True))
    @pytest.mark.parametrize("distance", (3, 5))
    @pytest.mark.parametrize("app", DEFAULT_APPS)
    def test_fig6_apps(self, cache, app, distance, optimize):
        size = FIG6_SIZES[app]
        frontend = compute_frontend(cache, app, size, None)
        machine = build_tiled_machine(
            frontend.circuit, compute_layout(cache, app, size, None, optimize)
        )
        plan = BraidPlan.build(
            machine.circuit, machine.placement,
            BraidMesh(machine.grid.rows, machine.grid.cols), machine.code,
            distance, machine.factory_routers, dag=frontend.dag,
        )
        assert plan.circuit.t_count and len(plan.factory_routers) > 1
        assert_matches_oracle(plan)


def _line(gates, factories=((0, 0),), distance=3):
    qubits = ["a", "b", "c"]
    circuit = Circuit(qubits=qubits)
    for gate, *operands in gates:
        circuit.apply(gate, *operands)
    args = (
        circuit, naive_layout(qubits, GridShape(1, 3)), BraidMesh(1, 3)
    )
    return args, dict(distance=distance, factory_routers=factories)


class TestCompileErrors:
    """The compile raises what ``build_tasks`` raises, word for word."""

    @pytest.mark.parametrize(
        "gates, factories, distance",
        [
            ((("CNOT", "a", "b"),), (), 0),
            ((("H", "a"), ("TOFFOLI", "a", "b", "c")), (), 3),
            ((("CNOT", "a", "b"), ("T", "c")), (), 3),
        ],
        ids=["distance", "composite", "no-factory"],
    )
    def test_same_error_as_build_tasks(self, gates, factories, distance):
        (circuit, placement, mesh), kwargs = _line(
            gates, factories, distance
        )
        with pytest.raises(ValueError) as oracle:
            build_tasks(
                circuit, placement, mesh, DOUBLE_DEFECT, distance, factories
            )
        with pytest.raises(ValueError) as compiled:
            BraidPlan.build(circuit, placement, mesh, **kwargs)
        assert str(compiled.value) == str(oracle.value)


class TestSharing:
    @pytest.fixture(scope="class")
    def plan(self):
        (circuit, placement, mesh), kwargs = _line([
            ("CNOT", "a", "b"),
            ("H", "a"),
            ("CNOT", "a", "b"),
            ("CZ", "a", "b"),
            ("CNOT", "b", "a"),
            ("T", "c"),
            ("T", "c"),
        ])
        return BraidPlan.build(circuit, placement, mesh, **kwargs)

    def test_same_endpoints_share_one_segments_tuple(self, plan):
        assert plan.segments[0] is plan.segments[2] is plan.segments[3]
        assert plan.segments[5] is plan.segments[6]
        # Reversed endpoints are another route.
        assert plan.segments[4] != plan.segments[0]

    def test_two_qubit_segments_are_one_object(self, plan):
        first, second = plan.segments[0]
        assert first is second

    def test_plan_holds_no_tasks(self, plan):
        assert not hasattr(plan, "tasks")
        assert "tasks" not in BraidPlan.__slots__
        assert plan.local_cycles[1] >= 1
        assert plan.local_cycles[0] == 0
