"""Cross-module integration and invariant tests.

These exercise whole-pipeline properties that no single module test
covers: QASM round-trips of real applications, braid-simulator
conservation laws on random circuits, and consistency between the
analytic models and the simulators they are calibrated from.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_circuit
from repro.arch import build_tiled_machine
from repro.frontend import decompose_circuit, estimate_circuit
from repro.network import BraidMesh, simulate_braids, simulate_plan
from repro.partition import GridShape, circuit_layout, naive_layout
from repro.qasm import Circuit, CircuitDag, parse_qasm, write_flat_qasm
from repro.qec import DOUBLE_DEFECT, PLANAR, choose_distance, logical_error_rate
from repro.tech import OPTIMISTIC


class TestRealAppRoundTrips:
    @pytest.mark.parametrize("app,size", [("gse", 3), ("sq", 2), ("im", 4)])
    def test_qasm_round_trip_real_apps(self, app, size):
        circuit = build_circuit(app, size)
        reparsed = parse_qasm(write_flat_qasm(circuit))
        assert len(reparsed) == len(circuit)
        assert reparsed.qubits == circuit.qubits
        for a, b in zip(circuit, reparsed):
            assert a.gate == b.gate
            assert a.qubits == b.qubits

    @pytest.mark.parametrize("app,size", [("gse", 3), ("sq", 2), ("im", 4)])
    def test_decomposition_preserves_qubits(self, app, size):
        circuit = build_circuit(app, size)
        lowered = decompose_circuit(circuit)
        assert set(circuit.qubits) <= set(lowered.qubits)
        assert not lowered.has_composites()

    @pytest.mark.parametrize("app,size", [("gse", 3), ("im", 4)])
    def test_estimates_consistent_with_dag(self, app, size):
        lowered = decompose_circuit(build_circuit(app, size))
        dag = CircuitDag(lowered)
        estimate = estimate_circuit(lowered, dag)
        assert estimate.critical_path == dag.critical_path_length
        assert estimate.total_operations == dag.num_nodes


@st.composite
def braidable_circuits(draw):
    """Random Clifford+T circuits over a fixed 3x3 tile layout."""
    qubits = [f"q{i}" for i in range(9)]
    circuit = Circuit("random", qubits=qubits)
    for _ in range(draw(st.integers(1, 25))):
        choice = draw(st.integers(0, 3))
        if choice == 0:
            a, b = draw(st.permutations(qubits))[:2]
            circuit.apply("CNOT", a, b)
        elif choice == 1:
            circuit.apply("T", draw(st.sampled_from(qubits)))
        elif choice == 2:
            circuit.apply("H", draw(st.sampled_from(qubits)))
        else:
            circuit.apply("MEASZ", draw(st.sampled_from(qubits)))
    return circuit


class TestBraidSimProperties:
    @given(braidable_circuits(), st.integers(0, 6))
    @settings(max_examples=25, deadline=None)
    def test_all_policies_complete_and_bound(self, circuit, policy):
        placement = naive_layout(circuit.qubits, GridShape(3, 3))
        mesh = BraidMesh(3, 3)
        result = simulate_braids(
            circuit, placement, mesh, policy, distance=3,
            factory_routers=((3, 3), (0, 3)),
        )
        assert result.operations == len(circuit)
        # Schedule length respects the dependence lower bound.
        assert result.schedule_length >= result.critical_path
        # Utilization is a valid fraction.
        assert 0.0 <= result.mean_utilization <= 1.0
        # All claimed links were released (mesh drained).
        assert mesh.busy_links() == 0

    @given(braidable_circuits())
    @settings(max_examples=15, deadline=None)
    def test_policy6_never_loses_badly_to_policy1(self, circuit):
        placement = naive_layout(circuit.qubits, GridShape(3, 3))
        factories = ((3, 3),)
        r1 = simulate_braids(
            circuit, placement, BraidMesh(3, 3), 1, distance=3,
            factory_routers=factories,
        )
        r6 = simulate_braids(
            circuit, placement, BraidMesh(3, 3), 6, distance=3,
            factory_routers=factories,
        )
        assert r6.schedule_length <= r1.schedule_length * 1.5 + 10


class TestModelSimConsistency:
    def test_distance_choice_consistent_with_rate(self):
        for target in (1e-8, 1e-12, 1e-16):
            d = choose_distance(target, OPTIMISTIC)
            assert logical_error_rate(d, OPTIMISTIC) <= target

    def test_tile_models_agree_with_machine_accounting(self):
        circuit = decompose_circuit(build_circuit("im", 4))
        machine = build_tiled_machine(circuit, circuit_layout(circuit))
        d = 5
        per_tile = DOUBLE_DEFECT.tile_qubits(d)
        assert machine.physical_qubits(d) % per_tile == 0

    def test_planar_tile_smaller_at_all_distances(self):
        for d in range(3, 31, 2):
            assert PLANAR.tile_qubits(d) < DOUBLE_DEFECT.tile_qubits(d)

    def test_toolflow_congestion_matches_direct_sim(self):
        """The toolflow's braid result equals a direct machine sim."""
        circuit = decompose_circuit(build_circuit("im", 4))
        machine = build_tiled_machine(circuit, circuit_layout(circuit))
        direct = simulate_plan(machine.plan(3), 6)
        repeat = simulate_plan(machine.plan(3), 6)
        # Determinism: identical runs give identical schedules.
        assert direct.schedule_length == repeat.schedule_length
        assert direct.mean_utilization == repeat.mean_utilization
