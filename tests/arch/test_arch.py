"""Tests for the tiled and Multi-SIMD machine builders."""

import sys

import pytest

from repro.apps import build_circuit
from repro.arch import (
    build_multisimd_machine,
    build_tiled_machine,
    simd_schedule,
)
from repro.frontend import decompose_circuit
from repro.network import simulate_plan
from repro.partition import GridShape, Placement, circuit_layout
from repro.partition import layout as layout_module
from repro.qasm import Circuit


@pytest.fixture(scope="module")
def im_circuit():
    return decompose_circuit(build_circuit("im", 8))


@pytest.fixture
def no_partitioner(monkeypatch):
    """Make any placement search inside a builder fail loudly, under
    whatever name a module holds the placement functions."""

    def refuse(*args, **kwargs):
        raise AssertionError("machine builders take a placement as given")

    real = {
        getattr(layout_module, name)
        for name in (
            "bisect",
            "circuit_layout",
            "interaction_graph_from_circuit",
            "naive_layout",
            "optimized_layout",
        )
    }
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro."):
            for name, value in list(vars(module).items()):
                if callable(value) and value in real:
                    monkeypatch.setattr(module, name, refuse)


class TestTiledMachine:
    def test_grid_surrounds_data(self, im_circuit):
        placement = circuit_layout(im_circuit)
        machine = build_tiled_machine(im_circuit, placement)
        assert machine.grid.capacity > im_circuit.num_qubits
        # All data tiles are interior (factories live on the ring).
        for r, c in machine.placement.positions.values():
            assert 0 < r < machine.grid.rows - 1
            assert 0 < c < machine.grid.cols - 1
        # The data placement moves in by the ring, unchanged otherwise.
        assert machine.placement.positions == {
            q: (r + 1, c + 1) for q, (r, c) in placement.positions.items()
        }

    def test_factories_present_and_on_ring(self, im_circuit):
        machine = build_tiled_machine(im_circuit, circuit_layout(im_circuit))
        assert len(machine.factory_routers) >= 2

    def test_factory_count_override(self, im_circuit):
        machine = build_tiled_machine(
            im_circuit, circuit_layout(im_circuit), factories=5
        )
        assert 1 <= len(machine.factory_routers) <= 5

    def test_physical_qubits_scale_with_distance(self, im_circuit):
        machine = build_tiled_machine(im_circuit, circuit_layout(im_circuit))
        assert machine.physical_qubits(9) > machine.physical_qubits(5)

    def test_simulate_runs(self, im_circuit):
        machine = build_tiled_machine(im_circuit, circuit_layout(im_circuit))
        result = simulate_plan(machine.plan(3), 6)
        assert result.operations == len(im_circuit)
        assert result.schedule_length >= result.critical_path

    def test_naive_vs_optimized_layout_differ(self, im_circuit):
        naive = build_tiled_machine(
            im_circuit, circuit_layout(im_circuit, optimize=False)
        )
        optimized = build_tiled_machine(im_circuit, circuit_layout(im_circuit))
        assert naive.grid.capacity == optimized.grid.capacity

    def test_single_qubit_circuit(self):
        c = Circuit(qubits=["a"])
        c.apply("H", "a")
        machine = build_tiled_machine(c, circuit_layout(c))
        result = simulate_plan(machine.plan(3), 1)
        assert result.operations == 1

    def test_builds_around_the_placement_alone(self, no_partitioner):
        placement = Placement(
            grid=GridShape(2, 3),
            positions={"a": (0, 2), "b": (1, 0)},
        )
        c = Circuit(qubits=["a", "b"])
        c.apply("CNOT", "a", "b")
        machine = build_tiled_machine(c, placement)
        # The placement's grid, whatever its shape, plus the ring.
        assert machine.grid == GridShape(4, 5)
        assert machine.placement.positions == {"a": (1, 3), "b": (2, 1)}
        assert simulate_plan(machine.plan(3), 6).operations == 1


class TestSimdSchedule:
    def test_groups_same_gate_type(self):
        c = Circuit()
        for i in range(6):
            c.apply("H", f"q{i}")
        for i in range(6):
            c.apply("X", f"r{i}")
        schedule = simd_schedule(c, regions=2)
        # All 12 ops are independent and form 2 type groups: 1 cycle.
        assert schedule.length == 1

    def test_region_limit_binds(self):
        c = Circuit()
        # Three distinct gate types, all independent.
        c.apply("H", "a")
        c.apply("X", "b")
        c.apply("Z", "c")
        assert simd_schedule(c, regions=1).length == 3
        assert simd_schedule(c, regions=3).length == 1

    def test_respects_dependences(self):
        c = Circuit()
        c.apply("H", "a")
        c.apply("X", "a")
        schedule = simd_schedule(c, regions=4)
        assert schedule.length == 2
        schedule.validate()

    def test_validates_against_dag(self, im_circuit):
        schedule = simd_schedule(im_circuit, regions=4)
        schedule.validate()

    def test_rejects_bad_region_count(self):
        with pytest.raises(ValueError):
            simd_schedule(Circuit(), regions=0)

    def test_more_regions_never_longer(self, im_circuit):
        narrow = simd_schedule(im_circuit, regions=2)
        wide = simd_schedule(im_circuit, regions=8)
        assert wide.length <= narrow.length


class TestMultiSimdMachine:
    def test_build(self, im_circuit):
        machine = build_multisimd_machine(
            im_circuit, circuit_layout(im_circuit), regions=4
        )
        assert machine.regions == 4
        assert len(machine.placement.positions) == im_circuit.num_qubits

    def test_regions_are_the_placement_grid(self, no_partitioner):
        placement = Placement(
            grid=GridShape(1, 4),
            positions={q: (0, i) for i, q in enumerate(["a", "b", "c"])},
        )
        c = Circuit(qubits=["a", "b", "c"])
        c.apply("CNOT", "a", "c")
        machine = build_multisimd_machine(c, placement, regions=2)
        assert machine.placement is placement
        assert machine.region_grid == GridShape(1, 4)
        assert machine.schedule().length == 1

    def test_rejects_bad_regions(self, im_circuit):
        with pytest.raises(ValueError):
            build_multisimd_machine(
                im_circuit, circuit_layout(im_circuit), regions=0
            )

    def test_physical_qubits_include_epr(self, im_circuit):
        machine = build_multisimd_machine(im_circuit, circuit_layout(im_circuit))
        base = machine.physical_qubits(5, peak_epr_pairs=0)
        with_epr = machine.physical_qubits(5, peak_epr_pairs=10)
        assert with_epr > base

    def test_epr_pipeline_end_to_end(self, im_circuit):
        machine = build_multisimd_machine(
            im_circuit, circuit_layout(im_circuit), regions=4
        )
        schedule = machine.schedule()
        result = machine.epr_pipeline(schedule, distance=3, window=32)
        assert result.total_pairs > 0
        assert result.schedule_length >= result.ideal_length

    def test_rejects_negative_window_in_logical_cycles(self, im_circuit):
        # The message gives the window the caller passed, not the
        # window scaled to error-correction cycles.
        machine = build_multisimd_machine(
            im_circuit, circuit_layout(im_circuit), regions=4
        )
        with pytest.raises(ValueError, match="logical cycles, got -1$"):
            machine.epr_pipeline(machine.schedule(), distance=3, window=-1)

    def test_window_tradeoff_on_real_app(self, im_circuit):
        machine = build_multisimd_machine(
            im_circuit, circuit_layout(im_circuit), regions=4
        )
        schedule = machine.schedule()
        tight = machine.epr_pipeline(schedule, distance=3, window=1)
        loose = machine.epr_pipeline(schedule, distance=3, window=512)
        assert tight.stall_cycles >= loose.stall_cycles
        assert tight.peak_epr_pairs <= loose.peak_epr_pairs
