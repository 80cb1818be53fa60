"""Tests for grid shapes and interaction-aware placement."""

import pytest
from hypothesis import given, settings

from repro.apps import build_circuit
from repro.frontend import decompose_circuit
from repro.partition import (
    GridShape,
    circuit_layout,
    grid_for,
    interaction_graph_from_circuit,
    naive_layout,
    optimized_layout,
    weighted_manhattan_cost,
)
from repro.qasm import Circuit

from .conftest import random_graphs, two_cliques


class TestGridShape:
    def test_capacity_and_sites(self):
        grid = GridShape(2, 3)
        assert grid.capacity == 6
        assert len(grid.sites()) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            GridShape(0, 3)

    @pytest.mark.parametrize("count", [1, 2, 5, 9, 10, 17, 64, 100])
    def test_grid_for_fits(self, count):
        grid = grid_for(count)
        assert grid.capacity >= count
        # Near-square: neither dimension more than ~2x the other + 1.
        assert max(grid.rows, grid.cols) <= 2 * min(grid.rows, grid.cols) + 1

    def test_grid_for_validation(self):
        with pytest.raises(ValueError):
            grid_for(0)


class TestNaiveLayout:
    def test_row_major(self):
        placement = naive_layout(["a", "b", "c", "d"], GridShape(2, 2))
        assert placement.position("a") == (0, 0)
        assert placement.position("b") == (0, 1)
        assert placement.position("c") == (1, 0)

    def test_capacity_enforced(self):
        with pytest.raises(ValueError, match="capacity"):
            naive_layout(["a", "b", "c"], GridShape(1, 2))

    def test_distance(self):
        placement = naive_layout(["a", "b", "c", "d"], GridShape(2, 2))
        assert placement.distance("a", "d") == 2
        assert placement.distance("a", "b") == 1

    def test_free_sites(self):
        placement = naive_layout(["a"], GridShape(1, 2))
        assert placement.free_sites() == [(0, 1)]

    def test_duplicate_site_rejected(self):
        from repro.partition.layout import Placement

        with pytest.raises(ValueError, match="twice"):
            Placement(GridShape(1, 2), {"a": (0, 0), "b": (0, 0)})

    def test_off_grid_rejected(self):
        from repro.partition.layout import Placement

        with pytest.raises(ValueError, match="off-grid"):
            Placement(GridShape(1, 1), {"a": (3, 0)})


class TestOptimizedLayout:
    def test_all_nodes_placed(self):
        g = two_cliques(4)
        placement = optimized_layout(g)
        assert sorted(placement.positions) == sorted(g.nodes)

    def test_beats_or_ties_naive_on_cliques(self):
        g = two_cliques(6)
        qubits = sorted(g.nodes, key=lambda n: (n[0] != "a", n))
        # Interleave the cliques to make the naive layout bad.
        interleaved = [q for pair in zip(qubits[:6], qubits[6:]) for q in pair]
        naive = naive_layout(interleaved)
        optimized = optimized_layout(g, naive.grid)
        assert weighted_manhattan_cost(g, optimized) <= weighted_manhattan_cost(
            g, naive
        )

    def test_cliques_stay_local(self):
        g = two_cliques(4)
        placement = optimized_layout(g)
        intra_a = max(
            placement.distance(f"a{i}", f"a{j}")
            for i in range(4)
            for j in range(i + 1, 4)
        )
        assert intra_a <= 3  # clique members stay in one quadrant-ish

    def test_capacity_enforced(self):
        g = two_cliques(4)
        with pytest.raises(ValueError, match="capacity"):
            optimized_layout(g, GridShape(2, 2))

    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_valid_placement_for_any_graph(self, g):
        placement = optimized_layout(g)
        assert sorted(placement.positions) == sorted(g.nodes)
        # Placement validity (no duplicate sites) enforced by constructor.

    @given(random_graphs())
    @settings(max_examples=20, deadline=None)
    def test_never_much_worse_than_naive(self, g):
        placement = optimized_layout(g)
        naive = naive_layout(sorted(g.nodes, key=str), placement.grid)
        optimized_cost = weighted_manhattan_cost(g, placement)
        naive_cost = weighted_manhattan_cost(g, naive)
        assert optimized_cost <= naive_cost * 1.5 + 4.0

    def test_real_application_improves(self):
        circuit = build_circuit("im", 16)
        g = interaction_graph_from_circuit(circuit)
        optimized = optimized_layout(g)
        naive = naive_layout(circuit.qubits, optimized.grid)
        assert weighted_manhattan_cost(g, optimized) <= weighted_manhattan_cost(
            g, naive
        )


class TestCircuitLayout:
    """The one placement both machines of an instance map."""

    @pytest.fixture(scope="class")
    def im_circuit(self):
        return decompose_circuit(build_circuit("im", 8))

    @pytest.mark.parametrize("optimize", [True, False])
    def test_every_qubit_on_the_smallest_grid(self, im_circuit, optimize):
        placement = circuit_layout(im_circuit, optimize=optimize)
        assert placement.grid == grid_for(im_circuit.num_qubits)
        assert sorted(placement.positions) == sorted(im_circuit.qubits)

    def test_naive_is_program_order(self, im_circuit):
        placement = circuit_layout(im_circuit, optimize=False)
        assert placement == naive_layout(
            im_circuit.qubits, grid_for(im_circuit.num_qubits)
        )

    def test_optimized_partitions_the_interaction_graph(self, im_circuit):
        placement = circuit_layout(im_circuit)
        graph = interaction_graph_from_circuit(im_circuit)
        assert placement == optimized_layout(
            graph, grid_for(im_circuit.num_qubits)
        )
        naive = circuit_layout(im_circuit, optimize=False)
        assert weighted_manhattan_cost(graph, placement) <= (
            weighted_manhattan_cost(graph, naive)
        )

    def test_idle_qubits_are_placed(self):
        # A qubit no gate touches still needs a tile on the machine.
        c = Circuit(qubits=["a", "b", "c"])
        c.apply("CNOT", "a", "b")
        for optimize in (True, False):
            placement = circuit_layout(c, optimize=optimize)
            assert sorted(placement.positions) == ["a", "b", "c"]
            assert placement.grid == GridShape(2, 2)

    def test_qubitless_circuit_gets_one_empty_site(self):
        for optimize in (True, False):
            placement = circuit_layout(Circuit(qubits=[]), optimize=optimize)
            assert placement.grid == GridShape(1, 1)
            assert placement.positions == {}
