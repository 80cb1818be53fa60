"""Tests for the interaction graph and multilevel partitioner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import (
    InteractionGraph,
    balanced_seed_bisection,
    bisect,
    coarsen_once,
    coarsen_to_size,
    interaction_graph_from_circuit,
    kl_refine,
    recursive_partition,
)
from repro.qasm import Circuit

from .conftest import random_graphs, two_cliques


class TestInteractionGraph:
    def test_edge_accumulation(self):
        g = InteractionGraph()
        g.add_edge("a", "b", 1.0)
        g.add_edge("a", "b", 2.0)
        assert g.edge_weight("a", "b") == pytest.approx(3.0)
        assert g.num_edges == 1

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self-loop"):
            InteractionGraph().add_edge("a", "a")

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            InteractionGraph().add_edge("a", "b", 0.0)
        with pytest.raises(ValueError):
            InteractionGraph().add_node("a", weight=-1.0)

    def test_degree_and_total(self):
        g = two_cliques(3)
        assert g.total_edge_weight() == pytest.approx(2.0 * 6 + 0.5)
        assert g.degree("a0") == pytest.approx(2.0 * 2 + 0.5)

    def test_cut_weight(self):
        g = two_cliques(3)
        ideal = {f"a{i}": 0 for i in range(3)} | {f"b{i}": 1 for i in range(3)}
        assert g.cut_weight(ideal) == pytest.approx(0.5)

    def test_from_circuit(self):
        c = Circuit()
        c.apply("CNOT", "x", "y")
        c.apply("CNOT", "x", "y")
        c.apply("CZ", "y", "z")
        c.apply("H", "w")
        g = interaction_graph_from_circuit(c)
        assert g.edge_weight("x", "y") == 2.0
        assert g.edge_weight("y", "z") == 1.0
        assert "w" in g  # isolated qubits kept by default

    def test_from_circuit_excluding_isolated(self):
        c = Circuit()
        c.apply("H", "w")
        c.apply("CNOT", "x", "y")
        g = interaction_graph_from_circuit(c, include_isolated=False)
        assert "w" not in g

    @given(random_graphs())
    @settings(max_examples=60)
    def test_edges_match_first_sighting_of_each_pair(self, g):
        assert list(g.edges()) == list(frozenset_edges(g))

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 9), st.integers(0, 9), st.floats(0.5, 5.0)
            ),
            max_size=40,
        )
    )
    @settings(max_examples=60)
    def test_edges_of_graphs_grown_by_edges_alone(self, edges):
        g = InteractionGraph()
        for u, v, w in edges:
            if u != v:
                g.add_edge(u, v, w)
        assert list(g.edges()) == list(frozenset_edges(g))


def frozenset_edges(graph):
    """The former ``InteractionGraph.edges``: each pair where first seen."""
    seen = set()
    for u in graph.nodes:
        for v, w in graph.neighbors(u).items():
            key = frozenset((u, v))
            if key not in seen:
                seen.add(key)
                yield u, v, w


class TestCoarsening:
    def test_halves_node_count(self):
        g = two_cliques(4)
        level = coarsen_once(g)
        assert level.graph.num_nodes == 4  # 8 nodes, perfect matching

    def test_projection_covers_all_nodes(self):
        g = two_cliques(4)
        level = coarsen_once(g)
        fine = [n for group in level.projection.values() for n in group]
        assert sorted(fine) == sorted(g.nodes)

    def test_node_weights_conserved(self):
        g = two_cliques(3)
        level = coarsen_once(g)
        total = sum(level.graph.node_weight(n) for n in level.graph.nodes)
        assert total == pytest.approx(g.num_nodes)

    def test_heavy_edges_contract_first(self):
        g = InteractionGraph()
        g.add_edge("a", "b", 10.0)  # heavy: should contract
        g.add_edge("b", "c", 1.0)
        g.add_edge("c", "d", 10.0)  # heavy: should contract
        level = coarsen_once(g)
        groups = {frozenset(group) for group in level.projection.values()}
        assert frozenset(("a", "b")) in groups
        assert frozenset(("c", "d")) in groups

    def test_coarsen_to_size(self):
        g = two_cliques(8)  # 16 nodes
        hierarchy = coarsen_to_size(g, 4)
        assert hierarchy
        assert hierarchy[-1].graph.num_nodes <= 4

    def test_coarsen_to_size_noop_when_small(self):
        assert coarsen_to_size(two_cliques(2), 32) == []

    def test_expand_round_trip(self):
        g = two_cliques(4)
        level = coarsen_once(g)
        coarse_assignment = {n: i % 2 for i, n in enumerate(level.graph.nodes)}
        fine = level.expand(coarse_assignment)
        assert sorted(fine) == sorted(g.nodes)

    @given(random_graphs())
    @settings(max_examples=40)
    def test_coarsening_preserves_total_node_weight(self, g):
        if g.num_nodes < 2:
            return
        level = coarsen_once(g)
        total = sum(level.graph.node_weight(n) for n in level.graph.nodes)
        assert total == pytest.approx(
            sum(g.node_weight(n) for n in g.nodes)
        )


class TestKlRefine:
    def test_improves_bad_split(self):
        g = two_cliques(4)
        # Worst-case split: half of each clique on each side.
        bad = {}
        for prefix in "ab":
            for i in range(4):
                bad[f"{prefix}{i}"] = i % 2
        refined = kl_refine(g, bad)
        assert g.cut_weight(refined) <= g.cut_weight(bad)
        assert g.cut_weight(refined) == pytest.approx(0.5)

    def test_never_worsens(self):
        g = two_cliques(3)
        ideal = {f"a{i}": 0 for i in range(3)} | {f"b{i}": 1 for i in range(3)}
        refined = kl_refine(g, ideal)
        assert g.cut_weight(refined) == pytest.approx(0.5)

    def test_rejects_non_binary_parts(self):
        g = two_cliques(2)
        bad = {n: i for i, n in enumerate(g.nodes)}
        with pytest.raises(ValueError, match="parts"):
            kl_refine(g, bad)

    @given(random_graphs())
    @settings(max_examples=40)
    def test_refinement_never_increases_cut(self, g):
        seed = balanced_seed_bisection(g)
        refined = kl_refine(g, seed)
        assert g.cut_weight(refined) <= g.cut_weight(seed) + 1e-9


class TestBisect:
    def test_finds_natural_cut(self):
        g = two_cliques(6)
        assignment = bisect(g)
        assert g.cut_weight(assignment) == pytest.approx(0.5)

    def test_balanced_on_cliques(self):
        g = two_cliques(6)
        assignment = bisect(g)
        sizes = g.part_weights(assignment)
        assert sizes[0] == sizes[1]

    def test_trivial_graphs(self):
        assert bisect(InteractionGraph()) == {}
        g = InteractionGraph()
        g.add_node("only")
        assert bisect(g) == {"only": 0}

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_always_two_parts_and_total_coverage(self, g):
        assignment = bisect(g)
        assert sorted(assignment) == sorted(g.nodes)
        assert set(assignment.values()) <= {0, 1}

    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_rough_balance(self, g):
        if g.num_nodes < 4:
            return
        assignment = bisect(g)
        weights = g.part_weights(assignment)
        left = weights.get(0, 0.0)
        right = weights.get(1, 0.0)
        assert min(left, right) >= g.num_nodes * 0.2


class TestRecursivePartition:
    def test_four_parts(self):
        g = two_cliques(8)
        assignment = recursive_partition(g, 4)
        assert set(assignment.values()) <= {0, 1, 2, 3}

    def test_part_count_validation(self):
        g = two_cliques(2)
        with pytest.raises(ValueError, match="power of two"):
            recursive_partition(g, 3)
        with pytest.raises(ValueError):
            recursive_partition(g, 0)

    def test_single_part(self):
        g = two_cliques(2)
        assignment = recursive_partition(g, 1)
        assert set(assignment.values()) == {0}

    def test_isolated_nodes_split_evenly(self):
        g = InteractionGraph()
        for i in range(8):
            g.add_node(f"iso{i}")
        assignment = recursive_partition(g, 4)
        from collections import Counter

        counts = Counter(assignment.values())
        assert all(count == 2 for count in counts.values())
