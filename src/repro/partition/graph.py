"""Weighted undirected interaction graphs for layout optimization.

Section 6.2: "the optimized arrangement of qubit tiles attempts to
minimize the sum of Manhattan distances between pairs of tiles involved
in non-local, braiding operations ... through iterative calls to a graph
partitioning library, METIS, to separate the qubits (each represented as
a vertex on a graph of qubit interactions)".

This module provides the graph structure; :mod:`repro.partition.multilevel`
provides the METIS-style partitioner.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Hashable, Iterator, Mapping

from ..qasm.circuit import Circuit

__all__ = ["InteractionGraph", "interaction_graph_from_circuit"]

Node = Hashable


class InteractionGraph:
    """Undirected graph with integer-weighted edges and weighted nodes."""

    def __init__(self) -> None:
        self._adjacency: dict[Node, dict[Node, float]] = {}
        self._node_weights: dict[Node, float] = {}

    # -- construction ------------------------------------------------------

    def add_node(self, node: Node, weight: float = 1.0) -> None:
        if weight <= 0:
            raise ValueError(f"node weight must be positive, got {weight}")
        if node not in self._adjacency:
            self._adjacency[node] = {}
            self._node_weights[node] = weight
        else:
            self._node_weights[node] = weight

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Add (or accumulate onto) the edge u—v."""
        if u == v:
            raise ValueError(f"self-loop on {u!r} not allowed")
        if weight <= 0:
            raise ValueError(f"edge weight must be positive, got {weight}")
        for node in (u, v):
            if node not in self._adjacency:
                self.add_node(node)
        self._adjacency[u][v] = self._adjacency[u].get(v, 0.0) + weight
        self._adjacency[v][u] = self._adjacency[v].get(u, 0.0) + weight

    # -- accessors ----------------------------------------------------------

    @property
    def nodes(self) -> list[Node]:
        return list(self._adjacency)

    @property
    def num_nodes(self) -> int:
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adjacency.values()) // 2

    def node_weight(self, node: Node) -> float:
        return self._node_weights[node]

    def neighbors(self, node: Node) -> dict[Node, float]:
        """Neighbor -> edge weight (a copy)."""
        return dict(self._adjacency[node])

    def edge_weight(self, u: Node, v: Node) -> float:
        return self._adjacency.get(u, {}).get(v, 0.0)

    def edges(self) -> Iterator[tuple[Node, Node, float]]:
        """Each edge once, as ``(u, v, weight)`` with ``u`` added first."""
        order = {node: i for i, node in enumerate(self._adjacency)}
        for u, nbrs in self._adjacency.items():
            rank = order[u]
            for v, w in nbrs.items():
                if order[v] > rank:
                    yield u, v, w

    def total_edge_weight(self) -> float:
        return sum(w for _, _, w in self.edges())

    def degree(self, node: Node) -> float:
        """Weighted degree."""
        return sum(self._adjacency[node].values())

    def __contains__(self, node: Node) -> bool:
        return node in self._adjacency

    # -- partition metrics --------------------------------------------------

    def cut_weight(self, assignment: Mapping[Node, int]) -> float:
        """Total weight of edges crossing between parts."""
        return sum(
            w
            for u, v, w in self.edges()
            if assignment[u] != assignment[v]
        )

    def part_weights(self, assignment: Mapping[Node, int]) -> dict[int, float]:
        weights: dict[int, float] = defaultdict(float)
        for node, part in assignment.items():
            weights[part] += self._node_weights[node]
        return dict(weights)

    def __repr__(self) -> str:
        return (
            f"InteractionGraph(nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )


def interaction_graph_from_circuit(
    circuit: Circuit, include_isolated: bool = True
) -> InteractionGraph:
    """Build the qubit interaction graph of a circuit.

    Edge weights count multi-qubit operations touching each qubit pair
    (the quantity whose Manhattan-distance-weighted sum the layout
    optimizer minimizes).
    """
    graph = InteractionGraph()
    if include_isolated:
        for qubit in circuit.qubits:
            graph.add_node(qubit)
    for pair, count in circuit.interaction_pairs().items():
        graph.add_edge(pair[0], pair[1], float(count))
    return graph
