"""Interaction-aware 2D qubit placement (Section 6.2).

``optimized_layout`` recursively bisects the interaction graph and the
grid region together: each graph bisection is assigned to one half of
the current rectangle (split along its longer axis), so strongly
interacting qubits land in the same sub-rectangle at every scale.
Relative to the naive program-order layout this "reduces the lengths of
braids, hence reducing the chance of braid collisions."
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, Sequence

from ..qasm.circuit import Circuit
from .graph import InteractionGraph, interaction_graph_from_circuit
from .multilevel import _induced_subgraph, bisect

__all__ = ["GridShape", "Placement", "naive_layout", "optimized_layout",
           "circuit_layout", "weighted_manhattan_cost", "grid_for"]

Node = Hashable


@dataclasses.dataclass(frozen=True)
class GridShape:
    """A rows x cols grid of tile sites."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid must be at least 1x1, got {self}")

    @property
    def capacity(self) -> int:
        return self.rows * self.cols

    def sites(self) -> list[tuple[int, int]]:
        return [(r, c) for r in range(self.rows) for c in range(self.cols)]


def grid_for(count: int, aspect: float = 1.0) -> GridShape:
    """Smallest near-``aspect`` grid with at least ``count`` sites."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rows = max(1, round((count / aspect) ** 0.5))
    cols = -(-count // rows)
    while rows * cols < count:
        cols += 1
    return GridShape(rows=rows, cols=cols)


@dataclasses.dataclass(frozen=True)
class Placement:
    """Assignment of logical qubits to grid sites.

    Attributes:
        grid: The grid shape.
        positions: Qubit -> (row, col).
    """

    grid: GridShape
    positions: dict[Node, tuple[int, int]]

    def __post_init__(self) -> None:
        seen: set[tuple[int, int]] = set()
        for node, site in self.positions.items():
            row, col = site
            if not (0 <= row < self.grid.rows and 0 <= col < self.grid.cols):
                raise ValueError(f"{node!r} placed off-grid at {site}")
            if site in seen:
                raise ValueError(f"site {site} assigned twice")
            seen.add(site)

    def position(self, node: Node) -> tuple[int, int]:
        return self.positions[node]

    def distance(self, u: Node, v: Node) -> int:
        (r1, c1), (r2, c2) = self.positions[u], self.positions[v]
        return abs(r1 - r2) + abs(c1 - c2)

    def free_sites(self) -> list[tuple[int, int]]:
        used = set(self.positions.values())
        return [s for s in self.grid.sites() if s not in used]


def weighted_manhattan_cost(
    graph: InteractionGraph, placement: Placement
) -> float:
    """Sum over interacting pairs of weight x Manhattan distance --
    the objective of Section 6.2."""
    return sum(
        w * placement.distance(u, v) for u, v, w in graph.edges()
    )


def naive_layout(
    qubits: Sequence[Node], grid: GridShape | None = None
) -> Placement:
    """Row-major program-order placement (the paper's naive baseline)."""
    grid = grid or grid_for(len(qubits))
    if len(qubits) > grid.capacity:
        raise ValueError(
            f"{len(qubits)} qubits exceed grid capacity {grid.capacity}"
        )
    sites = grid.sites()
    return Placement(
        grid=grid,
        positions={q: sites[i] for i, q in enumerate(qubits)},
    )


def optimized_layout(
    graph: InteractionGraph, grid: GridShape | None = None
) -> Placement:
    """Interaction-aware placement by joint graph/region bisection."""
    qubits = graph.nodes
    grid = grid or grid_for(len(qubits))
    if len(qubits) > grid.capacity:
        raise ValueError(
            f"{len(qubits)} qubits exceed grid capacity {grid.capacity}"
        )
    positions: dict[Node, tuple[int, int]] = {}
    _place(graph, qubits, (0, 0, grid.rows, grid.cols), positions)
    return Placement(grid=grid, positions=positions)


def circuit_layout(circuit: Circuit, optimize: bool = True) -> Placement:
    """Place a circuit's qubits on the smallest near-square data grid,
    the one placement both machines of the Figure 4 toolflow map.

    Args:
        circuit: Flat Clifford+T circuit.
        optimize: The Section 6.2 interaction-aware layout; otherwise
            the naive program-order placement.
    """
    grid = grid_for(max(circuit.num_qubits, 1))
    if optimize:
        return optimized_layout(interaction_graph_from_circuit(circuit), grid)
    return naive_layout(circuit.qubits, grid)


def _place(
    graph: InteractionGraph,
    nodes: Sequence[Node],
    region: tuple[int, int, int, int],
    positions: dict[Node, tuple[int, int]],
) -> None:
    """Recursively assign ``nodes`` inside region (r0, c0, rows, cols)."""
    r0, c0, rows, cols = region
    if not nodes:
        return
    if len(nodes) == 1:
        positions[nodes[0]] = (r0, c0)
        return
    if rows == 1 and cols == 1:
        raise ValueError("region capacity exhausted during placement")

    # Split the region along its longer axis.
    if cols >= rows:
        left_cols = cols // 2
        region_a = (r0, c0, rows, left_cols)
        region_b = (r0, c0 + left_cols, rows, cols - left_cols)
        cap_a = rows * left_cols
    else:
        top_rows = rows // 2
        region_a = (r0, c0, top_rows, cols)
        region_b = (r0 + top_rows, c0, rows - top_rows, cols)
        cap_a = top_rows * cols

    sub = _induced_subgraph(graph, nodes)
    halves = bisect(sub)
    part_a = [n for n in nodes if halves[n] == 0]
    part_b = [n for n in nodes if halves[n] == 1]
    # Respect region capacities: move overflow between parts by weakest
    # connection to their current part.
    part_a, part_b = _rebalance(sub, part_a, part_b, cap_a,
                                len(nodes) - cap_a if len(nodes) > cap_a else None)
    cap_b = (rows * cols) - cap_a
    if len(part_b) > cap_b:
        part_b, part_a = _rebalance(sub, part_b, part_a, cap_b, None)

    _place(graph, part_a, region_a, positions)
    _place(graph, part_b, region_b, positions)


def _rebalance(
    graph: InteractionGraph,
    primary: list[Node],
    secondary: list[Node],
    primary_capacity: int,
    secondary_minimum: int | None,
) -> tuple[list[Node], list[Node]]:
    """Move overflow nodes from primary to secondary, weakest-tie first."""
    primary = list(primary)
    secondary = list(secondary)
    need_move = len(primary) - primary_capacity
    if secondary_minimum is not None:
        need_move = max(need_move, secondary_minimum - len(secondary))
    if need_move <= 0:
        return primary, secondary
    primary_set = set(primary)

    def tie_strength(node: Node) -> float:
        return sum(
            w
            for nbr, w in graph.neighbors(node).items()
            if nbr in primary_set
        )

    movers = sorted(primary, key=lambda n: (tie_strength(n), str(n)))[:need_move]
    mover_set = set(movers)
    primary = [n for n in primary if n not in mover_set]
    secondary.extend(movers)
    return primary, secondary
