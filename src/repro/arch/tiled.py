"""Tiled architecture for double-defect QEC (Section 4.5, Figure 3b).

"The tiled architecture assigns one tile per qubit, and opens channels
between them to allow for communication braids. ... we reserve some
tiles for continuous generation of magic states, to be braided to
various points of use."

The machine builder surrounds the data region with a ring of tiles and
distributes magic-state factories around it, sized by the paper's
ancilla-to-data balance.  :meth:`TiledMachine.plan` compiles the
machine's braid simulation plan, which
:func:`~repro.network.braidsim.simulate_plan` runs under each policy.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..partition.layout import GridShape, Placement
from ..qasm.circuit import Circuit
from ..qasm.dag import CircuitDag
from ..qec.codes import DOUBLE_DEFECT, SurfaceCode
from ..network.mesh import BraidMesh, Router
from ..network.plan import BraidPlan

__all__ = ["TiledMachine", "build_tiled_machine"]

DATA_TILES_PER_FACTORY = 8
"""One magic-state factory serves ~8 data tiles (the 1:4 ancilla-to-data
tile balance of Section 4.3, given a 12-tile factory amortized over its
service region and shared EPR-free operation)."""


@dataclasses.dataclass(frozen=True)
class TiledMachine:
    """A sized tiled machine bound to one circuit.

    Attributes:
        circuit: The (flat, Clifford+T) program.
        grid: Full tile grid (data interior + factory/channel ring).
        placement: Data-qubit placement (interior tiles).
        factory_routers: Braid endpoints of the factory tiles.
        code: The double-defect code model.
    """

    circuit: Circuit
    grid: GridShape
    placement: Placement
    factory_routers: tuple[Router, ...]
    code: SurfaceCode

    @property
    def data_tiles(self) -> int:
        return len(self.placement.positions)

    def physical_qubits(self, distance: int) -> int:
        """Physical qubit footprint: every tile is a lattice region, and
        factories are 12-tile blocks counted via their tile sites."""
        factory_tiles = len(self.factory_routers) * 12
        return (self.data_tiles + factory_tiles) * self.code.tile_qubits(
            distance
        )

    def plan(
        self, distance: int, dag: Optional[CircuitDag] = None
    ) -> BraidPlan:
        """Compile the policy-independent simulation plan.

        Every call builds a new plan; the ``braid_plan`` toolflow stage
        is what shares one plan among the policies of a design point.
        Simulate it with :func:`~repro.network.braidsim.simulate_plan`.
        """
        mesh = BraidMesh(self.grid.rows, self.grid.cols)
        return BraidPlan.build(
            self.circuit,
            self.placement,
            mesh,
            self.code,
            distance,
            self.factory_routers,
            dag=dag,
        )


def _ring_sites(grid: GridShape) -> list[tuple[int, int]]:
    """Perimeter tile sites of a grid, clockwise from (0, 0)."""
    rows, cols = grid.rows, grid.cols
    sites = [(0, c) for c in range(cols)]
    sites += [(r, cols - 1) for r in range(1, rows)]
    if rows > 1:
        sites += [(rows - 1, c) for c in range(cols - 2, -1, -1)]
    if cols > 1:
        sites += [(r, 0) for r in range(rows - 2, 0, -1)]
    return sites


def build_tiled_machine(
    circuit: Circuit,
    placement: Placement,
    code: SurfaceCode = DOUBLE_DEFECT,
    factories: Optional[int] = None,
) -> TiledMachine:
    """Build a tiled machine around a data placement.

    The placement's grid is the data region; a one-tile ring around it
    carries braid channels and hosts ``factories`` magic-state factory
    access points, spread evenly (Figure 3b's distributed factories).

    Args:
        circuit: Flat Clifford+T circuit.
        placement: Data-qubit placement on the data grid (see
            :func:`~repro.partition.layout.circuit_layout`).
        code: Surface code model (double-defect by default).
        factories: Factory count; default scales with data tiles.
    """
    interior = placement.grid
    grid = GridShape(interior.rows + 2, interior.cols + 2)
    positions = {
        q: (r + 1, c + 1) for q, (r, c) in placement.positions.items()
    }

    if factories is None:
        factories = max(
            2, round(max(circuit.num_qubits, 1) / DATA_TILES_PER_FACTORY)
        )
    ring = _ring_sites(grid)
    stride = max(1, len(ring) // factories)
    factory_tiles = [ring[(i * stride) % len(ring)] for i in range(factories)]
    mesh = BraidMesh(grid.rows, grid.cols)
    factory_routers = tuple(
        dict.fromkeys(mesh.tile_router(t) for t in factory_tiles)
    )
    return TiledMachine(
        circuit=circuit,
        grid=grid,
        placement=Placement(grid=grid, positions=positions),
        factory_routers=factory_routers,
        code=code,
    )
