"""Teleportation cost model for planar-code communication.

Section 4.1: teleportation is a two-step protocol.  Step 1 -- EPR
distribution -- physically moves entangled pair halves to the endpoints
through swap channels; it is slow (per-hop swap chains) but independent
of program data, hence prefetchable.  Step 2 -- the teleport itself --
is a small constant-latency local interaction (entangle, measure,
Pauli-correct), independent of distance.

Swap-chain parameters follow Oskin et al. [56]: crossing one tile of a
distance-d planar layout takes ~d swap steps (the tile is ~2d-1 sites
wide and a swap chain moves the qubit two sites per 2 cycles, with
error-correction interleaved).
"""

from __future__ import annotations

import dataclasses

from .mesh import Router, manhattan

__all__ = ["TeleportModel", "DEFAULT_TELEPORT_MODEL"]


@dataclasses.dataclass(frozen=True)
class TeleportModel:
    """Latency/footprint model for teleportation-based communication.

    Attributes:
        teleport_cycles: Constant latency of the teleport step (Bell
            measurement + correction), distance-independent.
        swap_cycles_per_tile: Cycles for an EPR half to swap across one
            tile-width of the mesh at distance d is
            ``swap_cycles_per_tile * d``.
        epr_qubits_per_pair: Physical qubits an in-flight EPR pair
            occupies (two encoded halves).
    """

    teleport_cycles: float = 2.0
    swap_cycles_per_tile: float = 1.0
    epr_qubits_per_pair: int = 2

    def __post_init__(self) -> None:
        if self.teleport_cycles <= 0 or self.swap_cycles_per_tile <= 0:
            raise ValueError("teleport model latencies must be positive")
        if self.epr_qubits_per_pair < 1:
            raise ValueError("epr_qubits_per_pair must be >= 1")

    def swap_chain_cycles(self, hops: int, distance: int) -> float:
        """Cycles for an EPR half to swap ``hops`` tiles at distance d
        (at least one cycle, even for a pair made at its endpoint)."""
        if distance < 1:
            raise ValueError(f"distance must be >= 1, got {distance}")
        return max(1.0, hops * self.swap_cycles_per_tile * distance)

    def distribution_cycles(
        self, source: Router, a: Router, b: Router, distance: int
    ) -> float:
        """Cycles to distribute an EPR pair from ``source`` to both
        endpoints (halves travel concurrently; the slower one binds)."""
        return self.swap_chain_cycles(
            max(manhattan(source, a), manhattan(source, b)), distance
        )

    def communication_cycles(
        self,
        source: Router,
        a: Router,
        b: Router,
        distance: int,
        prefetched: bool,
    ) -> float:
        """End-to-end latency seen by the consuming operation.

        A prefetched pair costs only the constant teleport step; an
        unprefetched one serializes distribution before use.
        """
        if prefetched:
            return self.teleport_cycles
        return (
            self.distribution_cycles(source, a, b, distance)
            + self.teleport_cycles
        )


DEFAULT_TELEPORT_MODEL = TeleportModel()
