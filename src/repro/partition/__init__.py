"""Multilevel graph partitioning and interaction-aware layout.

From-scratch substitute for METIS [42]: heavy-edge matching coarsening,
Kernighan--Lin refinement, recursive bisection, and the 2D placement
driver of Section 6.2.
"""

from .coarsen import CoarseLevel, coarsen_once, coarsen_to_size
from .graph import InteractionGraph, interaction_graph_from_circuit
from .kl import balanced_seed_bisection, kl_refine
from .layout import (
    GridShape,
    Placement,
    circuit_layout,
    grid_for,
    naive_layout,
    optimized_layout,
    weighted_manhattan_cost,
)
from .multilevel import bisect, recursive_partition

__all__ = [
    "InteractionGraph",
    "interaction_graph_from_circuit",
    "CoarseLevel",
    "coarsen_once",
    "coarsen_to_size",
    "kl_refine",
    "balanced_seed_bisection",
    "bisect",
    "recursive_partition",
    "GridShape",
    "Placement",
    "grid_for",
    "circuit_layout",
    "naive_layout",
    "optimized_layout",
    "weighted_manhattan_cost",
]
