"""Compilation frontend: decomposition, flattening, scheduling, estimation.

This subpackage stands in for ScaffCC [40] in the paper's toolflow
(Figure 4, "Compilation Frontend"): it lowers hierarchical quantum
programs to flat Clifford+T QASM and produces the logical-level resource
and parallelism estimates that guide the backend.
"""

from .decompose import DecomposeConfig, decompose_circuit, rz_t_count
from .estimate import (
    LogicalEstimate,
    estimate_circuit,
    estimate_program,
    target_logical_error_rate,
)
from .flatten import flatten
from .program import Call, Module, Program
from .schedule import (
    LogicalSchedule,
    alap_schedule,
    asap_schedule,
    list_schedule,
)

__all__ = [
    "DecomposeConfig",
    "decompose_circuit",
    "rz_t_count",
    "Call",
    "Module",
    "Program",
    "flatten",
    "LogicalSchedule",
    "asap_schedule",
    "alap_schedule",
    "list_schedule",
    "LogicalEstimate",
    "estimate_circuit",
    "estimate_program",
    "target_logical_error_rate",
]
