"""Communication substrate: braid mesh simulation and EPR pipelining."""

from ._braidsim_reference import (
    ReferenceBraidSimulator,
    simulate_braids_reference,
)
from .braidsim import (
    ENGINES,
    BraidSimConfig,
    BraidSimResult,
    BraidSimulator,
    simulate_braids,
    simulate_plan,
)
from .epr import (
    EprDemand,
    EprPipelineConfig,
    EprPipelineResult,
    demands_from_schedule,
    simulate_epr_pipeline,
)
from .events import BraidSegment, OpTask, build_tasks
from .mesh import BraidMesh, manhattan, path_links
from .plan import BraidPlan, braid_plan, plan_memo_stats, reset_plan_memo
from .policies import ALL_POLICIES, POLICIES, Policy
from .policies_sched import (
    ReservationSchedule,
    ReservationTable,
    build_reservation,
    ii_lower_bound,
    reservation_schedule,
)
from .routing import (
    ROUTE_TABLE_CAPACITY,
    RouteTable,
    alternative_paths,
    dor_path,
    find_free_path,
    route_table,
    route_table_stats,
    set_route_table_capacity,
)
from .teleport import DEFAULT_TELEPORT_MODEL, TeleportModel

__all__ = [
    "BraidMesh",
    "path_links",
    "manhattan",
    "dor_path",
    "alternative_paths",
    "find_free_path",
    "BraidSegment",
    "OpTask",
    "build_tasks",
    "Policy",
    "POLICIES",
    "ALL_POLICIES",
    "ReservationSchedule",
    "ReservationTable",
    "build_reservation",
    "ii_lower_bound",
    "reservation_schedule",
    "BraidSimConfig",
    "BraidSimResult",
    "BraidSimulator",
    "ENGINES",
    "BraidPlan",
    "braid_plan",
    "plan_memo_stats",
    "reset_plan_memo",
    "simulate_braids",
    "simulate_plan",
    "ReferenceBraidSimulator",
    "simulate_braids_reference",
    "RouteTable",
    "ROUTE_TABLE_CAPACITY",
    "route_table",
    "route_table_stats",
    "set_route_table_capacity",
    "TeleportModel",
    "DEFAULT_TELEPORT_MODEL",
    "EprDemand",
    "EprPipelineConfig",
    "EprPipelineResult",
    "demands_from_schedule",
    "simulate_epr_pipeline",
]
