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
from .plan import BraidPlan, plan_memo_stats
from .policies import ALL_POLICIES, POLICIES, Policy
from .policies_sched import (
    ReservationSchedule,
    ReservationTable,
    build_reservation,
    ii_lower_bound,
)
from .routing import (
    RouteTable,
    alternative_paths,
    dor_path,
    find_free_path,
    route_table,
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
    "BraidSimConfig",
    "BraidSimResult",
    "BraidSimulator",
    "ENGINES",
    "BraidPlan",
    "plan_memo_stats",
    "simulate_braids",
    "simulate_plan",
    "ReferenceBraidSimulator",
    "simulate_braids_reference",
    "RouteTable",
    "route_table",
    "TeleportModel",
    "DEFAULT_TELEPORT_MODEL",
    "EprDemand",
    "EprPipelineConfig",
    "EprPipelineResult",
    "demands_from_schedule",
    "simulate_epr_pipeline",
]
