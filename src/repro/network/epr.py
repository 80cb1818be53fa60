"""Pipelined just-in-time EPR distribution (Section 8.1).

"Walking the dependency graph, we use look-ahead windows to anticipate
usage points, and launch their communication with appropriate lead
time."  The goal is smooth, low-contention distribution: launch too
early and EPR qubits pile up in the network; launch too late and
teleports stall.

The simulator walks a logical schedule cycle by cycle.  Each operation
that needs a teleport requires one EPR pair, distributed from its
nearest factory over a channel pool of fixed bandwidth (the swap-channel
mesh's aggregate capacity).  A pair occupies qubits from launch until
consumption.  Outputs are the paper's two axes: peak EPR qubit
occupancy (space) and stall cycles (time), as a function of the
look-ahead window.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import operator
from typing import Optional, Sequence

from ..frontend.schedule import LogicalSchedule
from ..partition.layout import Placement
from .mesh import Router
from .teleport import DEFAULT_TELEPORT_MODEL, TeleportModel

__all__ = ["EprDemand", "EprPipelineConfig", "EprPipelineResult",
           "demands_from_schedule", "run_epr_pipeline",
           "simulate_epr_pipeline"]


@dataclasses.dataclass(frozen=True)
class EprDemand:
    """One teleport's EPR requirement.

    Attributes:
        op_index: Consuming operation.
        use_cycle: Logical schedule cycle at which the pair is consumed.
        endpoint_a / endpoint_b: Communication endpoints (tile routers).
    """

    op_index: int
    use_cycle: int
    endpoint_a: Router
    endpoint_b: Router


@dataclasses.dataclass(frozen=True)
class EprPipelineConfig:
    """Pipeline knobs.

    Attributes:
        window: Look-ahead in logical cycles; distributions for a use at
            cycle s launch no earlier than cycle ``s - window``.
        bandwidth: Concurrent distributions the swap-channel mesh
            sustains.
        distance: Code distance (scales swap-chain latency).
        model: Teleportation cost model.
    """

    window: int = 32
    bandwidth: int = 8
    distance: int = 9
    model: TeleportModel = DEFAULT_TELEPORT_MODEL

    def __post_init__(self) -> None:
        if self.window < 0:
            raise ValueError(f"window must be >= 0, got {self.window}")
        if self.bandwidth < 1:
            raise ValueError(f"bandwidth must be >= 1, got {self.bandwidth}")
        if self.distance < 1:
            raise ValueError(f"distance must be >= 1, got {self.distance}")


@dataclasses.dataclass(frozen=True)
class EprPipelineResult:
    """Outcome of one pipelined-distribution simulation.

    Attributes:
        schedule_length: Logical schedule length including stalls.
        ideal_length: Schedule length with infinitely fast distribution.
        stall_cycles: Total added cycles waiting for late pairs.
        peak_epr_pairs: Maximum pairs in flight simultaneously (the
            EPR qubit cost is ``peak * model.epr_qubits_per_pair``).
        total_pairs: Pairs distributed over the whole run.
        mean_lifetime: Average cycles from launch to consumption.
    """

    schedule_length: float
    ideal_length: int
    stall_cycles: float
    peak_epr_pairs: int
    total_pairs: int
    mean_lifetime: float

    @property
    def latency_overhead(self) -> float:
        """Fractional schedule stretch vs the ideal (Section 8.1 quotes
        <= ~4% for good windows)."""
        if self.ideal_length == 0:
            return 0.0
        return (self.schedule_length - self.ideal_length) / self.ideal_length

    @property
    def peak_epr_qubits(self) -> int:
        return self.peak_epr_pairs * 2


def demands_from_schedule(
    schedule: LogicalSchedule,
    placement: Placement,
    factory: Router = (0, 0),
) -> list[EprDemand]:
    """Extract teleport demands from a logical schedule.

    Every 2-qubit operation teleports one operand to the other's region;
    every magic-state consumer teleports its magic state in.  Both need
    one EPR pair (Section 4.4: "only EPRs use the communication mesh").
    """
    demands: list[EprDemand] = []
    for cycle, ops in enumerate(schedule.cycles):
        for op_index in ops:
            op = schedule.circuit[op_index]
            if op.arity == 2:
                a = placement.position(op.qubits[0])
                b = placement.position(op.qubits[1])
            elif op.consumes_magic_state:
                a = placement.position(op.qubits[0])
                b = factory
            else:
                continue
            demands.append(EprDemand(op_index, cycle, a, b))
    return demands


def simulate_epr_pipeline(
    demands: Sequence[EprDemand],
    config: EprPipelineConfig,
    factory: Router = (0, 0),
    ideal_length: Optional[int] = None,
) -> EprPipelineResult:
    """Simulate windowed EPR distribution against a channel pool.

    Distribution requests enter a FIFO as their use-cycle comes within
    the look-ahead window; ``bandwidth`` servers process them; a pair
    occupies qubits from (actual) launch until its consuming cycle
    executes.  Stalls push the whole downstream schedule (SIMD regions
    run in lockstep), which the simulation models by tracking the
    current slip between nominal and actual time.

    Demands run in ``(use_cycle, op_index)`` order; each is its own
    pair, even when two share an ``op_index``.
    """
    if ideal_length is None:
        ideal_length = 1 + max((d.use_cycle for d in demands), default=-1)
    ordered = sorted(demands, key=lambda d: (d.use_cycle, d.op_index))
    distribution = config.model.distribution_cycles
    return run_epr_pipeline(
        [d.use_cycle for d in ordered],
        [
            distribution(factory, d.endpoint_a, d.endpoint_b, config.distance)
            for d in ordered
        ],
        config,
        ideal_length,
    )


def run_epr_pipeline(
    use_cycles: Sequence[int],
    durations: Sequence[float],
    config: EprPipelineConfig,
    ideal_length: int,
) -> EprPipelineResult:
    """The pipeline over positional arrays (see
    :func:`simulate_epr_pipeline`).

    Demand ``i`` is consumed at ``use_cycles[i]`` (nondecreasing) and
    takes ``durations[i]`` cycles (at least 0) to distribute; the
    durations already fold in ``config.model`` and ``config.distance``.
    """
    count = len(use_cycles)
    if not count:
        return EprPipelineResult(
            schedule_length=float(ideal_length),
            ideal_length=ideal_length,
            stall_cycles=0.0,
            peak_epr_pairs=0,
            total_pairs=0,
            mean_lifetime=0.0,
        )

    window = config.window
    # Channel pool: next-free times of `bandwidth` servers (a list of
    # equal values is already a heap).
    servers = [0.0] * config.bandwidth
    replace = heapq.heapreplace
    slip = 0.0  # accumulated stall so far
    launch_times: list[float] = []
    ready_times: list[float] = []
    consume_times: list[float] = []
    cursor = 0  # next demand to launch

    for index, use_nominal in enumerate(use_cycles):
        # Launch everything whose window has opened by this demand's
        # nominal use time (launches happen eagerly as the window slides).
        while cursor < count:
            candidate = use_cycles[cursor]
            if candidate - window > use_nominal:
                break
            # `earliest` may be negative; no server is free before
            # cycle 0, so the launch still starts at or after 0.
            earliest = candidate - window + slip
            server_free = servers[0]
            start = server_free if server_free > earliest else earliest
            finish = start + durations[cursor]
            replace(servers, finish)
            launch_times.append(start)
            ready_times.append(finish)
            cursor += 1
        actual_use = use_nominal + slip
        ready = ready_times[index]
        if ready > actual_use:
            slip += ready - actual_use
            actual_use = ready
        consume_times.append(actual_use)

    # Peak overlap of the [launch, consume) intervals (no pair is
    # consumed before it is launched): an end at time t comes before a
    # start at t.
    ends = sorted(consume_times)
    ends.append(math.inf)
    peak = closed = 0
    for opened, start in enumerate(sorted(launch_times), 1):
        while ends[closed] <= start:
            closed += 1
        if opened - closed > peak:
            peak = opened - closed
    lifetimes = sum(map(operator.sub, consume_times, launch_times))
    return EprPipelineResult(
        schedule_length=ideal_length + slip,
        ideal_length=ideal_length,
        stall_cycles=slip,
        peak_epr_pairs=peak,
        total_pairs=count,
        mean_lifetime=lifetimes / count,
    )
