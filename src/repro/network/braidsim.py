"""Cycle-accurate braid schedule simulator (Sections 6.1 and 6.3).

The simulator maintains "a ready queue of operations whose dependencies
have been met, and execute[s] as many of them as possible in each
cycle."  Braids claim circuit-switched routes atomically (no crossing,
no buffering), stabilize for d cycles, then close.  Forward progress in
a busy network uses route adaptivity on a dimension-ordered route and a
drop/re-inject mechanism, both after timeouts.

The implementation is event-driven -- time jumps between braid
expiries, local-op completions, and retry wakeups -- so large circuits
simulate in O(events), not O(cycles).  It still reproduces per-cycle
semantics: opens and closes issued at the same timestamp are ordered by
the active policy, and an open attempted before a same-cycle close sees
the link as busy (which is exactly what close-first prioritization
exploits).

The inner loop runs on flat data structures, and everything that does
not depend on the scheduling policy — tasks, dominant routes and link
masks, DAG arrays, the critical path — is precompiled into an immutable
:class:`~repro.network.plan.BraidPlan`, built once per design point and
shared by all seven policy simulations (see :mod:`repro.network.plan`):

* heap entries are single ints (``time << 34 | seq``) with a side list
  mapping ``seq`` to the event's kind and operation;
* link occupancy is the mesh's bitmask core, so a route is free iff
  ``route_mask & occupied == 0`` and claims/releases are big-int OR/AND;
* routes come precomputed from a shared :class:`~.routing.RouteTable`;
* per-op criticality and route-length keys are fetched into arrays once
  instead of rebuilding closures inside the issue fixpoint;
* a blocked open records the mesh *epoch* (release counter) at which its
  route search failed and skips the search entirely until a link is
  released or adaptivity widens its candidate set;
* each issue round sorts its candidate opens only when more than one is
  ready (ready sets hold 0--3 ops in most rounds), and interleaved
  policies merge the sorted closes and opens with two pointers.

The scheduler families (policies 7 and 8) ride the same event loop:
the reservation family (:mod:`.policies_sched`) gates
``_eligible_opens`` on each segment's reserved cycle and wakes ops
exactly there, and the scoreboard family is a close-first policy that
issues the oldest ready op (lowest program index) first.

For every policy but 7, results are bit-identical to the seed event
loop, which is preserved in :mod:`repro.network._braidsim_reference`
and enforced by the golden equivalence tests and the event-trace
differential harness.  Policy 7 has no seed oracle; its simulated
schedule length equals its planner's makespan, and the IR verifier
replays its reservation table.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from typing import Optional

from ..analysis.diagnostics import PlanMismatchError
from ..partition.layout import Placement
from ..qasm.circuit import Circuit
from ..qasm.dag import CircuitDag
from ..qec.codes import DOUBLE_DEFECT, SurfaceCode
from .events import OpTask
from .mesh import BraidMesh, Router
from .plan import DEFAULT_MAX_DETOUR, BraidPlan, braid_plan
from .policies import POLICIES, Policy
from .policies_sched import reservation_schedule

__all__ = [
    "BraidSimConfig",
    "BraidSimResult",
    "BraidSimulator",
    "ENGINES",
    "simulate_braids",
    "simulate_plan",
]

ENGINES = ("flat", "reference")
"""Selectable braid engines.

* ``"flat"`` — this module's optimized flat-structure event loop (the
  default everywhere).
* ``"reference"`` — the preserved seed loop in
  :mod:`._braidsim_reference`, the semantic oracle (it refuses
  Policy 7, which postdates it).

Both produce bit-identical :class:`BraidSimResult`\\ s; the golden
tests and ``python -m repro bench --reference`` enforce it.
"""


@dataclasses.dataclass(frozen=True)
class BraidSimConfig:
    """Simulator knobs.

    Attributes:
        adaptive_timeout: Cycles an open may wait before route adaptivity
            (alternatives beyond the dimension-ordered route) kicks in.
        drop_timeout: Cycles before a blocked open is dropped and
            re-injected at the back of the ready queue.
        max_detour: Staircase detour radius for adaptive routing.
        max_cycles: Hard safety limit on simulated time.
    """

    adaptive_timeout: int = 2
    drop_timeout: int = 12
    max_detour: int = DEFAULT_MAX_DETOUR
    max_cycles: int = 200_000_000

    def __post_init__(self) -> None:
        if self.adaptive_timeout < 0 or self.drop_timeout <= 0:
            raise ValueError("timeouts must be positive")
        if self.drop_timeout <= self.adaptive_timeout:
            raise ValueError("drop_timeout must exceed adaptive_timeout")


@dataclasses.dataclass(frozen=True)
class BraidSimResult:
    """Outcome of one braid simulation.

    Attributes:
        schedule_length: Completion time of the last operation (cycles).
        critical_path: Dependence-limited lower bound with the same
            per-op latencies (cycles).
        mean_utilization: Time-averaged fraction of busy mesh links.
        operations: Total operations executed.
        braids: Braid segments opened (including re-opens after drops).
        adaptive_routes: Opens that needed a non-DOR route.
        drops: Drop/re-inject events.
    """

    schedule_length: int
    critical_path: int
    mean_utilization: float
    operations: int
    braids: int
    adaptive_routes: int
    drops: int

    @property
    def schedule_to_critical_ratio(self) -> float:
        """Figure 6's blue-bar metric."""
        if self.critical_path == 0:
            return 1.0
        return self.schedule_length / self.critical_path


# Phase codes (int-valued for flat array storage).
_WAITING, _READY, _HOLDING, _CLOSING, _DONE = range(5)


# Event kinds, packed into the low bits of the per-seq meta entry.
_EXPIRY, _LOCAL, _WAKE = range(3)

_SEQ_BITS = 34
_SEQ_LIMIT = 1 << _SEQ_BITS
_SEQ_MASK = _SEQ_LIMIT - 1


class BraidSimulator:
    """Single-run braid schedule simulator.

    Use :func:`simulate_braids` for the common path (it memoizes the
    policy-independent :class:`~repro.network.plan.BraidPlan` per
    design point), :func:`simulate_plan` to run several policies from
    one prebuilt plan, and instantiate directly to inspect internals
    or inject custom tasks.
    """

    def __init__(
        self,
        circuit: Optional[Circuit] = None,
        placement: Optional[Placement] = None,
        mesh: Optional[BraidMesh] = None,
        policy: Optional[Policy] = None,
        distance: Optional[int] = None,
        code: SurfaceCode = DOUBLE_DEFECT,
        factory_routers: tuple[Router, ...] = (),
        config: Optional[BraidSimConfig] = None,
        dag: Optional[CircuitDag] = None,
        tasks: Optional[list[OpTask]] = None,
        plan: Optional[BraidPlan] = None,
    ) -> None:
        if policy is None:
            raise TypeError("BraidSimulator requires a policy")
        self.config = config or BraidSimConfig()
        if plan is None:
            if circuit is None or placement is None or mesh is None or (
                distance is None
            ):
                raise TypeError(
                    "BraidSimulator needs either a plan or "
                    "(circuit, placement, mesh, distance)"
                )
            plan = BraidPlan.build(
                circuit,
                placement,
                mesh,
                code,
                distance,
                factory_routers,
                max_detour=self.config.max_detour,
                dag=dag,
                tasks=tasks,
            )
        elif plan.max_detour != self.config.max_detour:
            raise PlanMismatchError(
                f"plan was compiled with max_detour={plan.max_detour}, "
                f"config wants {self.config.max_detour}",
                artifact=f"plan for {plan.circuit.name!r}",
            )
        elif distance is not None and distance != plan.distance:
            raise PlanMismatchError(
                f"plan was compiled for distance={plan.distance}, "
                f"got distance={distance}; build a plan per distance",
                artifact=f"plan for {plan.circuit.name!r}",
            )
        self.plan = plan
        self.circuit = plan.circuit
        self.dag = plan.dag
        self.tasks = plan.tasks
        # The mesh is the only mutable run-time structure shared with
        # callers: reuse a provided one, else make a fresh empty mesh.
        self.mesh = mesh if mesh is not None else BraidMesh(
            plan.rows, plan.cols
        )
        self.policy = policy
        self.num_ops = plan.num_ops
        n = self.num_ops

        self._phase = [_WAITING] * n
        self._segment_index = [0] * n
        self._remaining_preds = list(plan.in_degrees)  # mutable copy
        self._successors = plan.successors  # shared, read-only
        self._wait_start = [0] * n
        self._arrival = [0] * n
        self._arrival_counter = itertools.count()
        self._ready_opens: set[int] = set()
        self._closing: list[int] = []
        # Event heap entries: time << 34 | seq, with the event's kind
        # and op packed into _event_meta[seq].  Ordering is (time, seq),
        # exactly the seed's (time, tiebreak) tuple order.  Meta entries
        # are popped with their events, so memory tracks outstanding
        # events, not every event ever scheduled.
        self._events: list[int] = []
        self._event_meta: dict[int, int] = {}
        self._event_seq = 0
        self._completion_time = 0
        self._busy_integral = 0
        self._last_time = 0
        self._braids = 0
        self._adaptive = 0
        self._drops = 0
        self._p0_head = 0  # policy-0 program-order cursor

        # Flat per-op scheduling keys, shared read-only from the plan.
        # Criticality is only materialized for policies that rank by it
        # (the DAG's lazy descendant counts are shared across plans).
        self._is_braid = plan.is_braid
        self._route_length = plan.route_length
        if policy.use_criticality or policy.combined_length_rule:
            self._criticality = plan.criticality()
        else:
            self._criticality = []

        # Per-op, per-segment route handles: (src, dst, hold, min_len,
        # dor_path, dor_mask), prebound through the shared route table.
        self._routes = plan.routes
        self._segments = plan.segments

        # Blocked-open memo: the mesh epoch at which this op's last
        # route search failed, and whether that search was adaptive.
        self._fail_epoch = [-1] * n
        self._fail_adaptive = [False] * n

        # Reservation family (Policy 7): the plan's reserved issue
        # cycles, memoized per plan and shared with the IR verifier
        # (see repro.network.policies_sched).
        self._resv = (
            reservation_schedule(plan)
            if policy.family == "reservation"
            else None
        )

    # -- public API ---------------------------------------------------------

    def run(self) -> BraidSimResult:
        for op in self.plan.sources:
            self._make_ready(op, time=0)
        self._schedule_event(0, _WAKE, -1)
        events = self._events
        meta = self._event_meta
        max_cycles = self.config.max_cycles
        heappop = heapq.heappop
        while events:
            entry = heappop(events)
            time = entry >> _SEQ_BITS
            if time > max_cycles:
                raise RuntimeError(
                    f"braid simulation exceeded {max_cycles} "
                    "cycles; likely livelock"
                )
            self._integrate_busy(time)
            batch = [meta.pop(entry & _SEQ_MASK)]
            while events and events[0] >> _SEQ_BITS == time:
                batch.append(meta.pop(heappop(events) & _SEQ_MASK))
            self._process_timestep(time, batch)
        phase = self._phase
        unfinished = [
            i for i in range(self.num_ops) if phase[i] != _DONE
        ]
        if unfinished:
            raise RuntimeError(
                f"braid simulation stalled with {len(unfinished)} "
                f"unfinished operations (first: {unfinished[:5]}); this "
                "is a simulator bug"
            )
        critical = self.plan.critical_path
        total_time = max(self._completion_time, 1)
        return BraidSimResult(
            schedule_length=self._completion_time,
            critical_path=critical,
            mean_utilization=(
                self._busy_integral / (total_time * self.mesh.num_links)
            ),
            operations=self.num_ops,
            braids=self._braids,
            adaptive_routes=self._adaptive,
            drops=self._drops,
        )

    # -- internals ------------------------------------------------------------

    def _integrate_busy(self, now: int) -> None:
        if now > self._last_time:
            self._busy_integral += self.mesh.busy_links() * (
                now - self._last_time
            )
            self._last_time = now

    def _schedule_event(self, time: int, kind: int, op: int) -> None:
        seq = self._event_seq
        if seq >= _SEQ_LIMIT:
            raise RuntimeError("braid simulation event counter overflow")
        self._event_seq = seq + 1
        self._event_meta[seq] = ((op + 1) << 2) | kind
        heapq.heappush(self._events, (time << _SEQ_BITS) | seq)

    def _make_ready(self, op: int, time: int) -> None:
        if self._is_braid[op]:
            self._phase[op] = _READY
            self._wait_start[op] = time
            self._arrival[op] = next(self._arrival_counter)
            self._ready_opens.add(op)
            if self._resv is not None:
                # Reserved-cycle gate: wake exactly when the table says
                # this segment issues (no event may exist there yet).
                cycle = self._resv.reserved[op][self._segment_index[op]]
                if cycle > time:
                    self._schedule_event(cycle, _WAKE, -1)
        else:
            # Local op: runs unconditionally for its duration.
            self._phase[op] = _HOLDING
            self._schedule_event(
                time + self.tasks[op].local_cycles, _LOCAL, op
            )

    def _complete(self, op: int, time: int) -> None:
        self._phase[op] = _DONE
        if time > self._completion_time:
            self._completion_time = time
        remaining = self._remaining_preds
        for succ in self._successors[op]:
            remaining[succ] -= 1
            if remaining[succ] == 0:
                self._make_ready(succ, time)

    def _process_timestep(self, time: int, batch: list[int]) -> None:
        phase = self._phase
        for packed in batch:
            kind = packed & 3
            if kind == _LOCAL:
                self._complete((packed >> 2) - 1, time)
            elif kind == _EXPIRY:
                op = (packed >> 2) - 1
                if phase[op] == _HOLDING:
                    phase[op] = _CLOSING
                    self._closing.append(op)
            # _WAKE entries only force a timestep.
        self._issue_events(time)

    def _eligible_opens(self, time: int) -> list[int]:
        if self._resv is not None:
            # Reservation gate: an op may only issue on (or after) its
            # segment's reserved cycle; a _WAKE is always pending for
            # gated ops, scheduled when they became ready.
            reserved = self._resv.reserved
            seg_index = self._segment_index
            return [
                op
                for op in self._ready_opens
                if reserved[op][seg_index[op]] <= time
            ]
        if self.policy.interleave:
            return list(self._ready_opens)
        # Policy 0: the lowest-index incomplete braid op proceeds alone.
        head = self._p0_head
        is_braid = self._is_braid
        phase = self._phase
        while head < self.num_ops and (
            not is_braid[head] or phase[head] == _DONE
        ):
            head += 1
        self._p0_head = head
        if head < self.num_ops and head in self._ready_opens:
            return [head]
        return []

    def _sort_opens(self, opens: list[int]) -> list[int]:
        """Policy open order for close-first issue sequences.

        Matches ``Policy.open_sort_key`` exactly: every key ends in a
        unique tiebreak (the FIFO arrival stamp, or the op index for the
        scoreboard family), so the sort is total and reduces to plain
        tuple sorts over prefetched arrays.
        """
        policy = self.policy
        arrival = self._arrival
        if policy.family == "scoreboard":
            # Oldest ready = lowest program index; a drop/re-inject
            # keeps the op's place.
            opens.sort()
            return opens
        if policy.combined_length_rule:
            crit = self._criticality
            length = self._route_length
            values = sorted((crit[op] for op in opens), reverse=True)
            # "Highest criticality" = top half of the ready set (the
            # boundary value of the upper half, so ties stay together).
            threshold = values[(len(values) - 1) // 2] if values else 0
            decorated = []
            for op in opens:
                c = crit[op]
                key_len = length[op] if c >= threshold else -length[op]
                decorated.append((-c, key_len, arrival[op], op))
            decorated.sort()
            return [entry[3] for entry in decorated]
        if policy.use_criticality:
            crit = self._criticality
            decorated = [(-crit[op], arrival[op], op) for op in opens]
            decorated.sort()
            return [entry[2] for entry in decorated]
        if policy.use_length:
            length = self._route_length
            decorated = [(-length[op], arrival[op], op) for op in opens]
            decorated.sort()
            return [entry[2] for entry in decorated]
        opens.sort(key=arrival.__getitem__)
        return opens

    def _issue_events(self, time: int) -> None:
        # Fixpoint within the timestep: closes can complete operations,
        # whose successors become ready and may open in the same cycle
        # (the greedy "place as many braids as possible" rule).  A
        # round's open candidates are the ready set as it stood before
        # the round's closes; ops those closes ready open next round.
        closes_first = self.policy.closes_first
        close_segment = self._close_segment
        try_open = self._try_open
        any_release_with_blocked = False
        while True:
            closes = self._closing
            if closes:
                closes.sort()
                self._closing = []
            opens = self._eligible_opens(time) if self._ready_opens else []
            progress = False
            blocked_any = False
            if closes_first:
                # Closes in index order, then opens in policy order.
                if len(opens) > 1:
                    opens = self._sort_opens(opens)
                for op in closes:
                    close_segment(op, time)
                for op in opens:
                    if try_open(op, time):
                        progress = True
                    else:
                        blocked_any = True
            else:
                # Unprioritized: closes and opens interleave by program
                # order, a two-pointer merge of the two sorted lists (an
                # op is never both closing and opening).  The policy's
                # open ordering collapses to op index here, exactly as
                # the seed's merged sort does.
                opens.sort()
                ci = 0
                num_closes = len(closes)
                for op in opens:
                    while ci < num_closes and closes[ci] < op:
                        close_segment(closes[ci], time)
                        ci += 1
                    if try_open(op, time):
                        progress = True
                    else:
                        blocked_any = True
                for op in closes[ci:]:
                    close_segment(op, time)
            if closes:
                progress = True
                any_release_with_blocked |= blocked_any
            if not progress or (not self._closing and not self._ready_opens):
                break
        if any_release_with_blocked and self._ready_opens:
            # Links freed this cycle; blocked opens retry next cycle.
            self._schedule_event(time + 1, _WAKE, -1)

    def _close_segment(self, op: int, time: int) -> None:
        self.mesh.release(op)
        self._segment_index[op] += 1
        if self._segment_index[op] >= len(self._segments[op]):
            self._complete(op, time)
        else:
            self._phase[op] = _READY
            self._wait_start[op] = time
            self._arrival[op] = next(self._arrival_counter)
            self._ready_opens.add(op)
            if self._resv is not None:
                cycle = self._resv.reserved[op][self._segment_index[op]]
                if cycle > time:
                    self._schedule_event(cycle, _WAKE, -1)

    def _try_open(self, op: int, time: int) -> bool:
        config = self.config
        mesh = self.mesh
        waited = time - self._wait_start[op]
        adaptive = waited >= config.adaptive_timeout
        path = None
        mask = 0
        # Epoch early-out: a search that failed at this mesh epoch with
        # the same (or a wider) candidate set must fail again -- claims
        # since then only shrank the free set.
        if self._fail_epoch[op] == mesh.epoch and (
            self._fail_adaptive[op] or not adaptive
        ):
            pass
        else:
            src, dst, hold, min_len, dor_path, dor_mask = self._segments[
                op
            ][self._segment_index[op]]
            occupied = mesh.occupied_mask
            if dor_mask & occupied == 0:
                path, mask = dor_path, dor_mask
            elif adaptive:
                for cand_path, cand_mask in self._routes.alternatives(
                    src, dst
                ):
                    if cand_mask & occupied == 0:
                        path, mask = cand_path, cand_mask
                        break
        if path is None:
            if self._fail_epoch[op] == mesh.epoch:
                # Keep an adaptive failure sticky within the epoch: a
                # post-drop non-adaptive miss must not narrow the memo.
                self._fail_adaptive[op] |= adaptive
            else:
                self._fail_epoch[op] = mesh.epoch
                self._fail_adaptive[op] = adaptive
            if waited >= config.drop_timeout:
                # Drop and re-inject at the back of the ready queue.
                self._drops += 1
                self._wait_start[op] = time
                self._arrival[op] = next(self._arrival_counter)
            if not adaptive:
                # Make sure the op is retried once adaptivity unlocks,
                # even if no braid closes in the meantime.
                self._schedule_event(
                    self._wait_start[op] + config.adaptive_timeout,
                    _WAKE,
                    -1,
                )
            return False
        # A found path implies the search branch ran, so the segment
        # fields (hold, min_len) are bound.
        if adaptive and len(path) - 1 > min_len:
            self._adaptive += 1
        mesh.claim_mask(mask, op)
        self._ready_opens.discard(op)
        self._phase[op] = _HOLDING
        self._braids += 1
        # Open takes this cycle; stabilize for `hold`; then close.
        self._schedule_event(time + 1 + hold, _EXPIRY, op)
        return True


def _require_flat(engine: str) -> None:
    if engine != "flat":
        raise KeyError(
            f"unknown braid engine {engine!r}; available: {sorted(ENGINES)}"
        )


def simulate_braids(
    circuit: Circuit,
    placement: Placement,
    mesh: BraidMesh,
    policy: Policy | int,
    distance: int,
    code: SurfaceCode = DOUBLE_DEFECT,
    factory_routers: tuple[Router, ...] = (),
    config: Optional[BraidSimConfig] = None,
    dag: Optional[CircuitDag] = None,
    engine: str = "flat",
) -> BraidSimResult:
    """Simulate a circuit's braid schedule under one policy.

    Args:
        circuit: Flat Clifford+T circuit.
        placement: Data-qubit placement on the tile grid.
        mesh: Braid mesh matching the placement's grid.
        policy: A :class:`Policy` or its number (0-8).
        distance: Code distance d.
        code: Surface code variant (defaults to double-defect).
        factory_routers: Magic-state factory endpoints.
        config: Timeout/limit knobs.
        dag: Optional pre-built dependence DAG.
        engine: Braid engine (see :data:`ENGINES`); both return
            bit-identical results.
    """
    if isinstance(policy, int):
        policy = POLICIES[policy]
    if engine == "reference":
        from ._braidsim_reference import simulate_braids_reference

        return simulate_braids_reference(
            circuit,
            placement,
            mesh,
            policy,
            distance,
            code=code,
            factory_routers=factory_routers,
            config=config,
            dag=dag,
        )
    _require_flat(engine)
    config = config or BraidSimConfig()
    plan = braid_plan(
        circuit,
        placement,
        mesh,
        code,
        distance,
        factory_routers,
        max_detour=config.max_detour,
        dag=dag,
    )
    return BraidSimulator(
        policy=policy, config=config, plan=plan, mesh=mesh
    ).run()


def simulate_plan(
    plan: BraidPlan,
    policy: Policy | int,
    config: Optional[BraidSimConfig] = None,
    engine: str = "flat",
) -> BraidSimResult:
    """Simulate one policy from a prebuilt (shared) plan.

    The plan is read-only: callers can run all seven policies from the
    same plan, concurrently or in sequence, and each simulation gets
    fresh mutable state (mesh occupancy, phases, event heap).  The
    ``engine`` selects the implementation (see :data:`ENGINES`); the
    reference engine replays the plan's circuit/placement on a fresh
    mesh through the preserved seed loop.
    """
    if isinstance(policy, int):
        policy = POLICIES[policy]
    if engine == "reference":
        from ._braidsim_reference import simulate_braids_reference

        return simulate_braids_reference(
            plan.circuit,
            plan.placement,
            BraidMesh(plan.rows, plan.cols),
            policy,
            plan.distance,
            code=plan.code,
            factory_routers=plan.factory_routers,
            config=config,
            dag=plan.dag,
        )
    _require_flat(engine)
    return BraidSimulator(policy=policy, config=config, plan=plan).run()
