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

* events live on a per-cycle calendar: a heap of distinct pending
  cycles, plus per cycle the ops due then in scheduling order (``op``
  for a braid expiry, ``~op`` for a local completion); a wake only
  makes sure its cycle exists, and :meth:`BraidSimulator.run` is one
  timestep loop that pops a cycle's whole list before processing it;
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
the reservation family (:mod:`.policies_sched`) admits an op to an
issue round only on or after its segment's reserved cycle and wakes it
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
        elif mesh is not None and (mesh.rows, mesh.cols) != (
            plan.rows, plan.cols
        ):
            raise PlanMismatchError(
                f"plan was compiled for a {plan.rows}x{plan.cols} mesh, "
                f"got a {mesh.rows}x{mesh.cols} mesh",
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
        # Event calendar: a heap of distinct pending cycles, and per
        # cycle the ops due then in scheduling order (``op`` for a braid
        # expiry, ``~op`` for a local completion).  A wake carries no
        # data, so it only makes sure its cycle exists.
        self._cycles: list[int] = []
        self._due: dict[int, list[int]] = {}
        self._completion_time = 0
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
        self._due_at(0)
        cycles = self._cycles
        due = self._due
        phase = self._phase
        ready = self._ready_opens
        mesh = self.mesh
        # The seams a subclass may hook are bound once, not inlined.
        try_open = self._try_open
        close_segment = self._close_segment
        complete = self._complete
        sort_opens = self._sort_opens
        closes_first = self.policy.closes_first
        interleave = self.policy.interleave
        reserved = self._resv.reserved if self._resv is not None else None
        seg_index = self._segment_index
        max_cycles = self.config.max_cycles
        heappop = heapq.heappop
        busy_integral = 0
        last_time = 0
        while cycles:
            time = heappop(cycles)
            if time > max_cycles:
                raise RuntimeError(
                    f"braid simulation exceeded {max_cycles} "
                    "cycles; likely livelock"
                )
            if time > last_time:
                busy_integral += mesh.busy_links() * (time - last_time)
                last_time = time
            # The cycle's whole list is taken before any of it runs, so
            # an event scheduled for this very cycle (a zero-cycle local
            # op) forms a new timestep at the same cycle.
            closes = []
            for entry in due.pop(time):
                if entry < 0:
                    complete(~entry, time)
                elif phase[entry] == _HOLDING:
                    phase[entry] = _CLOSING
                    closes.append(entry)
            closes.sort()
            # Fixpoint within the timestep: closes can complete
            # operations, whose successors become ready and may open in
            # the same cycle (the greedy "place as many braids as
            # possible" rule).  A round's open candidates are the ready
            # set as it stood before the round's closes; ops those
            # closes ready open next round.  Closes only come from the
            # cycle's list, so only the first round has any.
            released_with_blocked = False
            while True:
                if not ready:
                    opens = []
                elif reserved is not None:
                    # Reservation gate: an op issues only on (or after)
                    # its segment's reserved cycle, where a wake was
                    # scheduled when it became ready.
                    opens = [
                        op
                        for op in ready
                        if reserved[op][seg_index[op]] <= time
                    ]
                elif interleave:
                    opens = list(ready)
                else:
                    opens = self._head_opens()
                progress = bool(closes)
                blocked = False
                num_closes = len(closes)
                if closes_first:
                    # Closes in index order, then opens in policy order.
                    if len(opens) > 1:
                        opens = sort_opens(opens)
                    for op in closes:
                        close_segment(op, time)
                    ci = num_closes
                else:
                    # Unprioritized: closes and opens interleave by
                    # program order, a two-pointer merge of the two
                    # sorted lists (an op is never both closing and
                    # opening).  The policy's open ordering collapses to
                    # op index here, exactly as the seed's merged sort
                    # does.
                    opens.sort()
                    ci = 0
                for op in opens:
                    while ci < num_closes and closes[ci] < op:
                        close_segment(closes[ci], time)
                        ci += 1
                    if try_open(op, time):
                        progress = True
                    else:
                        blocked = True
                for op in closes[ci:]:
                    close_segment(op, time)
                if closes:
                    released_with_blocked = blocked
                    closes = []
                if not progress or not ready:
                    break
            if released_with_blocked and ready:
                # Links freed this cycle; blocked opens retry next cycle.
                self._due_at(time + 1)
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
                busy_integral / (total_time * self.mesh.num_links)
            ),
            operations=self.num_ops,
            braids=self._braids,
            adaptive_routes=self._adaptive,
            drops=self._drops,
        )

    # -- internals ------------------------------------------------------------

    def _due_at(self, cycle: int) -> list[int]:
        """The calendar list of ``cycle``, queueing the cycle if new."""
        entries = self._due.get(cycle)
        if entries is None:
            entries = self._due[cycle] = []
            heapq.heappush(self._cycles, cycle)
        return entries

    def _make_ready(self, op: int, time: int) -> None:
        """Queue ``op``'s next braid segment, or start a local op."""
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
                    self._due_at(cycle)
        else:
            # Local op: runs unconditionally for its duration.
            self._phase[op] = _HOLDING
            self._due_at(time + self.tasks[op].local_cycles).append(~op)

    def _complete(self, op: int, time: int) -> None:
        self._phase[op] = _DONE
        if time > self._completion_time:
            self._completion_time = time
        remaining = self._remaining_preds
        for succ in self._successors[op]:
            remaining[succ] -= 1
            if remaining[succ] == 0:
                self._make_ready(succ, time)

    def _head_opens(self) -> list[int]:
        """Policy 0: the lowest-index incomplete braid op proceeds alone."""
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

    def _close_segment(self, op: int, time: int) -> None:
        self.mesh.release(op)
        self._segment_index[op] += 1
        if self._segment_index[op] >= len(self._segments[op]):
            self._complete(op, time)
        else:
            self._make_ready(op, time)

    def _try_open(self, op: int, time: int) -> bool:
        config = self.config
        mesh = self.mesh
        epoch = mesh.epoch
        waited = time - self._wait_start[op]
        adaptive = waited >= config.adaptive_timeout
        path = None
        # Epoch early-out: a search that failed at this mesh epoch with
        # the same (or a wider) candidate set must fail again -- claims
        # since then only shrank the free set.
        if self._fail_epoch[op] != epoch or (
            adaptive and not self._fail_adaptive[op]
        ):
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
                # Within a memoized epoch only a search wider than the
                # memo runs, so this never narrows an adaptive memo.
                self._fail_epoch[op] = epoch
                self._fail_adaptive[op] = adaptive
        if path is None:
            if waited >= config.drop_timeout:
                # Drop and re-inject at the back of the ready queue.
                self._drops += 1
                self._wait_start[op] = time
                self._arrival[op] = next(self._arrival_counter)
            if not adaptive:
                # Make sure the op is retried once adaptivity unlocks,
                # even if no braid closes in the meantime.
                self._due_at(self._wait_start[op] + config.adaptive_timeout)
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
        self._due_at(time + 1 + hold).append(op)
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
