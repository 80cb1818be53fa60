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

Everything that does not depend on the scheduling policy — per-op
braid flags, route lengths and local latencies, dominant routes and
link masks, DAG arrays, the critical path — is precompiled into an
immutable :class:`~repro.network.plan.BraidPlan`, built once per
design point and shared by all of its policy simulations (see
:mod:`repro.network.plan`); a :class:`BraidSimulator` takes nothing
else but the policy, its knobs and optionally the caller's mesh.
:meth:`BraidSimulator.run` then does each
timestep's whole work in one loop body on local variables, with no
call per event but the open-order sort of a round with two or more
ready opens:

* events live on a per-cycle calendar: a heap of distinct pending
  cycles, plus per cycle the ops due then in scheduling order (``op``
  for a braid expiry, ``~op`` for a local completion); a wake only
  makes sure its cycle exists, and a timestep pops its cycle's whole
  list before processing it;
* link occupancy is a bitmask over link ids, so a route is free iff
  ``route_mask & occupied == 0`` and claims/releases are big-int
  OR/XOR; the mask, its popcount and the release counter (the mesh
  *epoch*) are locals read from the :class:`~.mesh.BraidMesh` at entry
  and handed back at exit, and each holding op's mask sits in a dict;
* routes come precomputed from a shared :class:`~.routing.RouteTable`;
* per-op criticality and route-length keys are fetched into arrays once
  instead of rebuilding closures inside the issue fixpoint;
* a blocked open records the epoch at which its route search failed
  and skips the search entirely until a link is released or adaptivity
  widens its candidate set;
* each issue round sorts its candidate opens only when more than one is
  ready (ready sets hold 0--3 ops in most rounds); interleaved policies
  merge the closes and opens with one sort on op index.

The scheduler families (policies 7 and 8) ride the same event loop:
the reservation family (:mod:`.policies_sched`) admits an op to an
issue round only on or after its segment's reserved cycle and wakes it
exactly there, and the scoreboard family is a close-first policy that
issues the oldest ready op (lowest program index) first.

For every policy but 7, results are bit-identical to the seed event
loop, which is preserved in :mod:`repro.network._braidsim_reference`
and enforced by the golden equivalence tests and the event-trace
differential harness (the loop records its own trace, see
:attr:`BraidSimulator.trace`).  Policy 7 has no seed oracle; its
simulated schedule length equals its planner's makespan, and the IR
verifier replays its reservation table.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Optional

from ..analysis.diagnostics import PlanMismatchError
from ..partition.layout import Placement
from ..qasm.circuit import Circuit
from ..qasm.dag import CircuitDag
from ..qec.codes import DOUBLE_DEFECT, SurfaceCode
from .mesh import BraidMesh, Router
from .plan import DEFAULT_MAX_DETOUR, BraidPlan
from .policies import POLICIES, Policy
from .policies_sched import build_reservation

__all__ = [
    "BraidSimConfig",
    "BraidSimResult",
    "BraidSimulator",
    "ENGINES",
    "simulate_braids",
    "simulate_plan",
]

ENGINES = ("flat", "reference")
"""Engines :func:`simulate_plan` accepts.

* ``"flat"`` — this module's optimized flat-structure event loop, the
  only engine the runner, the stages and the CLI simulate with.
* ``"reference"`` — the preserved seed loop in
  :mod:`._braidsim_reference`, the semantic oracle (it refuses
  Policy 7, which postdates it).

Both produce bit-identical :class:`BraidSimResult`\\ s; the golden
tests, the differential harness and ``python -m repro bench
--reference`` enforce it.
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


class BraidSimulator:
    """Braid schedule simulator for one plan under one policy.

    Use :func:`simulate_braids` for one policy on one design point,
    :func:`simulate_plan` to run several policies from one prebuilt
    :class:`~repro.network.plan.BraidPlan`, and instantiate directly to
    run on a caller's mesh or to record a trace.  Custom tasks enter
    through the plan (``BraidPlan.build(..., tasks=...)``).

    :meth:`run` is one timestep loop whose body does all of a
    timestep's work on local variables: the calendar pop and local
    completions, the closes (release, then the next segment or the
    completion, then successors made ready), the opens (epoch
    early-out, dominant then adaptive route search, drop and
    re-inject, claim) and every calendar push.  Each call creates its
    own per-op state (and Policy 7's reservation), so a simulator can
    run more than once.  The mesh's occupancy and epoch are read when
    :meth:`run` starts and written back when it returns, drained of the
    run's own claims and with the epoch counting its releases.

    Attributes:
        trace: ``None``, or a list that :meth:`run` appends every
            scheduling decision to, in order: ``("open", t, op,
            segment)`` for a successful open, ``("close", t, op,
            segment)`` for a close and ``("done", t, op)`` for a
            completion.  The differential tests compare it with the
            seed loop's.
    """

    def __init__(
        self,
        plan: BraidPlan,
        policy: Policy,
        config: Optional[BraidSimConfig] = None,
        mesh: Optional[BraidMesh] = None,
    ) -> None:
        self.config = config or BraidSimConfig()
        if plan.max_detour != self.config.max_detour:
            raise PlanMismatchError(
                f"plan was compiled with max_detour={plan.max_detour}, "
                f"config wants {self.config.max_detour}",
                artifact=f"plan for {plan.circuit.name!r}",
            )
        if mesh is not None and (mesh.rows, mesh.cols) != (
            plan.rows, plan.cols
        ):
            raise PlanMismatchError(
                f"plan was compiled for a {plan.rows}x{plan.cols} mesh, "
                f"got a {mesh.rows}x{mesh.cols} mesh",
                artifact=f"plan for {plan.circuit.name!r}",
            )
        self.plan = plan
        # The mesh is the only mutable run-time structure shared with
        # callers: reuse a provided one, else make a fresh empty mesh.
        self.mesh = mesh if mesh is not None else BraidMesh(
            plan.rows, plan.cols
        )
        self.policy = policy

        # Open-order keys, shared read-only from the plan (criticality
        # is fetched by :meth:`run`).
        self._route_length = plan.route_length
        self._criticality: list[int] = []
        self.trace: Optional[list[tuple]] = None

    # -- public API ---------------------------------------------------------

    def run(self) -> BraidSimResult:
        plan = self.plan
        config = self.config
        mesh = self.mesh
        policy = self.policy
        num_ops = plan.num_ops
        is_braid = plan.is_braid
        segments = plan.segments
        local_cycles = plan.local_cycles
        successors = plan.successors
        alternatives = plan.routes.alternatives
        # Per-op run state: completion flags, segment cursors, the
        # mutable copy of the in-degrees, wait starts and FIFO arrival
        # stamps, and the blocked-open memo (the mesh epoch at which
        # the op's last route search failed, and whether that search
        # was adaptive).
        done = [False] * num_ops
        seg_index = [0] * num_ops
        remaining = list(plan.in_degrees)
        wait_start = [0] * num_ops
        arrival = [0] * num_ops
        fail_epoch = [-1] * num_ops
        fail_adaptive = [False] * num_ops
        ready: set[int] = set()
        if policy.use_criticality or policy.combined_length_rule:
            # Materialized only for policies that rank by it (the DAG's
            # lazy descendant counts are shared across plans), and after
            # the per-op state: materializing it first raised im[32]'s
            # peak RSS by about 1%.
            self._criticality = plan.criticality()
        ready_add = ready.add
        ready_discard = ready.discard
        sort_opens = self._sort_opens
        closes_first = policy.closes_first
        interleave = policy.interleave
        # Reservation family (Policy 7): the plan's reserved issue
        # cycles (see repro.network.policies_sched).
        reserved = (
            build_reservation(plan).reserved
            if policy.family == "reservation"
            else None
        )
        adaptive_timeout = config.adaptive_timeout
        drop_timeout = config.drop_timeout
        max_cycles = config.max_cycles
        trace = self.trace
        heappush = heapq.heappush
        heappop = heapq.heappop
        # Event calendar: a heap of distinct pending cycles, and per
        # cycle the ops due then in scheduling order (``op`` for a braid
        # expiry, ``~op`` for a local completion).  A wake carries no
        # data, so it only makes sure its cycle exists.
        cycles = [0]
        due: dict[int, list[int]] = {0: []}
        # Link occupancy lives here for the run and goes back to the
        # mesh at the end: the claimed links, their count, the release
        # counter (the mesh epoch), and each holding op's claimed mask
        # (empty again once the calendar is).
        occupied = mesh.occupied_mask
        busy = mesh.busy_links()
        epoch = mesh.epoch
        held: dict[int, int] = {}
        stamp = -1  # the last FIFO arrival stamp handed out
        head = 0  # Policy 0's program-order cursor
        completion_time = braids = adaptive_routes = drops = 0
        busy_integral = last_time = 0

        for op in plan.sources:
            if is_braid[op]:
                stamp += 1
                arrival[op] = stamp
                ready_add(op)
            else:
                cycle = local_cycles[op]
                if cycle in due:
                    due[cycle].append(~op)
                else:
                    due[cycle] = [~op]
                    heappush(cycles, cycle)

        while cycles:
            time = heappop(cycles)
            if time > max_cycles:
                raise RuntimeError(
                    f"braid simulation exceeded {max_cycles} "
                    "cycles; likely livelock"
                )
            if time > last_time:
                busy_integral += busy * (time - last_time)
                last_time = time
            # The cycle's whole list is taken before any of it runs, so
            # an event scheduled for this very cycle (a zero-cycle local
            # op) forms a new timestep at the same cycle.  Closes are
            # kept as ``~op``, like local completions, in op order.
            seq = []
            closes = []
            for entry in due.pop(time):
                if entry < 0:
                    seq.append(entry)
                else:
                    closes.append(~entry)
            closes.sort(reverse=True)
            # Issue rounds to a fixpoint: closes can complete operations,
            # whose successors become ready and may open in the same
            # cycle (the greedy "place as many braids as possible"
            # rule).  A round's open candidates are the ready set as it
            # stood before the round's closes; ops those closes ready
            # open next round.  Round 0 runs the cycle's local
            # completions, in calendar order, and round 1 its closes.
            progress = True
            closing = False
            released_with_blocked = False
            while True:
                blocked = False
                for op in seq:
                    if op >= 0:
                        # Open: the dominant route if free, else (once
                        # the adaptive timeout passed) the first free
                        # alternative.
                        waited = time - wait_start[op]
                        adaptive = waited >= adaptive_timeout
                        path = None
                        # Epoch early-out: a search that failed at this
                        # epoch with the same (or a wider) candidate set
                        # must fail again -- claims since then only
                        # shrank the free set.
                        if fail_epoch[op] != epoch or (
                            adaptive and not fail_adaptive[op]
                        ):
                            src, dst, hold, min_len, dor_path, dor_mask = (
                                segments[op][seg_index[op]]
                            )
                            if not dor_mask & occupied:
                                path, mask = dor_path, dor_mask
                            elif adaptive:
                                for cand_path, cand_mask in alternatives(
                                    src, dst
                                ):
                                    if not cand_mask & occupied:
                                        path, mask = cand_path, cand_mask
                                        break
                            if path is None:
                                # Within a memoized epoch only a search
                                # wider than the memo runs, so this never
                                # narrows an adaptive memo.
                                fail_epoch[op] = epoch
                                fail_adaptive[op] = adaptive
                        if path is None:
                            blocked = True
                            if waited >= drop_timeout:
                                # Drop and re-inject at the back of the
                                # ready queue.
                                drops += 1
                                wait_start[op] = time
                                stamp += 1
                                arrival[op] = stamp
                            elif not adaptive:
                                # Retry once adaptivity unlocks, even if
                                # no braid closes in the meantime.
                                cycle = wait_start[op] + adaptive_timeout
                                if cycle not in due:
                                    due[cycle] = []
                                    heappush(cycles, cycle)
                            continue
                        # A found path implies the search ran, so the
                        # segment fields (hold, min_len) are bound.
                        if adaptive and len(path) - 1 > min_len:
                            adaptive_routes += 1
                        held[op] = mask
                        occupied |= mask
                        busy += mask.bit_count()
                        ready_discard(op)
                        braids += 1
                        progress = True
                        # Open takes this cycle; stabilize for `hold`;
                        # then close.
                        cycle = time + 1 + hold
                        if cycle in due:
                            due[cycle].append(op)
                        else:
                            due[cycle] = [op]
                            heappush(cycles, cycle)
                        if trace is not None:
                            trace.append(("open", time, op, seg_index[op]))
                        continue
                    op = ~op
                    if is_braid[op]:
                        # Close: release the links, then ready the next
                        # segment or complete the op.
                        seg = seg_index[op]
                        if trace is not None:
                            trace.append(("close", time, op, seg))
                        mask = held.pop(op)
                        if mask:
                            occupied ^= mask
                            busy -= mask.bit_count()
                            epoch += 1
                        seg += 1
                        seg_index[op] = seg
                        if seg < len(segments[op]):
                            wait_start[op] = time
                            stamp += 1
                            arrival[op] = stamp
                            ready_add(op)
                            continue
                    # Complete: every successor whose last predecessor
                    # this was becomes ready.
                    done[op] = True
                    if trace is not None:
                        trace.append(("done", time, op))
                    if time > completion_time:
                        completion_time = time
                    for succ in successors[op]:
                        left = remaining[succ] - 1
                        remaining[succ] = left
                        if left:
                            continue
                        if is_braid[succ]:
                            wait_start[succ] = time
                            stamp += 1
                            arrival[succ] = stamp
                            ready_add(succ)
                        else:
                            # Local op: runs unconditionally for its
                            # duration.
                            cycle = time + local_cycles[succ]
                            if cycle in due:
                                due[cycle].append(~succ)
                            else:
                                due[cycle] = [~succ]
                                heappush(cycles, cycle)
                if closing:
                    released_with_blocked = blocked
                if not progress or not (ready or closes):
                    break
                if not ready:
                    opens = []
                elif reserved is not None:
                    # Reservation gate: an op issues only on (or after)
                    # its segment's reserved cycle, and a wake makes sure
                    # that cycle is a timestep.  Every op readied in a
                    # round passes here before the timestep ends.
                    opens = []
                    for op in ready:
                        cycle = reserved[op][seg_index[op]]
                        if cycle <= time:
                            opens.append(op)
                        elif cycle not in due:
                            due[cycle] = []
                            heappush(cycles, cycle)
                elif interleave:
                    opens = list(ready)
                else:
                    # Policy 0: the lowest-index incomplete braid op
                    # proceeds alone.
                    while head < num_ops and (
                        not is_braid[head] or done[head]
                    ):
                        head += 1
                    opens = [head] if head in ready else []
                progress = closing = bool(closes)
                if closes_first:
                    # Closes in op order, then opens in policy order.
                    if len(opens) > 1:
                        opens = sort_opens(opens, arrival)
                    seq = closes + opens if closes else opens
                elif closes:
                    # Unprioritized: closes and opens interleave in
                    # program order (an op is never both closing and
                    # opening).  ``abs`` keys a close ``~op`` as op + 1,
                    # and the stable sort keeps it ahead of the open of
                    # op + 1.  The policy's open ordering collapses to
                    # op index here, exactly as the seed's merged sort
                    # does.
                    seq = closes + opens
                    seq.sort(key=abs)
                else:
                    opens.sort()
                    seq = opens
                closes = []
            if released_with_blocked and ready:
                # Links freed this cycle; blocked opens retry next cycle.
                cycle = time + 1
                if cycle not in due:
                    due[cycle] = []
                    heappush(cycles, cycle)
        mesh.set_occupancy(occupied, epoch)
        if not all(done):
            unfinished = [i for i in range(num_ops) if not done[i]]
            raise RuntimeError(
                f"braid simulation stalled with {len(unfinished)} "
                f"unfinished operations (first: {unfinished[:5]}); this "
                "is a simulator bug"
            )
        total_time = max(completion_time, 1)
        return BraidSimResult(
            schedule_length=completion_time,
            critical_path=plan.critical_path,
            mean_utilization=busy_integral / (total_time * mesh.num_links),
            operations=num_ops,
            braids=braids,
            adaptive_routes=adaptive_routes,
            drops=drops,
        )

    # -- internals ------------------------------------------------------------

    def _sort_opens(self, opens: list[int], arrival: list[int]) -> list[int]:
        """Policy open order for close-first issue sequences.

        Matches ``Policy.open_sort_key`` exactly: every key ends in a
        unique tiebreak (the FIFO arrival stamp from the run's
        ``arrival`` list, or the op index for the scoreboard family), so
        the sort is total and reduces to plain tuple sorts over
        prefetched arrays.
        """
        policy = self.policy
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
    """
    if isinstance(policy, int):
        policy = POLICIES[policy]
    config = config or BraidSimConfig()
    plan = BraidPlan.build(
        circuit,
        placement,
        mesh,
        code,
        distance,
        factory_routers,
        max_detour=config.max_detour,
        dag=dag,
    )
    return BraidSimulator(plan, policy, config, mesh).run()


def simulate_plan(
    plan: BraidPlan,
    policy: Policy | int,
    config: Optional[BraidSimConfig] = None,
    engine: str = "flat",
) -> BraidSimResult:
    """Simulate one policy from a prebuilt (shared) plan.

    The plan is read-only: callers can run all seven policies from the
    same plan, concurrently or in sequence, and each simulation gets
    fresh mutable state (mesh occupancy, per-op state, event calendar).
    The ``engine`` selects the implementation (see :data:`ENGINES`); the
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
    if engine != "flat":
        raise KeyError(
            f"unknown braid engine {engine!r}; available: {sorted(ENGINES)}"
        )
    return BraidSimulator(plan, policy, config).run()
