"""Classical-scheduler machinery behind policies 7 and 8.

The paper's seven policies (:mod:`.policies`) are *reactive*: every
timestep they look at the currently ready braids and pick an order.
This module ports two richer machine-scheduler shapes from classical
microarchitecture onto the braid domain, behind the same policy axis:

* **Reservation table** (Policy 7) — the VLIW modulo-scheduling idiom.
  :func:`build_reservation` walks the plan's ops in program order
  (which is topological) and books every braid segment's link mask
  into a :class:`ReservationTable` of ``ii`` modulo cycle slots,
  at the earliest dependence-respecting cycle whose whole occupancy
  window is free.  ``ii`` starts at :func:`ii_lower_bound` — the
  link-resource pressure bound, the braid analogue of
  ``ceil(instructions / units)`` — and grows geometrically when the
  table fragments (iterative modulo scheduling).  The simulator then
  *issues braids on their reserved cycles* instead of reacting per
  event: ops are gated until their reserved cycle, a wake event fires
  exactly then, and by construction the dominant route is free — no
  adaptivity, no drops, no intra-cycle ordering hazards.

* **Scoreboard** (Policy 8) — the oldest-first select of classical
  out-of-order schedulers: a close-first policy that issues ready ops
  in program order (lowest index first), so a drop/re-inject keeps an
  op's place.  It needs no machinery here: the engine's predecessor
  counts already are the wakeup, and ``Policy.open_sort_key`` returns
  ``(op,)`` for it, which the seed loop and the flat engine both
  follow.

The reservation schedule is a policy-*independent* function of the
:class:`~.plan.BraidPlan` (holds, routes, DAG arrays), so it is
memoized per plan identity (:func:`reservation_schedule`) and
re-derived independently by the IR verifier
(:func:`repro.analysis.ir_checks.check_sched`).

Timing contract (kept in lockstep with :mod:`.braidsim`): a segment
opened at cycle ``t`` holds its links through the close at
``t + 1 + hold``, so its occupancy *window* is ``hold + 2`` cycles.
Booking the close cycle too makes reservations conservative by one
cycle where a link is handed straight over — and in exchange the
planned schedule is valid under any intra-cycle open/close ordering.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .plan import BraidPlan

__all__ = [
    "ReservationSchedule",
    "ReservationTable",
    "build_reservation",
    "ii_lower_bound",
    "reservation_schedule",
    "reset_sched_memo",
]


def _iter_bits(mask: int):
    """Ascending set-bit indices of a big-int mask."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# Reservation-table policy (7): modulo-scheduled braid issue


class ReservationTable:
    """Per-cycle link-slot table over ``ii`` modulo cycle slots.

    Slot ``c`` holds the link mask reserved at every absolute cycle
    congruent to ``c`` (mod ``ii``).  :meth:`book` raises on any
    double-booked link-cycle slot — the invariant the property tests
    and the IR verifier re-check by re-booking a finished schedule
    into a fresh table.
    """

    __slots__ = ("ii", "slots")

    def __init__(self, ii: int) -> None:
        if ii < 1:
            raise ValueError(f"initiation interval must be >= 1, got {ii}")
        self.ii = ii
        self.slots: list[int] = [0] * ii

    def conflict(self, cycle: int, length: int, mask: int) -> int:
        """First conflicting window offset, or ``-1`` when free.

        A nonempty mask whose window exceeds ``ii`` overlaps *itself*
        in modulo space, reported as a conflict at offset 0.
        """
        if mask and length > self.ii:
            return 0
        slots = self.slots
        ii = self.ii
        for offset in range(length):
            if slots[(cycle + offset) % ii] & mask:
                return offset
        return -1

    def book(self, cycle: int, length: int, mask: int) -> None:
        """Reserve ``mask`` over ``[cycle, cycle + length)`` or raise."""
        offset = self.conflict(cycle, length, mask)
        if offset >= 0:
            raise ValueError(
                f"link-cycle slot {(cycle + offset) % self.ii} already "
                f"reserved (window [{cycle}, {cycle + length}), "
                f"ii={self.ii})"
            )
        slots = self.slots
        ii = self.ii
        for offset in range(length):
            slots[(cycle + offset) % ii] |= mask


def ii_lower_bound(plan: "BraidPlan") -> int:
    """Resource-pressure lower bound on the initiation interval.

    The busiest link must carry every occupancy window routed over it,
    one per ``ii`` period, so ``ii >= max over links of the summed
    window lengths`` — the braid analogue of the VLIW
    ``ceil(instructions / units)`` bound.
    """
    demand: dict[int, int] = {}
    for segments in plan.segments:
        for seg in segments:
            occupancy = seg[2] + 2  # open + hold cycles + close
            for link in _iter_bits(seg[5]):
                demand[link] = demand.get(link, 0) + occupancy
    return max(demand.values(), default=1)


@dataclasses.dataclass(frozen=True)
class ReservationSchedule:
    """One plan's reserved braid-issue cycles.

    Attributes:
        reserved: Per op, the reserved open cycle of each braid
            segment (empty tuple for local ops).
        finish: Per-op planned completion cycle.
        ii: Achieved initiation interval (table period); always
            ``>= ii_lower``.
        ii_lower: The :func:`ii_lower_bound` the search started from.
        makespan: Planned completion cycle of the whole circuit.
    """

    reserved: tuple[tuple[int, ...], ...]
    finish: tuple[int, ...]
    ii: int
    ii_lower: int
    makespan: int


_MAX_II_ATTEMPTS = 64
"""Geometric ii growth always terminates long before this bound: once
``ii`` exceeds the schedule's absolute span every cycle has its own
slot, so an attempt can only fail while ``ii`` is small."""


def _schedule_at_ii(
    plan: "BraidPlan", ii: int, ii_lower: int
) -> ReservationSchedule | None:
    """One modulo-scheduling attempt at a fixed ``ii`` (None = refit).

    Scans the table's slots inline and books each first-fit window
    unchecked; :meth:`ReservationTable.book` is the checked replay path.
    """
    slots = ReservationTable(ii).slots
    n = plan.num_ops
    tasks = plan.tasks
    is_braid = plan.is_braid
    successors = plan.successors
    ready = [0] * n
    reserved: list[tuple[int, ...]] = []
    finish = [0] * n
    makespan = 0
    for op in range(n):  # program order is topological
        if not is_braid[op]:
            end = ready[op] + tasks[op].local_cycles
            reserved.append(())
        else:
            cursor = ready[op]
            opens = []
            for seg in plan.segments[op]:
                hold, mask = seg[2], seg[5]
                occupancy = hold + 2
                if mask and occupancy > ii:
                    return None  # window self-overlaps at this ii
                # A full period of anchor classes conflicting means no
                # cycle ever fits at this ii.
                limit = cursor + ii
                offset = 0
                while offset < occupancy:
                    if slots[(cursor + offset) % ii] & mask:
                        # Skip-ahead: any window anchored in
                        # (cursor, cursor + offset] still covers the
                        # conflicting slot, so jump past it.
                        cursor += offset + 1
                        if cursor >= limit:
                            return None
                        offset = 0
                    else:
                        offset += 1
                for cycle in range(cursor, cursor + occupancy):
                    slots[cycle % ii] |= mask
                opens.append(cursor)
                cursor += 1 + hold  # the close cycle; completion point
            end = cursor
            reserved.append(tuple(opens))
        finish[op] = end
        if end > makespan:
            makespan = end
        for succ in successors[op]:
            if end > ready[succ]:
                ready[succ] = end
    return ReservationSchedule(
        reserved=tuple(reserved),
        finish=tuple(finish),
        ii=ii,
        ii_lower=ii_lower,
        makespan=makespan,
    )


def build_reservation(plan: "BraidPlan") -> ReservationSchedule:
    """Modulo-schedule every braid segment of ``plan``.

    Iterative modulo scheduling: start at :func:`ii_lower_bound`,
    widen the table geometrically whenever fragmentation leaves some
    segment without a free window, and return the first fit.  The
    result depends only on the plan, never on a policy or config, so
    one schedule serves every engine (see :func:`reservation_schedule`
    for the shared memo).
    """
    ii_lower = ii_lower_bound(plan)
    ii = ii_lower
    for _ in range(_MAX_II_ATTEMPTS):
        schedule = _schedule_at_ii(plan, ii, ii_lower)
        if schedule is not None:
            return schedule
        ii += max(1, ii // 2)
    raise RuntimeError(  # pragma: no cover - see _MAX_II_ATTEMPTS
        f"reservation scheduling failed to converge for "
        f"{plan.circuit.name!r} (ii search reached {ii})"
    )


# ---------------------------------------------------------------------------
# Per-plan memo (the braid_plan idiom: id-keyed, identity-checked)

SCHED_MEMO_CAPACITY = 8

_RESV_MEMO: "OrderedDict[int, tuple[object, ReservationSchedule]]" = (
    OrderedDict()
)


def reservation_schedule(plan: "BraidPlan") -> ReservationSchedule:
    """Memoized :func:`build_reservation` (shared engine/verifier)."""
    key = id(plan)
    entry = _RESV_MEMO.get(key)
    if entry is not None and entry[0] is plan:
        _RESV_MEMO.move_to_end(key)
        return entry[1]
    schedule = build_reservation(plan)
    _RESV_MEMO[key] = (plan, schedule)
    _RESV_MEMO.move_to_end(key)  # a reused id updates in place
    while len(_RESV_MEMO) > SCHED_MEMO_CAPACITY:
        _RESV_MEMO.popitem(last=False)
    return schedule


def reset_sched_memo() -> None:
    """Drop the reservation memo (testing hook)."""
    _RESV_MEMO.clear()
