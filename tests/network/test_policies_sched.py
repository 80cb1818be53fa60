"""Scheduler-family invariants: reservation tables and makespans.

Property tests over Hypothesis-generated plans pin the contracts the
classical-scheduler policies (7 reservation-table, 8 scoreboard) are
built on:

* a reservation schedule never double-books a link-cycle slot (its
  bookings replay into a fresh :class:`ReservationTable` without
  conflict);
* the achieved initiation interval is never below the link-pressure
  ``ii()`` lower bound, which equals a per-segment reference sum on
  random plans and on the four Fig. 6x plans (sim sizes, d=5);
* both policies yield makespans at or above the plan's
  policy-independent critical path, and the reservation policy's
  simulated schedule length equals the planner's makespan exactly
  (no drops, no adaptive reroutes — periodic issue by construction).

The planner's inline first-fit scan is checked against a probe-loop
oracle (skip-ahead over :meth:`ReservationTable.conflict`, then
:meth:`ReservationTable.book`) on the golden-grid plans: every segment
must take the earliest free window.  Policy 8 is also checked event by
event against the seed loop in ``test_policy_differential.py``.  The
``check_sched`` IR pass is exercised both ways: a clean schedule
produces zero diagnostics, and seeded defects (shifted reservations,
lowered ii, truncation) are each flagged as errors.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ir_checks import check_sched
from repro.apps.registry import SIM_SIZES
from repro.arch import build_tiled_machine
from repro.network import (
    BraidMesh,
    ReservationSchedule,
    ReservationTable,
    build_reservation,
    ii_lower_bound,
)
from repro.network.braidsim import simulate_plan
from repro.network.plan import BraidPlan
from repro.partition import GridShape, naive_layout
from repro.qasm import Circuit
from repro.runner import StageCache
from repro.runner.stages import (
    compute_braid_plan,
    compute_frontend,
    compute_layout,
)

_MESHES = ((1, 2), (2, 2), (2, 3), (3, 3))


@st.composite
def small_plans(draw):
    """A small random circuit compiled to a BraidPlan on a tiny mesh."""
    rows, cols = draw(st.sampled_from(_MESHES))
    n = draw(st.integers(2, min(6, rows * cols)))
    qubits = [f"q{i}" for i in range(n)]
    with_factory = draw(st.booleans())
    factories = ((rows, 0),) if with_factory else ()
    gates = ("CNOT", "H", "X") + (("T",) if with_factory else ())
    circuit = Circuit(qubits=qubits)
    for _ in range(draw(st.integers(1, 10))):
        gate = draw(st.sampled_from(gates))
        i = draw(st.integers(0, n - 1))
        if gate == "CNOT":
            j = draw(st.integers(0, n - 2))
            if j >= i:
                j += 1
            circuit.apply("CNOT", qubits[i], qubits[j])
        else:
            circuit.apply(gate, qubits[i])
    return BraidPlan.build(
        circuit,
        naive_layout(qubits, GridShape(rows, cols)),
        BraidMesh(rows, cols),
        distance=3,
        factory_routers=factories,
    )


def _fixed_plan():
    qubits = [f"q{i}" for i in range(4)]
    circuit = Circuit(qubits=qubits)
    for i in range(4):
        for j in range(i + 1, 4):
            circuit.apply("CNOT", f"q{i}", f"q{j}")
    return BraidPlan.build(
        circuit,
        naive_layout(qubits, GridShape(2, 2)),
        BraidMesh(2, 2),
        distance=3,
    )


def _probe_schedule_at_ii(plan, ii, ii_lower):
    """Reference modulo-scheduling attempt: probe every candidate window
    with ``table.conflict``, skip past each conflict, then ``book``."""
    table = ReservationTable(ii)
    ready = [0] * plan.num_ops
    reserved = []
    finish = [0] * plan.num_ops
    makespan = 0
    for op in range(plan.num_ops):
        if not plan.is_braid[op]:
            end = ready[op] + plan.local_cycles[op]
            reserved.append(())
        else:
            cursor = ready[op]
            opens = []
            for seg in plan.segments[op]:
                hold, mask = seg[2], seg[5]
                occupancy = hold + 2
                if mask and occupancy > ii:
                    return None
                start = cursor
                while True:
                    offset = table.conflict(cursor, occupancy, mask)
                    if offset < 0:
                        break
                    cursor += offset + 1
                    if cursor - start >= ii:
                        return None
                table.book(cursor, occupancy, mask)
                opens.append(cursor)
                cursor += 1 + hold
            end = cursor
            reserved.append(tuple(opens))
        finish[op] = end
        makespan = max(makespan, end)
        for succ in plan.successors[op]:
            ready[succ] = max(ready[succ], end)
    return ReservationSchedule(
        reserved=tuple(reserved),
        finish=tuple(finish),
        ii=ii,
        ii_lower=ii_lower,
        makespan=makespan,
    )


def _probe_reservation(plan):
    """Reference iterative modulo scheduling (same geometric ii growth)."""
    ii_lower = ii_lower_bound(plan)
    ii = ii_lower
    while True:
        schedule = _probe_schedule_at_ii(plan, ii, ii_lower)
        if schedule is not None:
            return schedule
        ii += max(1, ii // 2)


class TestReservationTable:
    """The per-cycle link-slot table primitive."""

    def test_booking_claims_slots(self):
        table = ReservationTable(4)
        assert table.conflict(0, 2, 0b11) == -1
        table.book(0, 2, 0b11)
        assert table.conflict(0, 1, 0b01) == 0
        assert table.conflict(1, 1, 0b10) == 0
        # Disjoint links share the cycle freely.
        assert table.conflict(0, 2, 0b100) == -1

    def test_double_book_raises(self):
        table = ReservationTable(3)
        table.book(1, 1, 0b1)
        with pytest.raises(ValueError):
            table.book(1, 1, 0b1)

    def test_modulo_wraparound_conflicts(self):
        table = ReservationTable(3)
        table.book(0, 1, 0b1)
        # Cycle 3 aliases cycle 0 at ii=3.
        assert table.conflict(3, 1, 0b1) == 0

    def test_window_longer_than_ii_self_overlaps(self):
        table = ReservationTable(2)
        assert table.conflict(0, 3, 0b1) == 0

    def test_empty_mask_never_conflicts(self):
        table = ReservationTable(2)
        table.book(0, 2, 0b11)
        assert table.conflict(0, 5, 0) == -1


class TestSchedulerProperties:
    """Hypothesis-driven invariants over random small plans."""

    @given(plan=small_plans())
    @settings(max_examples=40, deadline=None)
    def test_reservation_never_double_books(self, plan):
        schedule = build_reservation(plan)
        table = ReservationTable(schedule.ii)
        for op in range(plan.num_ops):
            if not plan.is_braid[op]:
                assert schedule.reserved[op] == ()
                continue
            for seg, cycle in zip(plan.segments[op], schedule.reserved[op]):
                table.book(cycle, seg[2] + 2, seg[5])  # raises on overlap

    @given(plan=small_plans())
    @settings(max_examples=40, deadline=None)
    def test_achieved_ii_at_least_lower_bound(self, plan):
        schedule = build_reservation(plan)
        assert schedule.ii_lower == ii_lower_bound(plan)
        assert schedule.ii >= schedule.ii_lower

    @given(plan=small_plans())
    @settings(max_examples=40, deadline=None)
    def test_makespans_at_least_critical_path(self, plan):
        for policy in (7, 8):
            result = simulate_plan(plan, policy)
            assert result.schedule_length >= plan.critical_path

    @given(plan=small_plans())
    @settings(max_examples=40, deadline=None)
    def test_reservation_sim_matches_planner(self, plan):
        schedule = build_reservation(plan)
        result = simulate_plan(plan, 7)
        assert result.schedule_length == schedule.makespan
        assert result.drops == 0
        assert result.adaptive_routes == 0


class TestFirstFitOracle:
    """The planner's inline scan books the windows the probe loop finds."""

    @pytest.fixture(scope="class")
    def cache(self):
        return StageCache()

    @pytest.mark.parametrize("distance", (3, 5))
    @pytest.mark.parametrize(
        "app,size,refit",
        [("gse", 3, True), ("im", 8, False), ("sq", 2, True)],
    )
    def test_matches_probe_loop_on_golden_grid(
        self, cache, app, size, refit, distance
    ):
        fe = compute_frontend(cache, app, size, None)
        machine = build_tiled_machine(
            fe.circuit, compute_layout(cache, app, size, None, True)
        )
        plan = BraidPlan.build(
            machine.circuit,
            machine.placement,
            BraidMesh(machine.grid.rows, machine.grid.cols),
            machine.code,
            distance,
            machine.factory_routers,
            dag=fe.dag,
        )
        schedule = build_reservation(plan)
        assert schedule == _probe_reservation(plan)
        # gse[3] and sq[2] widen the table at least once; im[8] fits at
        # the lower bound.
        assert (schedule.ii > schedule.ii_lower) is refit

    @given(plan=small_plans())
    @settings(max_examples=40, deadline=None)
    def test_matches_probe_loop_on_random_plans(self, plan):
        assert build_reservation(plan) == _probe_reservation(plan)


def _per_segment_ii_lower_bound(plan):
    """Reference link-pressure bound: every segment walks its own links
    (``check_sched`` calls the engine's bound, so it cannot judge it)."""
    demand = {}
    for segments in plan.segments:
        for seg in segments:
            occupancy = seg[2] + 2
            mask = seg[5]
            link = 0
            while mask:
                if mask & 1:
                    demand[link] = demand.get(link, 0) + occupancy
                mask >>= 1
                link += 1
    return max(demand.values(), default=1)


class TestIiLowerBound:
    """The grouped bound equals the per-segment sum it replaces."""

    @given(plan=small_plans())
    @settings(max_examples=40, deadline=None)
    def test_matches_per_segment_sum_on_random_plans(self, plan):
        assert ii_lower_bound(plan) == _per_segment_ii_lower_bound(plan)

    @pytest.mark.parametrize("app", ("gse", "sq", "sha1", "im"))
    def test_matches_per_segment_sum_on_fig6x_plans(self, app):
        plan = compute_braid_plan(
            StageCache(), app, SIM_SIZES[app], None, True, 5
        )
        assert ii_lower_bound(plan) == _per_segment_ii_lower_bound(plan)


class TestReservationRebuild:
    """Every engine run builds its own reservation schedule."""

    def test_rebuilds_are_identical(self):
        plan = _fixed_plan()
        first = build_reservation(plan)
        assert build_reservation(plan) == first
        # An earlier build still audits clean against the plan, and
        # two Policy 7 runs (each building afresh) agree.
        assert check_sched(plan, schedule=first) == []
        assert simulate_plan(plan, 7) == simulate_plan(plan, 7)


class TestCheckSchedPass:
    """``check_sched`` accepts clean artifacts, flags seeded defects."""

    @pytest.fixture(scope="class")
    def plan(self):
        return _fixed_plan()

    def test_clean_plan_has_no_findings(self, plan):
        assert check_sched(plan) == []

    def _errors(self, plan, **kwargs):
        return [d.format() for d in check_sched(plan, **kwargs)]

    def test_lowered_ii_is_flagged(self, plan):
        schedule = build_reservation(plan)
        bad = dataclasses.replace(schedule, ii=schedule.ii_lower - 1)
        errors = self._errors(plan, schedule=bad)
        assert any("lower bound" in e for e in errors)

    def test_shifted_reservation_is_flagged(self, plan):
        schedule = build_reservation(plan)
        braid = next(
            op for op in range(plan.num_ops) if schedule.reserved[op]
        )
        reserved = list(schedule.reserved)
        cycles = list(reserved[braid])
        cycles[0] += 1
        reserved[braid] = tuple(cycles)
        bad = dataclasses.replace(schedule, reserved=tuple(reserved))
        assert self._errors(plan, schedule=bad)

    def test_truncated_schedule_is_flagged(self, plan):
        schedule = build_reservation(plan)
        bad = dataclasses.replace(
            schedule, reserved=schedule.reserved[:-1]
        )
        errors = self._errors(plan, schedule=bad)
        assert any("covers" in e for e in errors)
