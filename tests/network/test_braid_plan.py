"""Shared braid simulation plans: golden equivalence, immutability, memo.

The plan refactor moves every policy-independent setup product (tasks,
prebound routes, DAG arrays, critical path) out of the simulator into a
:class:`~repro.network.plan.BraidPlan` shared by all seven policies of
a design point.  These tests pin four contracts:

* a plan-backed simulation is bit-identical to the reference loop for
  every policy (the plan must not observable-change anything);
* a plan's arrays are *unchanged* after simulations run from it (the
  mutation guard hashes them before and after);
* a caller's mesh must have the plan's shape, and a run leaves it
  drained;
* the process-wide memo builds one plan per design point and validates
  placement identity on hits.
"""

import pytest

from repro.analysis.diagnostics import PlanMismatchError
from repro.network import (
    BraidMesh,
    BraidSimConfig,
    BraidSimulator,
    braid_plan,
    plan_memo_stats,
    reset_plan_memo,
    simulate_braids,
    simulate_braids_reference,
    simulate_plan,
)
from repro.network.plan import BraidPlan
from repro.partition import GridShape, naive_layout
from repro.qasm import Circuit
from repro.runner import StageCache
from repro.runner.stages import POLICIES, compute_frontend, compute_layout


def _contended_instance(cache):
    """A small real machine with enough contention to matter."""
    fe = compute_frontend(cache, "sq", 2, None)
    machine = compute_layout(cache, "sq", 2, None, True)
    return fe, machine


class TestPlanGolden:
    """One shared plan, all seven policies, bit-identical results."""

    @pytest.fixture(scope="class")
    def cache(self):
        return StageCache()

    @pytest.fixture(scope="class")
    def shared(self, cache):
        fe, machine = _contended_instance(cache)
        return machine, machine.plan(3, dag=fe.dag)

    @pytest.mark.parametrize("policy", range(7))
    def test_plan_backed_matches_reference(self, shared, policy):
        machine, plan = shared
        optimized = simulate_plan(plan, policy)
        mesh = BraidMesh(machine.grid.rows, machine.grid.cols)
        reference = simulate_braids_reference(
            machine.circuit, machine.placement, mesh, policy, 3,
            code=machine.code, factory_routers=machine.factory_routers,
            dag=plan.dag,
        )
        assert optimized == reference

    @pytest.mark.parametrize("policy", range(7))
    def test_synthetic_contention_from_shared_plan(self, policy):
        qubits = [f"q{i}" for i in range(4)]
        placement = naive_layout(qubits, GridShape(2, 2))
        c = Circuit(qubits=qubits)
        for i in range(4):
            for j in range(i + 1, 4):
                c.apply("CNOT", f"q{i}", f"q{j}")
        config = BraidSimConfig(adaptive_timeout=1, drop_timeout=3)
        plan = BraidPlan.build(
            c, placement, BraidMesh(2, 2), distance=3,
            max_detour=config.max_detour,
        )
        optimized = simulate_plan(plan, policy, config=config)
        reference = simulate_braids_reference(
            c, placement, BraidMesh(2, 2), policy, 3, config=config
        )
        assert optimized == reference


class TestPlanImmutability:
    def _fingerprint(self, plan):
        # criticality() materializes lazily on first use; force it first
        # so the fingerprint covers the array the policies share.
        return hash((
            plan.is_braid,
            plan.route_length,
            plan.segments,
            plan.in_degrees,
            plan.successors,
            plan.sources,
            plan.critical_path,
            tuple(plan.criticality()),
            tuple(task.index for task in plan.tasks),
        ))

    def test_shared_plan_unchanged_across_policies(self):
        cache = StageCache()
        fe, machine = _contended_instance(cache)
        plan = machine.plan(3, dag=fe.dag)
        before = self._fingerprint(plan)
        first = [simulate_plan(plan, p) for p in (0, 4, 5, 6)]
        assert self._fingerprint(plan) == before
        # Re-running from the same plan reproduces the results exactly:
        # nothing per-run leaked into the shared arrays.
        again = [simulate_plan(plan, p) for p in (0, 4, 5, 6)]
        assert first == again

    def test_plan_rejects_attribute_mutation(self):
        cache = StageCache()
        fe, machine = _contended_instance(cache)
        plan = machine.plan(3, dag=fe.dag)
        with pytest.raises(AttributeError):
            plan.critical_path = 0

    def test_plan_rejects_mismatched_detour_config(self):
        cache = StageCache()
        fe, machine = _contended_instance(cache)
        plan = machine.plan(3, dag=fe.dag)
        with pytest.raises(ValueError, match="max_detour"):
            BraidSimulator(
                policy=POLICIES[6],
                plan=plan,
                config=BraidSimConfig(max_detour=2),
            )

    def test_plan_rejects_mismatched_mesh_shape(self):
        # A mesh of another shape would take the plan's link ids and
        # report an impossible utilization instead of failing.
        cache = StageCache()
        fe, machine = _contended_instance(cache)
        plan = machine.plan(3, dag=fe.dag)
        for rows, cols in (
            (plan.rows + 1, plan.cols),
            (plan.rows, plan.cols - 1),
        ):
            with pytest.raises(PlanMismatchError, match="mesh"):
                BraidSimulator(
                    policy=POLICIES[2],
                    plan=plan,
                    mesh=BraidMesh(rows, cols),
                )
        mesh = BraidMesh(plan.rows, plan.cols)
        result = BraidSimulator(policy=POLICIES[2], plan=plan, mesh=mesh).run()
        assert result == simulate_plan(plan, 2)


class TestPlanCallerMesh:
    """A plan run on the caller's mesh claims and releases every braid
    there, whatever the policy family."""

    @pytest.fixture(scope="class")
    def plan(self):
        fe, machine = _contended_instance(StageCache())
        return machine.plan(3, dag=fe.dag)

    @pytest.mark.parametrize("policy", range(9))
    def test_plan_run_drains_callers_mesh(self, plan, policy):
        mesh = BraidMesh(plan.rows, plan.cols)
        first = BraidSimulator(
            policy=POLICIES[policy], plan=plan, mesh=mesh
        ).run()
        assert first == simulate_plan(plan, policy)
        # Every claim was released on the caller's mesh, not a copy.
        assert mesh.epoch > 0
        assert mesh.busy_links() == 0
        assert mesh.occupied_mask == 0
        # A drained mesh is as good as a fresh one for the next run.
        again = BraidSimulator(
            policy=POLICIES[policy], plan=plan, mesh=mesh
        ).run()
        assert again == first
        assert mesh.busy_links() == 0


class TestPlanMemo:
    def test_simulate_braids_shares_one_build(self):
        reset_plan_memo()
        qubits = ["a", "b", "c", "d"]
        placement = naive_layout(qubits, GridShape(2, 2))
        c = Circuit(qubits=qubits)
        for i in range(3):
            c.apply("CNOT", qubits[i], qubits[i + 1])
        for policy in range(7):
            simulate_braids(c, placement, BraidMesh(2, 2), policy, 3)
        stats = plan_memo_stats()
        assert stats["builds"] == 1
        assert stats["hits"] == 6
        # A different distance is a different plan.
        simulate_braids(c, placement, BraidMesh(2, 2), 6, 5)
        assert plan_memo_stats()["builds"] == 2

    def test_distinct_placements_do_not_alias(self):
        reset_plan_memo()
        qubits = ["a", "b", "c", "d"]
        c = Circuit(qubits=qubits)
        c.apply("CNOT", "a", "b")
        p1 = naive_layout(qubits, GridShape(2, 2))
        p2 = naive_layout(list(reversed(qubits)), GridShape(2, 2))
        r1 = simulate_braids(c, p1, BraidMesh(2, 2), 6, 3)
        r2 = simulate_braids(c, p2, BraidMesh(2, 2), 6, 3)
        assert plan_memo_stats()["builds"] == 2
        ref1 = simulate_braids_reference(c, p1, BraidMesh(2, 2), 6, 3)
        ref2 = simulate_braids_reference(c, p2, BraidMesh(2, 2), 6, 3)
        assert (r1, r2) == (ref1, ref2)

    def test_machine_plan_memoizes_per_distance(self):
        reset_plan_memo()
        cache = StageCache()
        fe, machine = _contended_instance(cache)
        plan_a = machine.plan(3, dag=fe.dag)
        plan_b = machine.plan(3, dag=fe.dag)
        plan_c = machine.plan(5, dag=fe.dag)
        assert plan_a is plan_b
        assert plan_c is not plan_a
        stats = plan_memo_stats()
        assert stats["builds"] == 2 and stats["hits"] == 1

    def test_reset_clears_counters_and_entries(self):
        reset_plan_memo()
        stats = plan_memo_stats()
        assert stats["builds"] == 0
        assert stats["hits"] == 0
        assert stats["plans"] == 0
        assert stats["capacity"] >= 8  # a Fig. 6 sweep's working set

    def test_memo_is_lru_bounded(self):
        from repro.network import plan as plan_module

        reset_plan_memo()
        qubits = ["a", "b"]
        placement = naive_layout(qubits, GridShape(1, 2))
        c = Circuit(qubits=qubits)
        c.apply("CNOT", "a", "b")
        for distance in range(1, plan_module.PLAN_MEMO_CAPACITY + 4):
            braid_plan(c, placement, BraidMesh(1, 2), distance=distance)
        stats = plan_memo_stats()
        assert stats["plans"] == plan_module.PLAN_MEMO_CAPACITY
        assert stats["builds"] == plan_module.PLAN_MEMO_CAPACITY + 3

    def test_mutating_a_planned_circuit_fails_loudly(self):
        reset_plan_memo()
        qubits = ["a", "b", "c"]
        placement = naive_layout(qubits, GridShape(1, 3))
        c = Circuit(qubits=qubits)
        c.apply("CNOT", "a", "b")
        first = simulate_braids(c, placement, BraidMesh(1, 3), 6, 3)
        assert first.operations == 1
        c.apply("CNOT", "b", "c")
        with pytest.raises(ValueError, match="changed length"):
            simulate_braids(c, placement, BraidMesh(1, 3), 6, 3)

    def test_explicit_plan_with_wrong_distance_rejected(self):
        cache = StageCache()
        fe, machine = _contended_instance(cache)
        plan = machine.plan(3, dag=fe.dag)
        with pytest.raises(ValueError, match="distance"):
            machine.simulate(6, 9, plan=plan)
        with pytest.raises(ValueError, match="distance"):
            BraidSimulator(policy=POLICIES[6], distance=9, plan=plan)
