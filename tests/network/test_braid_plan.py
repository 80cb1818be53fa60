"""Shared braid simulation plans: golden equivalence, immutability, builds.

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
* every build compiles against its own placement (the ``braid_plan``
  stage is the one plan memo; direct builds share nothing but routes).
"""

import pytest

from repro.analysis.diagnostics import PlanMismatchError
from repro.arch import build_tiled_machine
from repro.network import (
    BraidMesh,
    BraidSimConfig,
    BraidSimulator,
    plan_memo_stats,
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
    machine = build_tiled_machine(
        fe.circuit, compute_layout(cache, "sq", 2, None, True)
    )
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
            plan.local_cycles,
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

    @pytest.mark.parametrize("policy", (0, 5, 7, 8))
    def test_second_run_repeats_the_first(self, plan, policy):
        # A simulator's run state lives in run(), so one simulator can
        # run again and starts fresh.
        mesh = BraidMesh(plan.rows, plan.cols)
        sim = BraidSimulator(plan=plan, policy=POLICIES[policy], mesh=mesh)
        first = sim.run()
        assert mesh.busy_links() == 0
        assert mesh.occupied_mask == 0
        second = sim.run()
        assert mesh.busy_links() == 0
        assert mesh.occupied_mask == 0
        assert second == first == simulate_plan(plan, policy)


class TestCallerClaims:
    """Links a caller claimed before a run stay claimed through it."""

    @pytest.fixture(scope="class")
    def plan(self):
        fe, machine = _contended_instance(StageCache())
        return machine.plan(3, dag=fe.dag)

    @pytest.mark.parametrize("policy", (1, 5, 8))
    def test_links_claimed_before_the_run_stay_claimed(self, plan, policy):
        # A link the caller holds blocks routes for the whole run, as in
        # the seed loop, and is still the caller's afterwards.
        meshes = [BraidMesh(plan.rows, plan.cols) for _ in range(2)]
        for mesh in meshes:
            mesh.claim([(0, 1), (1, 1)], owner="caller")
        flat = BraidSimulator(
            policy=POLICIES[policy], plan=plan, mesh=meshes[0]
        ).run()
        seed = simulate_braids_reference(
            plan.circuit, plan.placement, meshes[1], policy, plan.distance,
            code=plan.code, factory_routers=plan.factory_routers,
            dag=plan.dag,
        )
        assert flat == seed
        assert flat != simulate_plan(plan, policy)
        assert meshes[0].busy_links() == 1
        assert meshes[0].release("caller") == 1
        assert meshes[0].occupied_mask == 0


class TestPlanMemo:
    def test_distinct_placements_do_not_alias(self):
        builds = plan_memo_stats()["builds"]
        qubits = ["a", "b", "c", "d"]
        c = Circuit(qubits=qubits)
        c.apply("CNOT", "a", "b")
        p1 = naive_layout(qubits, GridShape(2, 2))
        p2 = naive_layout(list(reversed(qubits)), GridShape(2, 2))
        r1 = simulate_braids(c, p1, BraidMesh(2, 2), 6, 3)
        r2 = simulate_braids(c, p2, BraidMesh(2, 2), 6, 3)
        assert plan_memo_stats()["builds"] - builds == 2
        ref1 = simulate_braids_reference(c, p1, BraidMesh(2, 2), 6, 3)
        ref2 = simulate_braids_reference(c, p2, BraidMesh(2, 2), 6, 3)
        assert (r1, r2) == (ref1, ref2)

    def test_machine_plan_builds_on_every_call(self):
        cache = StageCache()
        fe, machine = _contended_instance(cache)
        builds = plan_memo_stats()["builds"]
        first = machine.plan(3, dag=fe.dag)
        second = machine.plan(3, dag=fe.dag)
        assert plan_memo_stats()["builds"] - builds == 2
        assert first is not second
        assert simulate_plan(first, 6) == simulate_plan(second, 6)

    def test_one_explicit_plan_serves_every_policy(self):
        cache = StageCache()
        fe, machine = _contended_instance(cache)
        plan = machine.plan(3, dag=fe.dag)
        builds = plan_memo_stats()["builds"]
        shared = [simulate_plan(plan, policy) for policy in range(7)]
        assert plan_memo_stats()["builds"] == builds
        fresh = [
            simulate_plan(machine.plan(3, dag=fe.dag), policy)
            for policy in range(7)
        ]
        assert plan_memo_stats()["builds"] - builds == 7
        assert shared == fresh
