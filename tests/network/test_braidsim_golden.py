"""Golden equivalence: optimized braid simulator vs the seed event loop.

The optimized core (flat event ints, mesh bitmasks, cached routes,
epoch early-outs) must be *bit-identical* to the pre-optimization
simulator preserved in ``repro.network._braidsim_reference`` -- same
schedule lengths, same braid/adaptive/drop counters, same utilization
floats.  These tests sweep every policy the seed loop runs (0-6 and the
Policy 8 scoreboard) over small application instances and over
synthetic high-contention circuits (which exercise adaptive routing and
the drop/re-inject path); the full Figure 6 grid is verified by
``python -m repro bench --reference`` (the CI perf job).

The scheduler-family policies (7 reservation-table, 8 scoreboard) are
also pinned by a committed golden JSON (``golden_policy_sched.json``)
recording their results on a small fixed grid, which
``TestSchedulerFamilyGolden`` recomputes and compares field by field.
Policy 7 has no seed loop to compare against, so the pin is part of its
contract; refactors that change its scheduling decisions must update
the golden file deliberately.
"""

import json
from pathlib import Path

import pytest

from repro.arch import build_tiled_machine
from repro.network import (
    BraidMesh,
    BraidSimConfig,
    simulate_braids,
    simulate_braids_reference,
)
from repro.network.braidsim import simulate_plan
from repro.network.plan import BraidPlan
from repro.partition import GridShape, naive_layout
from repro.qasm import Circuit
from repro.runner import StageCache
from repro.runner.stages import POLICIES, compute_frontend, compute_layout

GOLDEN_PATH = Path(__file__).parent / "golden_policy_sched.json"

SEED_POLICIES = (0, 1, 2, 3, 4, 5, 6, 8)
"""Every policy the seed loop runs (all but the reservation table)."""


def assert_equivalent(circuit, placement, rows, cols, policy, distance,
                      factories=(), config=None, dag=None):
    optimized = simulate_braids(
        circuit, placement, BraidMesh(rows, cols), policy, distance,
        factory_routers=factories, config=config, dag=dag,
    )
    reference = simulate_braids_reference(
        circuit, placement, BraidMesh(rows, cols), policy, distance,
        factory_routers=factories, config=config, dag=dag,
    )
    assert optimized == reference
    return optimized


class TestSyntheticCircuits:
    """Hand-built circuits hitting contention, adaptivity, and drops."""

    @pytest.mark.parametrize("policy", SEED_POLICIES)
    def test_crossing_braids_tiny_mesh(self, policy):
        qubits = [f"q{i}" for i in range(4)]
        placement = naive_layout(qubits, GridShape(2, 2))
        c = Circuit(qubits=qubits)
        # All pairs interact: heavy crossing on a 2x2 mesh.
        for i in range(4):
            for j in range(i + 1, 4):
                c.apply("CNOT", f"q{i}", f"q{j}")
        result = assert_equivalent(c, placement, 2, 2, policy, 3)
        assert result.operations == 6

    @pytest.mark.parametrize("policy", SEED_POLICIES)
    def test_serializing_1x2_mesh_forces_drops(self, policy):
        qubits = ["q0", "q1"]
        placement = naive_layout(qubits, GridShape(1, 2))
        c = Circuit(qubits=qubits)
        for _ in range(6):
            c.apply("CNOT", "q0", "q1")
        config = BraidSimConfig(adaptive_timeout=1, drop_timeout=3)
        assert_equivalent(c, placement, 1, 2, policy, 4, config=config)

    @pytest.mark.parametrize("policy", (0, 1, 5, 6, 8))
    def test_t_gates_with_factories(self, policy):
        qubits = [f"q{i}" for i in range(6)]
        placement = naive_layout(qubits, GridShape(2, 3))
        factories = ((2, 0), (2, 3))
        c = Circuit(qubits=qubits)
        for i in range(6):
            c.apply("T", f"q{i}")
        for i in range(5):
            c.apply("CNOT", f"q{i}", f"q{i + 1}")
        c.apply("H", "q0")
        assert_equivalent(c, placement, 2, 3, policy, 3, factories=factories)


class TestApplicationInstances:
    """Small real instances through the staged pipeline's machines."""

    @pytest.fixture(scope="class")
    def cache(self):
        return StageCache()

    @pytest.mark.parametrize("policy", SEED_POLICIES)
    @pytest.mark.parametrize("app,size", [("sq", 2), ("gse", 3)])
    def test_policy_grid(self, cache, app, size, policy):
        fe = compute_frontend(cache, app, size, None)
        optimize = POLICIES[policy].optimized_layout
        machine = build_tiled_machine(
            fe.circuit, compute_layout(cache, app, size, None, optimize)
        )
        optimized = simulate_plan(machine.plan(3, dag=fe.dag), policy)
        mesh = BraidMesh(machine.grid.rows, machine.grid.cols)
        reference = simulate_braids_reference(
            machine.circuit, machine.placement, mesh, policy, 3,
            code=machine.code, factory_routers=machine.factory_routers,
            dag=fe.dag,
        )
        assert optimized == reference

    @pytest.mark.parametrize(
        "policy,distance",
        # p1/d5 hits adaptive routes, p6/d3 and p8/d3 drop
        [(1, 5), (6, 3), (8, 3)],
    )
    def test_contended_parallel_app(self, cache, policy, distance):
        """An Ising instance big enough to need adaptivity or drops."""
        fe = compute_frontend(cache, "im", 8, None)
        machine = build_tiled_machine(
            fe.circuit, compute_layout(cache, "im", 8, None, True)
        )
        optimized = simulate_plan(
            machine.plan(distance, dag=fe.dag), policy
        )
        mesh = BraidMesh(machine.grid.rows, machine.grid.cols)
        reference = simulate_braids_reference(
            machine.circuit, machine.placement, mesh, policy, distance,
            code=machine.code,
            factory_routers=machine.factory_routers,
            dag=fe.dag,
        )
        assert optimized == reference
        assert optimized.adaptive_routes + optimized.drops > 0, (
            "instance too small to exercise contention handling"
        )


class TestCloseFirstGoldenWithDrops:
    """Drop-heavy close-first sims stay bit-identical to the seed loop.

    Drops re-stamp arrivals, the subtlest transition of close-first
    ordering: FIFO order (Policy 5) and the combined rule (Policy 6)
    send a dropped op to the back, while the scoreboard (Policy 8)
    keeps its program-order place.  The rotating-stride scenario
    checks agreement with the seed loop; the fixed FIFO scenario pins
    a schedule length that only the re-stamp gives.
    """

    def _congested(self):
        qubits = [f"q{i}" for i in range(9)]
        placement = naive_layout(qubits, GridShape(3, 3))
        c = Circuit(qubits=qubits)
        # Rotating long-range strides on a 3x3 mesh: overlapping routes
        # hold links for d cycles and starve each other into drops.
        for r in range(5):
            for i in range(9):
                j = (i + 1 + (r % 7)) % 9
                if i != j:
                    c.apply("CNOT", f"q{i}", f"q{j}")
        return c, placement

    def test_policies_5_6_and_8_with_aggressive_drops(self):
        circuit, placement = self._congested()
        config = BraidSimConfig(adaptive_timeout=1, drop_timeout=2)
        for policy in (5, 6, 8):
            result = assert_equivalent(
                circuit, placement, 3, 3, policy, 9, config=config
            )
            assert result.drops > 0  # the scenario really drops

    # A fixed FIFO scenario whose schedule depends on the re-stamp: a
    # dropped op that kept its old arrival stamp would open ahead of
    # later arrivals and finish at cycle 122, not 121.
    _RESTAMP_PAIRS = (
        (4, 5), (1, 2), (0, 6), (2, 3), (0, 4), (5, 6), (1, 8), (4, 6),
        (6, 4), (2, 8), (6, 4), (6, 1), (7, 5), (0, 8), (4, 1), (1, 8),
        (5, 1), (8, 2), (5, 0), (3, 7), (6, 3), (6, 4), (3, 1), (2, 8),
        (5, 6), (3, 8), (3, 5), (3, 7), (6, 5), (3, 1),
    )

    def test_drop_restamps_fifo_arrival(self):
        qubits = [f"q{i}" for i in range(9)]
        placement = naive_layout(qubits, GridShape(3, 3))
        c = Circuit(qubits=qubits)
        for i, j in self._RESTAMP_PAIRS:
            c.apply("CNOT", f"q{i}", f"q{j}")
        config = BraidSimConfig(adaptive_timeout=1, drop_timeout=2)
        result = assert_equivalent(c, placement, 3, 3, 5, 3, config=config)
        assert (result.schedule_length, result.drops) == (121, 2)


class TestSchedulerFamilyGolden:
    """Policies 7/8 pinned against the committed golden JSON."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

    @pytest.fixture(scope="class")
    def cache(self):
        return StageCache()

    def _plan(self, cache, app, size):
        fe = compute_frontend(cache, app, size, None)
        machine = build_tiled_machine(
            fe.circuit, compute_layout(cache, app, size, None, True)
        )
        mesh = BraidMesh(machine.grid.rows, machine.grid.cols)
        return BraidPlan.build(
            machine.circuit, machine.placement, mesh, machine.code, 3,
            machine.factory_routers, dag=fe.dag,
        )

    @pytest.mark.parametrize("policy", (7, 8))
    @pytest.mark.parametrize(
        "app,size", [("sq", 2), ("gse", 3), ("im", 8)]
    )
    def test_pinned_results(self, golden, cache, app, size, policy):
        expected = golden[f"{app}[{size}]/d=3/p{policy}"]
        result = simulate_plan(self._plan(cache, app, size), policy)
        actual = {
            "schedule_length": result.schedule_length,
            "critical_path": result.critical_path,
            "operations": result.operations,
            "braids": result.braids,
            "adaptive_routes": result.adaptive_routes,
            "drops": result.drops,
            "mean_utilization": result.mean_utilization,
        }
        assert actual == expected

    def test_golden_covers_contention(self, golden):
        # The grid must keep exercising the scoreboard's drop and
        # adaptive paths, or the pin loses most of its power.
        assert any(
            entry["drops"] or entry["adaptive_routes"]
            for entry in golden.values()
        )
