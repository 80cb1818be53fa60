"""Ablation: which braid-policy ingredient buys what (Section 6.3).

The paper evaluates criticality, length, and braid type individually
(Policies 3-5) before combining them (Policy 6).  This ablation
additionally isolates the layout optimization (Policy 2 vs Policy 1)
and checks that interaction-aware placement reduces weighted
communication distance on every application.
"""

import pytest

from repro.apps import build_circuit
from repro.arch import build_tiled_machine
from repro.frontend import decompose_circuit
from repro.network import simulate_plan
from repro.partition import (
    circuit_layout,
    interaction_graph_from_circuit,
    naive_layout,
    optimized_layout,
    weighted_manhattan_cost,
)

DISTANCE = 5


@pytest.fixture(scope="module")
def im_circuit(fig6_sim_sizes):
    return decompose_circuit(build_circuit("im", fig6_sim_sizes["im"]))


def test_ablation_layout_reduces_distance(benchmark):
    def run():
        rows = []
        for app, size in (("gse", 4), ("sq", 3), ("im", 12)):
            circuit = decompose_circuit(build_circuit(app, size))
            graph = interaction_graph_from_circuit(circuit)
            opt = optimized_layout(graph)
            naive = naive_layout(circuit.qubits, opt.grid)
            rows.append(
                (
                    app,
                    weighted_manhattan_cost(graph, naive),
                    weighted_manhattan_cost(graph, opt),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nABLATION -- interaction-aware layout (weighted Manhattan cost)")
    print(f"{'app':<6} {'naive':>12} {'optimized':>12} {'reduction':>10}")
    for app, naive_cost, opt_cost in rows:
        assert opt_cost <= naive_cost, f"{app}: layout must not hurt"
        reduction = 1 - opt_cost / max(naive_cost, 1e-12)
        print(f"{app:<6} {naive_cost:>12.0f} {opt_cost:>12.0f} "
              f"{reduction * 100:>9.1f}%")


def test_ablation_interleaving_is_the_big_lever(im_circuit, benchmark):
    """Policy 1 (interleaving) vs Policy 0 captures most of the gain for
    parallel apps; remaining policies refine it."""

    def run():
        naive = build_tiled_machine(
            im_circuit, circuit_layout(im_circuit, optimize=False)
        ).plan(DISTANCE)
        p0 = simulate_plan(naive, 0)
        p1 = simulate_plan(naive, 1)
        optimized = build_tiled_machine(
            im_circuit, circuit_layout(im_circuit)
        ).plan(DISTANCE)
        p6 = simulate_plan(optimized, 6)
        return p0, p1, p6

    p0, p1, p6 = benchmark.pedantic(run, rounds=1, iterations=1)
    r0 = p0.schedule_to_critical_ratio
    r1 = p1.schedule_to_critical_ratio
    r6 = p6.schedule_to_critical_ratio
    assert r1 < r0, "interleaving must improve on program order"
    assert r6 <= r1 * 1.05, "full policy must not regress interleaving"
    print("\nABLATION -- policy ingredients on IM")
    print(f"policy 0 (program order):     {r0:6.2f}x critical path")
    print(f"policy 1 (+interleave):       {r1:6.2f}x critical path")
    print(f"policy 6 (+layout/type/crit): {r6:6.2f}x critical path")


def test_ablation_factory_count(im_circuit, benchmark):
    """Distributed factories (Fig 3b) vs a single corner factory."""

    def run():
        placement = circuit_layout(im_circuit)
        few = build_tiled_machine(im_circuit, placement, factories=1)
        many = build_tiled_machine(im_circuit, placement, factories=8)
        return (
            simulate_plan(few.plan(DISTANCE), 6),
            simulate_plan(many.plan(DISTANCE), 6),
        )

    starved, supplied = benchmark.pedantic(run, rounds=1, iterations=1)
    assert supplied.schedule_length <= starved.schedule_length, (
        "distributing magic-state factories must not slow the schedule"
    )
    print("\nABLATION -- factory distribution on IM")
    print(f"1 factory:  schedule {starved.schedule_length} cycles")
    print(f"8 factories: schedule {supplied.schedule_length} cycles")
