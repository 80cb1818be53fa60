"""Quickstart: compile a circuit and compare both surface codes.

Builds a small Ising-model instance, runs the full Figure 4 toolflow
(frontend -> mapping -> network simulation -> space-time estimate) as
one grid point of the staged pipeline, and reports which code wins at
this size.

Run:  python examples/quickstart.py
"""

from repro.runner import PointSpec, run_point


def main() -> None:
    # Policy 6 maps onto the interaction-aware layout; the intermediate
    # technology (pP = 1e-5) is the default.
    result = run_point(PointSpec("im", size=8, policy=6))

    logical = result.logical
    print("=== frontend estimate ===")
    print(f"circuit:            {logical.name}")
    print(f"logical qubits:     {logical.num_qubits}")
    print(f"logical operations: {logical.total_operations}")
    print(f"T count:            {logical.t_count}")
    print(f"parallelism factor: {logical.parallelism_factor:.2f}")
    print(f"target pL:          {logical.target_pl:.2e}")
    print(f"code distance:      {result.distance}")

    print("\n=== double-defect (tiled, braids) ===")
    braid = result.braid
    print(f"braid schedule:     {braid.schedule_length} cycles")
    print(f"critical path:      {braid.critical_path} cycles")
    print(f"schedule/CP ratio:  {braid.schedule_to_critical_ratio:.2f}")
    print(f"mesh utilization:   {braid.mean_utilization:.1%}")

    print("\n=== planar (Multi-SIMD, teleportation) ===")
    epr = result.epr
    print(f"EPR pairs:          {epr.total_pairs}")
    print(f"peak in flight:     {epr.peak_epr_pairs}")
    print(f"stall overhead:     {epr.latency_overhead:.1%}")

    print("\n=== space-time comparison ===")
    for estimate in (result.planar, result.double_defect):
        print(
            f"{estimate.code_name:>14}: {estimate.physical_qubits:.3e} qubits x "
            f"{estimate.seconds:.3e} s = {estimate.spacetime:.3e}"
        )
    print(f"\npreferred code at this size: {result.preferred_code}")


if __name__ == "__main__":
    main()
