"""EPR look-ahead window tuning (the Section 8.1 experiment).

Shows the just-in-time distribution tradeoff: small windows starve
teleports (stalls), large windows flood the machine with idle EPR
pairs.  Prints the sweep and the recommended window.

Run:  python examples/epr_window_tuning.py [app] [size]
      (defaults: sq 3)
"""

import sys

from repro.apps import build_circuit
from repro.arch import build_multisimd_machine
from repro.frontend import decompose_circuit
from repro.partition import circuit_layout

WINDOWS = (1, 2, 4, 8, 16, 32, 64, 256, 1024, 10**9)


def main(app: str = "sq", size: int = 3, distance: int = 5) -> None:
    circuit = decompose_circuit(build_circuit(app, size))
    machine = build_multisimd_machine(
        circuit, circuit_layout(circuit), regions=4
    )
    schedule = machine.schedule()
    print(
        f"{app}[{size}]: {len(circuit)} ops, logical schedule "
        f"{schedule.length} cycles"
    )
    header = (
        f"{'window':>10} {'peak EPR pairs':>15} {'EPR qubits':>11} "
        f"{'stalls':>8} {'overhead':>9}"
    )
    print(header)
    print("-" * len(header))
    best = None
    for window in WINDOWS:
        r = machine.epr_pipeline(schedule, distance, window=window)
        label = "inf" if window == 10**9 else str(window)
        print(
            f"{label:>10} {r.peak_epr_pairs:>15} {r.peak_epr_qubits:>11} "
            f"{r.stall_cycles:>8.0f} {r.latency_overhead:>8.1%}"
        )
        if r.latency_overhead <= 0.04 and best is None:
            best = (window, r)
    if best is not None:
        window, r = best
        eager = machine.epr_pipeline(schedule, distance, window=10**9)
        savings = eager.peak_epr_pairs / max(r.peak_epr_pairs, 1)
        print(
            f"\nrecommended window: {window} logical cycles "
            f"({savings:.0f}x EPR qubit savings at "
            f"{r.latency_overhead:.1%} latency cost)"
        )


if __name__ == "__main__":
    app = sys.argv[1] if len(sys.argv) > 1 else "sq"
    size = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    main(app, size)
