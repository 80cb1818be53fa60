"""Shared strategies for the qasm test package.

``circuits`` is also imported by the frontend schedule tests, and
``clifford_t_circuits`` by the Multi-SIMD differential tests, so they
live here rather than in any one test module.
"""

from hypothesis import strategies as st

from repro.qasm import Circuit

SINGLE_QUBIT_GATES = ["H", "X", "Y", "Z", "S", "SDG", "T", "TDG", "PREPZ", "MEASZ"]
TWO_QUBIT_GATES = ["CNOT", "CZ", "SWAP"]


@st.composite
def circuits(draw) -> Circuit:
    """Random well-formed circuits over a small qubit pool."""
    num_qubits = draw(st.integers(min_value=1, max_value=6))
    qubits = [f"q{i}" for i in range(num_qubits)]
    circuit = Circuit("random", qubits=qubits)
    num_ops = draw(st.integers(min_value=0, max_value=30))
    for _ in range(num_ops):
        if num_qubits >= 2 and draw(st.booleans()):
            gate = draw(st.sampled_from(TWO_QUBIT_GATES))
            pair = draw(st.permutations(qubits))[:2]
            circuit.apply(gate, *pair)
        elif draw(st.integers(0, 9)) == 0:
            angle = draw(
                st.floats(
                    min_value=-10,
                    max_value=10,
                    allow_nan=False,
                    allow_infinity=False,
                )
            )
            circuit.apply("RZ", draw(st.sampled_from(qubits)), param=angle)
        else:
            gate = draw(st.sampled_from(SINGLE_QUBIT_GATES))
            circuit.apply(gate, draw(st.sampled_from(qubits)))
    return circuit


@st.composite
def clifford_t_circuits(draw) -> Circuit:
    """Small random Clifford+T circuits, some with fences."""
    num_qubits = draw(st.integers(1, 7))
    qubits = [f"q{i}" for i in range(num_qubits)]
    circuit = Circuit("random", qubits=qubits)
    for _ in range(draw(st.integers(0, 40))):
        roll = draw(st.integers(0, 19))
        if roll == 0:
            circuit.add_fence(
                draw(st.lists(st.sampled_from(qubits), max_size=3)) or None
            )
        elif num_qubits >= 2 and roll < 9:
            pair = draw(st.permutations(qubits))[:2]
            circuit.apply(draw(st.sampled_from(TWO_QUBIT_GATES)), *pair)
        else:
            circuit.apply(
                draw(st.sampled_from(SINGLE_QUBIT_GATES)),
                draw(st.sampled_from(qubits)),
            )
    return circuit
