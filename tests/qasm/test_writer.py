"""Round-trip tests for QASM serialization, including property tests."""

import pytest
from hypothesis import given, settings

from repro.qasm import Circuit, parse_qasm
from repro.qasm.writer import write_flat_qasm, write_openqasm2

from .conftest import circuits


class TestFlatRoundTrip:
    @given(circuits())
    @settings(max_examples=100)
    def test_round_trip_exact(self, circuit):
        parsed = parse_qasm(write_flat_qasm(circuit))
        assert parsed.qubits == circuit.qubits
        assert len(parsed) == len(circuit)
        for original, round_tripped in zip(circuit, parsed):
            assert round_tripped.gate == original.gate
            assert round_tripped.qubits == original.qubits
            if original.param is None:
                assert round_tripped.param is None
            else:
                assert round_tripped.param == pytest.approx(original.param)

    def test_header_comment_contains_name(self):
        c = Circuit("my_app")
        assert "# my_app" in write_flat_qasm(c)

    def test_empty_circuit(self):
        parsed = parse_qasm(write_flat_qasm(Circuit("empty")))
        assert len(parsed) == 0
        assert parsed.num_qubits == 0


class TestOpenQasmWriter:
    def test_round_trip_gate_sequence(self):
        c = Circuit("t")
        c.apply("H", "alpha")
        c.apply("CNOT", "alpha", "beta")
        c.apply("T", "beta")
        c.apply("MEASZ", "alpha")
        parsed = parse_qasm(write_openqasm2(c))
        assert [op.gate for op in parsed] == ["H", "CNOT", "T", "MEASZ"]

    def test_measx_lowered_to_h_then_measure(self):
        c = Circuit("t")
        c.apply("MEASX", "a")
        parsed = parse_qasm(write_openqasm2(c))
        assert [op.gate for op in parsed] == ["H", "MEASZ"]

    def test_prepx_lowered_to_reset_then_h(self):
        c = Circuit("t")
        c.apply("PREPX", "a")
        parsed = parse_qasm(write_openqasm2(c))
        assert [op.gate for op in parsed] == ["PREPZ", "H"]

    def test_original_names_recorded(self):
        c = Circuit("t")
        c.apply("H", "data_qubit")
        text = write_openqasm2(c)
        assert "q[0] was data_qubit" in text

    @given(circuits())
    @settings(max_examples=50)
    def test_openqasm_output_always_reparses(self, circuit):
        parsed = parse_qasm(write_openqasm2(circuit))
        # MeasX/PrepX expand, so op count may grow but never shrink.
        assert len(parsed) >= len(circuit)
