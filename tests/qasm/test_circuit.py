"""Unit tests for the circuit container and operations."""

import pytest

from repro.qasm import Circuit, Operation


def bell_pair() -> Circuit:
    c = Circuit("bell")
    c.apply("PREPZ", "a")
    c.apply("PREPZ", "b")
    c.apply("H", "a")
    c.apply("CNOT", "a", "b")
    return c


class TestOperation:
    def test_canonicalizes_gate_name(self):
        op = Operation("cx", ("a", "b"))
        assert op.gate == "CNOT"

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError, match="expects 2 qubits"):
            Operation("CNOT", ("a",))

    def test_rejects_duplicate_operands(self):
        with pytest.raises(ValueError, match="distinct"):
            Operation("CNOT", ("a", "a"))

    def test_rejects_missing_parameter(self):
        with pytest.raises(ValueError, match="parameter"):
            Operation("RZ", ("a",))

    def test_parametric_str(self):
        op = Operation("RZ", ("a",), param=0.5)
        assert str(op) == "RZ(0.5) a"

    def test_renamed(self):
        op = Operation("CNOT", ("a", "b")).renamed({"a": "x"})
        assert op.qubits == ("x", "b")

    def test_magic_state_property(self):
        assert Operation("T", ("a",)).consumes_magic_state
        assert not Operation("H", ("a",)).consumes_magic_state

    def test_frozen(self):
        op = Operation("H", ("a",))
        with pytest.raises(AttributeError):
            op.gate = "X"


class TestCircuitConstruction:
    def test_implicit_qubit_registration(self):
        c = Circuit()
        c.apply("CNOT", "a", "b")
        assert c.qubits == ["a", "b"]

    def test_explicit_registration_preserves_order(self):
        c = Circuit(qubits=["z", "y", "x"])
        assert c.qubits == ["z", "y", "x"]

    def test_add_qubit_idempotent(self):
        c = Circuit()
        c.add_qubit("a")
        c.add_qubit("a")
        assert c.num_qubits == 1

    def test_add_register(self):
        c = Circuit()
        names = c.add_register("q", 3)
        assert names == ["q0", "q1", "q2"]
        assert c.num_qubits == 3

    def test_add_register_rejects_empty(self):
        with pytest.raises(ValueError):
            Circuit().add_register("q", 0)

    @pytest.mark.parametrize("bad", ["", "a b", "a\tb"])
    def test_rejects_invalid_names(self, bad):
        with pytest.raises(ValueError):
            Circuit().add_qubit(bad)

    def test_len_and_iteration(self):
        c = bell_pair()
        assert len(c) == 4
        assert [op.gate for op in c] == ["PREPZ", "PREPZ", "H", "CNOT"]

    def test_getitem(self):
        assert bell_pair()[3].gate == "CNOT"


class TestCircuitInspection:
    def test_gate_counts(self):
        counts = bell_pair().gate_counts()
        assert counts["PREPZ"] == 2
        assert counts["CNOT"] == 1

    def test_t_count(self):
        c = Circuit()
        c.apply("T", "a")
        c.apply("TDG", "b")
        c.apply("H", "a")
        assert c.t_count == 2

    def test_two_qubit_count(self):
        assert bell_pair().two_qubit_count == 1

    def test_has_composites(self):
        c = Circuit()
        c.apply("TOFFOLI", "a", "b", "c")
        assert c.has_composites()
        assert not bell_pair().has_composites()

    def test_interaction_pairs_symmetric_and_weighted(self):
        c = Circuit()
        c.apply("CNOT", "a", "b")
        c.apply("CNOT", "b", "a")
        c.apply("CZ", "a", "c")
        pairs = c.interaction_pairs()
        assert pairs[("a", "b")] == 2
        assert pairs[("a", "c")] == 1

    def test_interaction_pairs_three_qubit(self):
        c = Circuit()
        c.apply("TOFFOLI", "a", "b", "c")
        pairs = c.interaction_pairs()
        assert pairs[("a", "b")] == 1
        assert pairs[("a", "c")] == 1
        assert pairs[("b", "c")] == 1


class TestCircuitTransforms:
    def test_copy_is_independent(self):
        c = bell_pair()
        d = c.copy()
        d.apply("X", "a")
        assert len(c) == 4
        assert len(d) == 5

    def test_renamed(self):
        c = bell_pair().renamed({"a": "q0", "b": "q1"})
        assert c.qubits == ["q0", "q1"]
        assert c[3].qubits == ("q0", "q1")

    def test_subcircuit(self):
        sub = bell_pair().subcircuit([2, 3])
        assert [op.gate for op in sub] == ["H", "CNOT"]

    def test_operations_returns_copy(self):
        c = bell_pair()
        ops = c.operations
        ops.clear()
        assert len(c) == 4


class TestBulkConstructor:
    """The trusted bulk constructor that lowering builds circuits with."""

    def test_from_operations_adopts_in_order(self):
        ops = [Operation("H", ("a",)), Operation("CNOT", ("a", "b"))]
        c = Circuit.from_operations(
            "built", ["a", "b"], ops, [(1, ("a",))]
        )
        assert c.operations == ops
        assert c.fences == [(1, ("a",))]
        assert c.qubits == ["a", "b"]
