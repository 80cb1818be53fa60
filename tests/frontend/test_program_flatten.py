"""Tests for hierarchical programs and the inlining-controlled flattener."""

import pytest

from repro.frontend import Call, Module, Program, flatten
from repro.qasm import CircuitDag


def two_level_program() -> Program:
    """main calls sub(a,b) twice on disjoint pairs; sub = H; CNOT."""
    program = Program("main")
    sub = program.module("sub", parameters=["p", "q"])
    sub.apply("H", "p")
    sub.apply("CNOT", "p", "q")
    main = program.module("main", locals_=["a", "b", "c", "d"])
    main.call("sub", "a", "b")
    main.call("sub", "c", "d")
    return program


class TestProgramValidation:
    def test_missing_entry(self):
        program = Program("main")
        with pytest.raises(ValueError, match="entry"):
            program.validate()

    def test_undefined_callee(self):
        program = Program("main")
        main = program.module("main", locals_=["a"])
        main.body.append(Call("ghost", ("a",)))
        with pytest.raises(ValueError, match="undefined"):
            program.validate()

    def test_arity_mismatch(self):
        program = Program("main")
        program.module("sub", parameters=["p", "q"])
        main = program.module("main", locals_=["a"])
        main.body.append(Call("sub", ("a",)))
        with pytest.raises(ValueError, match="expected 2"):
            program.validate()

    def test_recursion_rejected(self):
        program = Program("main")
        main = program.module("main", locals_=["a"])
        main.body.append(Call("main", ()))
        with pytest.raises(ValueError, match="recursive"):
            program.validate()

    def test_mutual_recursion_rejected(self):
        program = Program("main")
        a = program.module("main", locals_=["q"])
        b = program.module("other", parameters=["p"])
        a.body.append(Call("other", ("q",)))
        b.body.append(Call("main", ()))
        with pytest.raises(ValueError, match="recursive"):
            program.validate()

    def test_undeclared_operand_rejected(self):
        module = Module("m", parameters=["a"])
        with pytest.raises(ValueError, match="undeclared"):
            module.apply("H", "zz")

    def test_duplicate_module_rejected(self):
        program = Program()
        program.module("m")
        with pytest.raises(ValueError, match="duplicate"):
            program.module("m")

    def test_param_local_overlap_rejected(self):
        with pytest.raises(ValueError, match="both"):
            Module("m", parameters=["a"], locals_=["a"])

    def test_call_depth(self):
        program = two_level_program()
        assert program.call_depth() == 1

    def test_call_depth_leaf_only(self):
        program = Program("main")
        program.module("main", locals_=["a"])
        assert program.call_depth() == 0


class TestFlattenFull:
    def test_operation_count(self):
        circuit = flatten(two_level_program())
        assert len(circuit) == 4  # 2 calls x (H + CNOT)

    def test_argument_binding(self):
        circuit = flatten(two_level_program())
        assert circuit[0].qubits == ("a",)
        assert circuit[1].qubits == ("a", "b")
        assert circuit[2].qubits == ("c",)
        assert circuit[3].qubits == ("c", "d")

    def test_full_inline_has_no_fences(self):
        assert flatten(two_level_program()).fences == []

    def test_full_inline_parallelism(self):
        # The two sub calls are independent -> depth 2, 4 ops, factor 2.
        dag = CircuitDag(flatten(two_level_program()))
        assert dag.critical_path_length == 2
        assert dag.parallelism_factor == pytest.approx(2.0)

    def test_locals_uniquified_per_call(self):
        program = Program("main")
        sub = program.module("sub", parameters=["p"], locals_=["scratch"])
        sub.apply("CNOT", "p", "scratch")
        main = program.module("main", locals_=["a", "b"])
        main.call("sub", "a")
        main.call("sub", "b")
        circuit = flatten(program)
        scratch_names = {op.qubits[1] for op in circuit}
        assert len(scratch_names) == 2  # fresh local per invocation

    def test_fresh_names_skip_every_declared_entry_name(self):
        # The entry holds the names sub's first two locals would get, so
        # the two calls' locals take the next free counter values.
        program = Program("main")
        sub = program.module("sub", parameters=["p"], locals_=["t"])
        sub.apply("CNOT", "p", "t")
        main = program.module("main", locals_=["a", "sub.t.0", "sub.t.1"])
        main.call("sub", "a")
        main.call("sub", "a")
        circuit = flatten(program)
        assert circuit.qubits == ["a", "sub.t.0", "sub.t.1", "sub.t.2", "sub.t.3"]
        assert [op.qubits for op in circuit] == [("a", "sub.t.2"), ("a", "sub.t.3")]

    def test_entry_parameter_named_like_a_fresh_local(self):
        program = Program("main")
        sub = program.module("sub", parameters=["p"], locals_=["t"])
        sub.apply("CNOT", "p", "t")
        main = program.module("main", parameters=["sub.t.0"], locals_=["a"])
        main.call("sub", "a")
        main.apply("H", "sub.t.0")
        circuit = flatten(program)
        assert circuit.qubits == ["sub.t.0", "a", "sub.t.1"]
        assert CircuitDag(circuit).critical_path_length == 1

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="inline_depth"):
            flatten(two_level_program(), inline_depth=-1)


class TestFlattenFenced:
    def test_zero_depth_adds_fences(self):
        circuit = flatten(two_level_program(), inline_depth=0)
        assert len(circuit.fences) == 4  # pre+post per call

    def test_fences_serialize_independent_calls(self):
        program = two_level_program()
        inlined = CircuitDag(flatten(program))
        fenced = CircuitDag(flatten(program, inline_depth=0))
        # Fencing the opaque calls cannot increase parallelism.
        assert fenced.parallelism_factor <= inlined.parallelism_factor

    def test_inlining_gradient_on_overlapping_chain(self):
        """Fully inlining a chain of overlapping calls raises parallelism.

        This mirrors the paper's IM semi- vs fully-inlined variants
        (Section 7.3): neighboring Trotter terms share a qubit, so opaque
        call boundaries serialize work that full inlining overlaps.
        """
        program = Program("main")
        sub = program.module("sub", parameters=["p", "q"])
        sub.apply("H", "p")
        sub.apply("H", "q")
        main = program.module("main", locals_=["a", "b", "c", "d"])
        main.call("sub", "a", "b")
        main.call("sub", "b", "c")
        main.call("sub", "c", "d")

        fenced = CircuitDag(flatten(program, inline_depth=0))
        inlined = CircuitDag(flatten(program, inline_depth=1))
        assert fenced.parallelism_factor < inlined.parallelism_factor
        assert inlined.parallelism_factor == pytest.approx(3.0)
        assert fenced.parallelism_factor == pytest.approx(2.0)

    def test_fenced_flatten_same_ops(self):
        program = two_level_program()
        assert len(flatten(program, inline_depth=0)) == len(flatten(program))
