"""``estimate_program`` against its oracle, the flatten -> lower -> estimate
chain: every registered app at its calibration, simulation and default
sizes, Hypothesis-generated programs, and no reference cycles."""

import dataclasses
import gc
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import APPLICATIONS
from repro.apps.scaling import CALIBRATION_SIZES, calibration_estimate
from repro.frontend import (
    Call,
    Program,
    decompose_circuit,
    estimate_circuit,
    estimate_program,
    flatten,
)
from repro.runner.backends import encode_record, make_record
from repro.runner.keys import StageKey


def chain_estimate(program: Program, name: str):
    """The oracle: flatten, lower, and estimate the circuit."""
    circuit = decompose_circuit(flatten(program))
    circuit.name = name
    return estimate_circuit(circuit)


def assert_same_estimate(new, old):
    assert new == old
    assert list(new.gate_histogram) == list(old.gate_histogram)


def calib_record(app: str, size: int, estimate) -> bytes:
    """The bytes the ``scaling_calib`` stage stores for an estimate."""
    key = StageKey.make("scaling_calib", app=app, size=size)
    return encode_record(
        make_record(key.describe(), dataclasses.asdict(estimate))
    )


CALIBRATION_CASES = [
    (app, size) for app, sizes in CALIBRATION_SIZES.items() for size in sizes
]
INSTANCE_CASES = sorted(
    {
        (spec.name, size)
        for spec in APPLICATIONS.values()
        for size in (spec.sim_size, spec.default_size)
    }
)


class TestRegisteredApps:
    @pytest.mark.parametrize("app,size", CALIBRATION_CASES)
    def test_calibration_instance(self, app, size):
        spec = APPLICATIONS[app]
        name = f"{app}[scaling:{size}]"
        new = calibration_estimate(app, size)
        old = chain_estimate(spec.scaling_program(size), name)
        assert_same_estimate(new, old)
        assert new.name == name
        assert calib_record(app, size, new) == calib_record(app, size, old)

    @pytest.mark.parametrize("app,size", INSTANCE_CASES)
    def test_simulated_and_default_instance(self, app, size):
        spec = APPLICATIONS[app]
        name = f"{app}[{size}]"
        assert_same_estimate(
            estimate_program(spec.build(size), name),
            chain_estimate(spec.build(size), name),
        )


# -- generated programs ----------------------------------------------------

ONE_QUBIT = ("H", "X", "S", "SDG", "T", "TDG", "PREPZ", "MEASZ")
TWO_QUBIT = ("CNOT", "CZ", "SWAP")
THREE_QUBIT = ("TOFFOLI", "FREDKIN")
ANGLES = st.one_of(
    st.just(0.0),
    st.integers(-16, 16).map(lambda k: k * math.pi / 4),
    st.floats(-10.0, 10.0, allow_nan=False),
)


@st.composite
def programs(draw):
    """Acyclic programs: module ``m{k}`` may call only ``m{j}``, j > k.

    Every module has parameters (except, possibly, the entry) and
    locals, and every call binds a permutation of the caller's names.
    """
    num_modules = draw(st.integers(1, 4))
    shapes = [
        (draw(st.integers(0 if k == 0 else 1, 4)), draw(st.integers(0, 3)))
        for k in range(num_modules)
    ]
    program = Program("m0")
    for k, (num_params, num_locals) in enumerate(shapes):
        module = program.module(
            f"m{k}",
            parameters=[f"p{i}" for i in range(num_params)],
            locals_=[f"l{i}" for i in range(num_locals)],
        )
        declared = module.parameters + module.locals_
        if not declared:
            continue
        for _ in range(draw(st.integers(0, 12))):
            order = draw(st.permutations(declared))
            choice = draw(st.integers(0, 4))
            if choice == 0 and k + 1 < num_modules:
                callee = draw(st.integers(k + 1, num_modules - 1))
                arity = shapes[callee][0]
                if arity <= len(order):
                    module.call(f"m{callee}", *order[:arity])
            elif choice == 1:
                module.apply("RZ", order[0], param=draw(ANGLES))
            elif choice == 2 and len(order) >= 2:
                module.apply(draw(st.sampled_from(TWO_QUBIT)), *order[:2])
            elif choice == 3 and len(order) >= 3:
                module.apply(draw(st.sampled_from(THREE_QUBIT)), *order[:3])
            else:
                module.apply(draw(st.sampled_from(ONE_QUBIT)), order[0])
    return program


class TestGeneratedPrograms:
    @settings(max_examples=150, deadline=None)
    @given(programs())
    def test_matches_chain(self, program):
        assert_same_estimate(
            estimate_program(program, "generated"),
            chain_estimate(program, "generated"),
        )

    def test_empty_program(self):
        program = Program("main")
        program.module("main", locals_=["a"])
        estimate = estimate_program(program, "empty")
        assert_same_estimate(estimate, chain_estimate(program, "empty"))
        assert estimate.total_operations == 0
        assert estimate.num_qubits == 1

    def test_counts_callee_locals_per_call(self):
        program = Program("main")
        sub = program.module("sub", parameters=["p"], locals_=["t", "u"])
        sub.apply("CNOT", "p", "t")
        main = program.module("main", parameters=["a"], locals_=["b"])
        main.call("sub", "a")
        main.call("sub", "b")
        assert estimate_program(program, "x").num_qubits == 2 + 2 * 2

    def test_validates_first(self):
        program = Program("main")
        main = program.module("main", locals_=["a"])
        main.body.append(Call("ghost", ("a",)))
        with pytest.raises(ValueError, match="undefined"):
            estimate_program(program, "bad")


class TestNoReferenceCycles:
    def test_one_estimate_leaves_nothing_for_the_collector(self):
        program = APPLICATIONS["sq"].scaling_program(3)
        estimate_program(program, "warm")
        gc.collect()
        gc.disable()
        try:
            estimate_program(program, "sq[scaling:3]")
            assert gc.collect() == 0
        finally:
            gc.enable()
