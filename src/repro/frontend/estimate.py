"""Logical-level resource and parallelism estimation (Figure 4, frontend).

The frontend's estimates drive two backend decisions (Section 5.3):

* The **size of computation** (total logical operations K) sets the
  target logical error rate: pL = budget / K for a 50% overall success
  target.
* The **parallelism factor** guides the network optimization policy and
  the planar-vs-double-defect comparison.

Two functions produce the same :class:`LogicalEstimate`.
:func:`estimate_circuit` summarizes a lowered circuit; simulated
instances go this way, because the backend needs their circuits anyway.
:func:`estimate_program` summarizes a hierarchical program without
flattening or lowering it; the calibration instances of
:mod:`repro.apps.scaling`, which keep only their estimates, go this way.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from operator import add
from typing import NamedTuple, Optional

from ..qasm.circuit import Circuit, Operation
from ..qasm.dag import CircuitDag
from ..qasm.gates import GATE_SPECS, GateKind, gate_spec
from .decompose import DecomposeConfig, _lower
from .program import Call, Program

__all__ = [
    "LogicalEstimate",
    "estimate_circuit",
    "estimate_program",
    "target_logical_error_rate",
]

SUCCESS_TARGET = 0.5
"""Paper Section 2.2: "50% is a typical correctness target"."""


def target_logical_error_rate(
    total_operations: int, success_target: float = SUCCESS_TARGET
) -> float:
    """Per-operation logical error budget for a computation of K ops.

    An application executing K logical operations succeeds with
    probability ``(1 - pL)^K >= success_target`` when
    ``pL <= (1 - success_target) / K`` (first-order union bound, the
    paper's "errors must not exceed 0.5e-12 for 1e12 operations").
    """
    if total_operations < 1:
        raise ValueError(
            f"total_operations must be >= 1, got {total_operations}"
        )
    if not 0 < success_target < 1:
        raise ValueError(
            f"success_target must be in (0, 1), got {success_target}"
        )
    return (1.0 - success_target) / total_operations


@dataclasses.dataclass(frozen=True)
class LogicalEstimate:
    """Frontend summary of one application circuit.

    Attributes:
        name: Circuit name.
        num_qubits: Logical data qubits used by the program.
        total_operations: K, the size of computation (pre-QEC logical ops).
        t_count: Magic-state-consuming operations (T/Tdg).
        two_qubit_count: Operations requiring qubit-pair interaction.
        measurement_count: Readout operations.
        critical_path: Dependence-limited depth in logical cycles.
        parallelism_factor: Table 2's ideal concurrency (K / depth).
        gate_histogram: Mnemonic -> count.
        target_pl: Logical error budget per operation.
    """

    name: str
    num_qubits: int
    total_operations: int
    t_count: int
    two_qubit_count: int
    measurement_count: int
    critical_path: int
    parallelism_factor: float
    gate_histogram: dict[str, int]
    target_pl: float

    @property
    def computation_size(self) -> float:
        """1 / pL, the x-axis of Figures 7 and 8."""
        return 1.0 / self.target_pl

    @property
    def t_fraction(self) -> float:
        """Fraction of operations that consume a magic state."""
        if self.total_operations == 0:
            return 0.0
        return self.t_count / self.total_operations

    @property
    def communication_fraction(self) -> float:
        """Fraction of operations that require qubit-pair communication.

        Every 2-qubit gate is a braid (tiled) or teleport (Multi-SIMD),
        and every T consumes a magic state delivered over the network, so
        both count toward communication pressure.
        """
        if self.total_operations == 0:
            return 0.0
        return (self.two_qubit_count + self.t_count) / self.total_operations

    def summary_row(self) -> str:
        """One formatted row for Table 2-style reports."""
        return (
            f"{self.name:<16} {self.num_qubits:>7} {self.total_operations:>10} "
            f"{self.t_count:>8} {self.critical_path:>10} "
            f"{self.parallelism_factor:>11.1f}"
        )


def estimate_circuit(
    circuit: Circuit,
    dag: Optional[CircuitDag] = None,
    success_target: float = SUCCESS_TARGET,
) -> LogicalEstimate:
    """Compute the frontend estimate for a flat circuit.

    When a prebuilt ``dag`` is supplied its critical path is reused;
    otherwise one is built for it.
    """
    if dag is None:
        dag = CircuitDag(circuit)
    return _logical_estimate(
        circuit.name,
        circuit.num_qubits,
        Counter(op.gate for op in circuit),
        dag.critical_path_length,
        success_target,
    )


def estimate_program(program: Program, name: str) -> LogicalEstimate:
    """The estimate of ``program`` flattened and lowered, without either.

    Equal to ``estimate_circuit(decompose_circuit(flatten(program)))``
    on a circuit called ``name``, with the histogram keys in the same
    first-appearance order, so a stored estimate has the same bytes.
    (The one exception: an entry qubit named like a callee local that
    ``flatten`` generates, ``module.local.N``, which ``flatten``
    merges with that local and this function keeps apart.)
    Each reachable module is compiled once into statements over operand
    positions, together with its lowered histogram, which does not
    depend on the binding of a call.  Each composite ``(gate, param)``
    is lowered once, through the same expansion as
    :func:`~repro.frontend.decompose.decompose_circuit`, on placeholder
    operands, and kept as a transfer of unit-latency finish levels
    from its operands' inputs to their outputs.  One walk of the call
    tree then carries a finish level per qubit, with fresh slots for
    each call's callee locals as :func:`~repro.frontend.flatten.flatten`
    registers them: the slot count is the qubit count, and the highest
    level is the critical path.  Inline depth does not apply: the
    estimate is that of the fully inlined program, which has no fences.
    """
    program.validate()
    compiled: dict[str, _Compiled] = {}
    summaries: dict[tuple[str, Optional[float]], _Summary] = {}
    entry = program.modules[program.entry]
    statements, _, histogram = _compile(
        program, entry.name, compiled, summaries, DecomposeConfig()
    )
    levels = [0] * (len(entry.parameters) + len(entry.locals_))
    _walk(statements, list(range(len(levels))), levels)
    return _logical_estimate(
        name, len(levels), histogram, max(levels, default=0), SUCCESS_TARGET
    )


def _logical_estimate(
    name: str,
    num_qubits: int,
    histogram: dict[str, int],
    critical_path: int,
    success_target: float,
) -> LogicalEstimate:
    """Assemble an estimate from a lowered gate histogram and depth."""
    total = sum(histogram.values())
    # Gate arity/kind are per-mnemonic (Operation validates arity ==
    # spec.arity), so the counts fold out of the histogram with one
    # spec lookup per distinct gate instead of one per operation.
    t_count = 0
    two_qubit_count = 0
    measurement_count = 0
    for gate, count in histogram.items():
        spec = gate_spec(gate)
        if spec.consumes_magic_state:
            t_count += count
        if spec.arity == 2:
            two_qubit_count += count
        if spec.kind is GateKind.MEASUREMENT:
            measurement_count += count
    return LogicalEstimate(
        name=name,
        num_qubits=num_qubits,
        total_operations=total,
        t_count=t_count,
        two_qubit_count=two_qubit_count,
        measurement_count=measurement_count,
        critical_path=critical_path,
        parallelism_factor=total / max(critical_path, 1) if total else 0.0,
        gate_histogram=dict(histogram),
        target_pl=target_logical_error_rate(max(total, 1), success_target),
    )


# Compiled statements are ``(kind, x, y)`` triples over the operand
# positions of their module (parameters first, then locals):
#
# * ``_CHAIN``: ``y`` one-qubit operations on position ``x``;
# * ``_PAIR``: one two-qubit operation on positions ``x`` and ``y``;
# * ``_BLOCK``: a lowered multi-qubit composite on the positions ``x``,
#   whose output ``j`` finishes at ``max(input[i] + y[j][i])`` over its
#   inputs ``i``;
# * ``_CALL``: a call binding the positions ``x`` to the parameters of
#   the compiled callee ``y``.
#
# Callees are held by their compiled tuples, never by closures, so one
# estimate leaves no reference cycle behind.
_CHAIN, _PAIR, _BLOCK, _CALL = range(4)


class _Compiled(NamedTuple):
    """One module, compiled once per estimate."""

    statements: list[tuple]
    num_locals: int
    histogram: dict[str, int]


class _Summary(NamedTuple):
    """One composite ``(gate, param)``, lowered once per estimate."""

    histogram: dict[str, int]
    kind: int  # _CHAIN (y: the word's length) or _BLOCK (y: transfer)
    y: object


_PLACEHOLDERS = ("q0", "q1", "q2")

_COMPOSITES = frozenset(
    name for name, spec in GATE_SPECS.items() if spec.is_composite
)

_SINGLE = {name: {name: 1} for name in GATE_SPECS}
"""The lowered histogram of one non-composite gate."""

_UNREACHED = -(1 << 62)
"""Transfer delay of an output no chain reaches from that input."""


def _compile(
    program: Program,
    name: str,
    compiled: dict[str, _Compiled],
    summaries: dict[tuple[str, Optional[float]], _Summary],
    config: DecomposeConfig,
) -> _Compiled:
    """Compile one module (and, first, its callees) once per estimate."""
    found = compiled.get(name)
    if found is not None:
        return found
    module = program.modules[name]
    position = {
        q: i for i, q in enumerate(module.parameters + module.locals_)
    }
    statements: list[tuple] = []
    append = statements.append
    # id(part) -> [part, uses]: every gate, composite and callee has one
    # shared histogram ("part"), so counting uses beats merging each.
    uses: dict[int, list] = {}
    for statement in module.body:
        if type(statement) is Call:
            callee = _compile(
                program, statement.callee, compiled, summaries, config
            )
            positions = tuple(map(position.__getitem__, statement.arguments))
            append((_CALL, positions, callee))
            part = callee.histogram
        else:
            gate = statement.gate
            qubits = statement.qubits
            if gate in _COMPOSITES:
                key = (gate, statement.param)
                summary = summaries.get(key)
                if summary is None:
                    summary = summaries[key] = _summarize(statement, config)
                part, kind, y = summary
                if kind == _BLOCK:
                    positions = tuple(map(position.__getitem__, qubits))
                    append((_BLOCK, positions, y))
                elif y:
                    append((_CHAIN, position[qubits[0]], y))
            else:
                part = _SINGLE[gate]
                if len(qubits) == 1:
                    append((_CHAIN, position[qubits[0]], 1))
                else:
                    append((_PAIR, position[qubits[0]], position[qubits[1]]))
        use = uses.get(id(part))
        if use is None:
            uses[id(part)] = [part, 1]
        else:
            use[1] += 1
    # Parts merge in the order of their first use, which puts each gate
    # where it first appears in the lowered stream.
    histogram: dict[str, int] = {}
    for part, count in uses.values():
        for gate, n in part.items():
            histogram[gate] = histogram.get(gate, 0) + n * count
    found = compiled[name] = _Compiled(
        statements, len(module.locals_), histogram
    )
    return found


def _summarize(op: Operation, config: DecomposeConfig) -> _Summary:
    """Lower one composite on placeholders and summarize the expansion."""
    operands = _PLACEHOLDERS[: len(op.qubits)]
    expansion = _lower(Operation(op.gate, operands, op.param), config)
    histogram: dict[str, int] = {}
    for lowered in expansion:
        histogram[lowered.gate] = histogram.get(lowered.gate, 0) + 1
    if len(operands) == 1:
        return _Summary(histogram, _CHAIN, len(expansion))
    # reach[j][i]: the longest chain from input i to qubit j's latest
    # operation, in operations (absent when no chain exists).
    index = {q: i for i, q in enumerate(operands)}
    reach: list[dict[int, int]] = [{i: 0} for i in range(len(operands))]
    for lowered in expansion:
        touched = [index[q] for q in lowered.qubits]
        start: dict[int, int] = {}
        for j in touched:
            for i, delay in reach[j].items():
                if delay > start.get(i, -1):
                    start[i] = delay
        finish = {i: delay + 1 for i, delay in start.items()}
        for j in touched:
            reach[j] = finish
    transfer = tuple(
        tuple(row.get(i, _UNREACHED) for i in range(len(operands)))
        for row in reach
    )
    return _Summary(histogram, _BLOCK, transfer)


def _walk(statements: list[tuple], frame: list[int], levels: list[int]) -> None:
    """Advance the finish levels of ``levels`` through one invocation.

    ``frame`` maps the module's operand positions to slots of
    ``levels``; each callee local gets a new slot at level 0.
    """
    for kind, x, y in statements:
        if kind == _PAIR:
            a = frame[x]
            b = frame[y]
            start = levels[a]
            other = levels[b]
            if other > start:
                start = other
            levels[a] = levels[b] = start + 1
        elif kind == _CHAIN:
            levels[frame[x]] += y
        elif kind == _BLOCK:
            slots = [frame[p] for p in x]
            inputs = [levels[s] for s in slots]
            for slot, row in zip(slots, y):
                levels[slot] = max(map(add, inputs, row))
        else:
            child = [frame[p] for p in x]
            callee_statements, num_locals, _ = y
            if num_locals:
                base = len(levels)
                child.extend(range(base, base + num_locals))
                levels.extend([0] * num_locals)
            _walk(callee_statements, child, levels)
