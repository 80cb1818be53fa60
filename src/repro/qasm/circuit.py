"""Circuit container: the flat logical-level program representation.

A :class:`Circuit` is an ordered list of :class:`Operation` objects over
named logical qubits.  This is the common currency of the toolflow: the
frontend produces circuits, the mapper and network simulators consume
them.  Program order is significant -- braid Policy 0 replays it verbatim
(Section 6.3).
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Iterable, Iterator, Optional, Sequence

from .gates import (
    GATE_SPECS,
    GateKind,
    GateSpec,
    canonical_gate_name,
    gate_spec,
)

__all__ = ["Operation", "Circuit"]


@dataclasses.dataclass(frozen=True)
class Operation:
    """One logical gate application.

    Attributes:
        gate: Canonical gate mnemonic.
        qubits: Operand qubit names, in gate order (control(s) first).
        param: Optional classical parameter (e.g. RZ angle).
    """

    gate: str
    qubits: tuple[str, ...]
    param: Optional[float] = None

    def __post_init__(self) -> None:
        # Fast path: the mnemonic is already canonical (true for every
        # operation the frontend itself constructs).
        spec = GATE_SPECS.get(self.gate)
        if spec is None:
            canonical = canonical_gate_name(self.gate)
            if canonical != self.gate:
                object.__setattr__(self, "gate", canonical)
            spec = gate_spec(self.gate)
        num_qubits = len(self.qubits)
        if num_qubits != spec.arity:
            raise ValueError(
                f"{self.gate} expects {spec.arity} qubits, got "
                f"{len(self.qubits)}: {self.qubits}"
            )
        if num_qubits > 1 and len(set(self.qubits)) != num_qubits:
            raise ValueError(
                f"{self.gate} operands must be distinct, got {self.qubits}"
            )
        if spec.parametric and self.param is None:
            raise ValueError(f"{self.gate} requires a parameter")

    @property
    def spec(self) -> GateSpec:
        # self.gate is canonical after __post_init__.
        try:
            return GATE_SPECS[self.gate]
        except KeyError:  # pragma: no cover - unreachable post-validation
            return gate_spec(self.gate)

    @property
    def arity(self) -> int:
        return len(self.qubits)

    @property
    def is_two_qubit(self) -> bool:
        return self.arity == 2

    @property
    def consumes_magic_state(self) -> bool:
        return self.spec.consumes_magic_state

    def renamed(self, mapping: dict[str, str]) -> "Operation":
        """Return a copy with qubit names substituted through ``mapping``."""
        return Operation(
            self.gate,
            tuple(mapping.get(q, q) for q in self.qubits),
            self.param,
        )

    def __str__(self) -> str:
        operands = ",".join(self.qubits)
        if self.param is not None:
            return f"{self.gate}({self.param:g}) {operands}"
        return f"{self.gate} {operands}"


class Circuit:
    """An ordered quantum program over named logical qubits.

    Qubits are registered explicitly (mirroring QASM ``qubit`` decls) or
    implicitly on first use.  Iteration yields operations in program
    order.
    """

    def __init__(
        self,
        name: str = "circuit",
        qubits: Iterable[str] = (),
        operations: Iterable[Operation] = (),
    ) -> None:
        self.name = name
        self._qubits: dict[str, None] = {}  # insertion-ordered set
        self._operations: list[Operation] = []
        # Fences serialize program regions without emitting gates: every
        # operation before position p that touches a fenced qubit must
        # precede every such operation at or after p.  The frontend uses
        # fences to model non-inlined module boundaries (Section 7.3's
        # semi- vs fully-inlined IM variants).
        self._fences: list[tuple[int, tuple[str, ...]]] = []
        for q in qubits:
            self.add_qubit(q)
        for op in operations:
            self.append(op)

    # -- construction -----------------------------------------------------

    def add_qubit(self, name: str) -> str:
        """Register a qubit name (idempotent). Returns the name."""
        if name in self._qubits:  # fast path: already validated
            return name
        if not name or any(ch.isspace() for ch in name):
            raise ValueError(f"invalid qubit name {name!r}")
        self._qubits[name] = None
        return name

    def add_qubits(self, names: Iterable[str]) -> list[str]:
        return [self.add_qubit(n) for n in names]

    def add_register(self, prefix: str, size: int) -> list[str]:
        """Register ``size`` qubits named ``prefix0 .. prefix{size-1}``."""
        if size < 1:
            raise ValueError(f"register size must be >= 1, got {size}")
        return [self.add_qubit(f"{prefix}{i}") for i in range(size)]

    def append(self, op: Operation) -> None:
        """Append an operation, implicitly registering its qubits."""
        for q in op.qubits:
            self.add_qubit(q)
        self._operations.append(op)

    def apply(self, gate: str, *qubits: str, param: Optional[float] = None) -> None:
        """Convenience: build and append an :class:`Operation`."""
        self.append(Operation(gate, tuple(qubits), param))

    def extend(self, ops: Iterable[Operation]) -> None:
        for op in ops:
            self.append(op)

    def add_fence(self, qubits: Optional[Iterable[str]] = None) -> None:
        """Insert a serialization fence at the current program position.

        Args:
            qubits: Qubits the fence covers.  ``None`` fences all qubits
                registered so far (a full barrier).
        """
        if qubits is None:
            covered = tuple(self._qubits)
        else:
            covered = tuple(dict.fromkeys(qubits))
            for q in covered:
                self.add_qubit(q)
        self._fences.append((len(self._operations), covered))

    @property
    def fences(self) -> list[tuple[int, tuple[str, ...]]]:
        """Fences as (position, qubits) pairs; position is an op index."""
        return list(self._fences)

    @classmethod
    def from_operations(
        cls,
        name: str,
        qubits: Iterable[str],
        operations: Iterable[Operation],
        fences: Iterable[tuple[int, tuple[str, ...]]] = (),
    ) -> "Circuit":
        """Trusted bulk constructor: adopt prebuilt operations directly.

        Skips the per-operation implicit qubit registration of
        :meth:`append`, so ``operations`` must only touch qubits listed
        in ``qubits`` and ``fences`` must already be (position, deduped
        qubit tuple) pairs in output-index space.  Used by passes that
        transform whole circuits (lowering), where the invariants hold
        by construction.
        """
        out = cls(name, qubits=qubits)
        out._operations = list(operations)
        out._fences = [(pos, tuple(qs)) for pos, qs in fences]
        return out

    # -- inspection ---------------------------------------------------------

    @property
    def qubits(self) -> list[str]:
        """Qubit names in registration order."""
        return list(self._qubits)

    @property
    def num_qubits(self) -> int:
        return len(self._qubits)

    @property
    def operations(self) -> list[Operation]:
        """Operations in program order (a copy; the circuit is the owner)."""
        return list(self._operations)

    def __len__(self) -> int:
        return len(self._operations)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._operations)

    def __getitem__(self, index: int) -> Operation:
        return self._operations[index]

    def gate_counts(self) -> Counter:
        """Histogram of gate mnemonics."""
        return Counter(op.gate for op in self._operations)

    def count_kind(self, kind: GateKind) -> int:
        return sum(1 for op in self._operations if op.spec.kind is kind)

    @property
    def t_count(self) -> int:
        """Number of magic-state-consuming operations."""
        return sum(1 for op in self._operations if op.consumes_magic_state)

    @property
    def two_qubit_count(self) -> int:
        return sum(1 for op in self._operations if op.is_two_qubit)

    def has_composites(self) -> bool:
        """True if any operation still needs decomposition."""
        return any(op.spec.is_composite for op in self._operations)

    def interaction_pairs(self) -> Counter:
        """Histogram of unordered qubit pairs touched by multi-qubit ops.

        This is the weighted interaction graph input to the layout
        optimizer (Section 6.2).
        """
        pairs: Counter = Counter()
        for op in self._operations:
            if op.arity >= 2:
                qs = sorted(op.qubits)
                for i in range(len(qs)):
                    for j in range(i + 1, len(qs)):
                        pairs[(qs[i], qs[j])] += 1
        return pairs

    # -- transformation -------------------------------------------------------

    def renamed(self, mapping: dict[str, str], name: Optional[str] = None) -> "Circuit":
        """Return a copy with qubits renamed through ``mapping``."""
        out = Circuit(name or self.name)
        for q in self._qubits:
            out.add_qubit(mapping.get(q, q))
        for op in self._operations:
            out.append(op.renamed(mapping))
        out._fences = [
            (pos, tuple(mapping.get(q, q) for q in qs))
            for pos, qs in self._fences
        ]
        return out

    def copy(self, name: Optional[str] = None) -> "Circuit":
        out = Circuit(name or self.name, self._qubits, self._operations)
        out._fences = list(self._fences)
        return out

    def subcircuit(self, indices: Sequence[int], name: str = "sub") -> "Circuit":
        """Extract the operations at ``indices`` (in the given order)."""
        out = Circuit(name)
        for i in indices:
            out.append(self._operations[i])
        return out

    def __repr__(self) -> str:
        return (
            f"Circuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"ops={len(self._operations)})"
        )
