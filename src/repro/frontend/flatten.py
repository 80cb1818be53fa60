"""Module flattening (inlining) with controllable depth.

Flattening expands the hierarchical :class:`~repro.frontend.program.Program`
into a flat :class:`~repro.qasm.Circuit`.  Every call is always expanded
(the backend needs flat QASM), but the *inline depth* controls whether a
call boundary is transparent to the scheduler:

* Calls at depth < ``inline_depth`` are inlined transparently -- their
  operations interleave freely with the caller's.
* Deeper calls are expanded behind *fences* on the callee's footprint,
  which serialize the call against other work on those qubits exactly
  like an un-inlined opaque subroutine would.

This reproduces the paper's semi- vs fully-inlined distinction
(Section 7.3 / Figure 9): "more code inlining creates more parallelism."
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from ..qasm.circuit import Circuit
from .program import Call, Program

__all__ = ["flatten"]


def flatten(
    program: Program,
    inline_depth: Optional[int] = None,
    name: Optional[str] = None,
) -> Circuit:
    """Expand ``program`` into a flat circuit.

    Args:
        program: The hierarchical program; validated before expansion.
        inline_depth: Number of call levels inlined transparently.
            ``None`` (default) inlines everything (maximal inlining).
            ``0`` fences every call made by the entry module.
        name: Circuit name; defaults to the entry module name.

    Returns:
        A flat circuit whose qubits are the entry module's declared names
        plus uniquified locals from expanded callees.
    """
    program.validate()
    if inline_depth is not None and inline_depth < 0:
        raise ValueError(f"inline_depth must be >= 0, got {inline_depth}")
    entry = program.modules[program.entry]
    circuit = Circuit(name or entry.name)
    for qubit in entry.parameters + entry.locals_:
        circuit.add_qubit(qubit)
    counter = itertools.count()
    reserved = entry.declared_names

    def fresh(module_name: str, local: str) -> str:
        # '.' separators keep generated names QASM-safe ('#' would
        # collide with flat-QASM comments).  Generated names end in
        # distinct counter values, so only an entry name can already
        # hold one: skip those, or the idempotent ``add_qubit`` would
        # merge the callee's local into the entry's qubit.
        while True:
            unique = f"{module_name}.{local}.{next(counter)}"
            if unique not in reserved:
                return unique

    binding = {q: q for q in reserved}
    _expand(program, entry.name, binding, circuit, 0, inline_depth, fresh)
    return circuit


def _expand(
    program: Program,
    module_name: str,
    binding: dict[str, str],
    circuit: Circuit,
    depth: int,
    inline_depth: Optional[int],
    fresh: Callable[[str, str], str],
) -> list[str]:
    """Expand one module invocation; returns the physical footprint."""
    module = program.modules[module_name]
    footprint = [binding[q] for q in module.parameters]
    for local in module.locals_:
        # Entry-module locals keep their names (they are the program's
        # data qubits); callee locals are fresh per call.
        unique = local if depth == 0 else fresh(module_name, local)
        binding[local] = unique
        circuit.add_qubit(unique)
        footprint.append(unique)
    for statement in module.body:
        if isinstance(statement, Call):
            child_binding = dict(
                zip(
                    program.modules[statement.callee].parameters,
                    (binding[a] for a in statement.arguments),
                )
            )
            opaque = inline_depth is not None and depth >= inline_depth
            if opaque:
                # Fence on the callee's argument footprint before and
                # after: the call behaves as one indivisible block.
                pre_footprint = [binding[a] for a in statement.arguments]
                circuit.add_fence(pre_footprint)
                child_footprint = _expand(
                    program,
                    statement.callee,
                    child_binding,
                    circuit,
                    depth + 1,
                    inline_depth,
                    fresh,
                )
                circuit.add_fence(child_footprint)
            else:
                child_footprint = _expand(
                    program,
                    statement.callee,
                    child_binding,
                    circuit,
                    depth + 1,
                    inline_depth,
                    fresh,
                )
            footprint.extend(
                q for q in child_footprint if q not in footprint
            )
        else:
            circuit.append(statement.renamed(binding))
    return footprint
