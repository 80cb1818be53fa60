"""Dependency DAG over circuit operations.

The braid scheduler (Section 6.1) "maintains a ready queue of operations
whose dependencies have been met"; the priority policies (Section 6.3)
rank ready operations by *criticality* (how many future operations depend
on a braid).  Both need the data-dependence DAG, which this module builds
from program order: operation ``j`` depends on operation ``i`` when ``i``
is the most recent earlier operation touching one of ``j``'s qubits.

The DAG also yields the paper's logical-level analyses (Figure 4, left):
critical-path length and the *parallelism factor* -- "average number of
logical operations that can be concurrently executed, were hardware
resources not a constraint" (Table 2), i.e. total ops / ASAP depth.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .circuit import Circuit, Operation

__all__ = ["CircuitDag"]

LatencyFn = Callable[[Operation], int]


def _unit_latency(op: Operation) -> int:
    return 1


class CircuitDag:
    """Data-dependence DAG of a circuit.

    Nodes are operation indices (program order).  Edges run from producer
    to consumer.  Construction is one pass over the circuit that fills
    the successor lists, the in-degree counts, the ASAP levels and the
    depth: what the braid plan, the SIMD scheduler and the frontend
    estimate read.  Predecessor lists, ALAP levels and criticality are
    derived from the successor lists on first use.

    Args:
        circuit: The circuit to analyze.
        latency: Optional per-operation latency for weighted critical
            paths.  Defaults to unit latency, matching the paper's
            logical-cycle accounting.
    """

    def __init__(
        self, circuit: Circuit, latency: Optional[LatencyFn] = None
    ) -> None:
        self.circuit = circuit
        self.latency: LatencyFn = latency or _unit_latency
        self.num_nodes = len(circuit)
        self._predecessors: Optional[list[list[int]]] = None  # lazy
        self._alap: Optional[list[int]] = None  # lazy
        self._descendant_counts: Optional[list[int]] = None  # lazy
        self._successor_tuples: Optional[tuple[tuple[int, ...], ...]] = None
        self._build()
        if latency is not None:
            self._weight_asap()

    # -- construction ---------------------------------------------------------

    def _build(self) -> None:
        """Edges, in-degrees and unit-latency ASAP levels in one pass.

        Operation ``j`` depends on the last earlier writer of each of its
        qubits, plus the producers a fence hands to the next operation
        on a fenced qubit.  Successor lists grow in program order, so an
        edge ``(dep, j)`` already exists exactly when ``j`` ends
        ``dep``'s list: that check deduplicates an operation's
        dependencies without a per-operation set.
        """
        n = self.num_nodes
        successors: list[list[int]] = [[] for _ in range(n)]
        in_degree = [0] * n
        asap = [0] * n
        last_writer: dict[str, int] = {}
        last_get = last_writer.get
        # Cross-qubit dependencies injected by fences: qubit -> producer
        # indices the next op on that qubit must wait for.
        fence_deps: dict[str, frozenset[int]] = {}
        fences = sorted(self.circuit.fences)
        cursor = 0
        next_fence = fences[0][0] if fences else n
        for index, op in enumerate(self.circuit):
            if index >= next_fence:
                while cursor < len(fences) and fences[cursor][0] <= index:
                    fenced_qubits = fences[cursor][1]
                    producers = frozenset(
                        last_writer[q] for q in fenced_qubits
                        if q in last_writer
                    )
                    if producers:
                        for q in fenced_qubits:
                            earlier = fence_deps.get(q, frozenset())
                            fence_deps[q] = producers | earlier
                    cursor += 1
                next_fence = fences[cursor][0] if cursor < len(fences) else n
            degree = level = 0
            for q in op.qubits:
                # ``index`` stands for "no earlier writer" (and for a
                # qubit an unvalidated op lists twice).
                dep = last_get(q, index)
                last_writer[q] = index
                if dep != index:
                    succs = successors[dep]
                    if not succs or succs[-1] != index:
                        succs.append(index)
                        degree += 1
                        if asap[dep] >= level:
                            level = asap[dep] + 1
            if fence_deps:
                for q in op.qubits:
                    for dep in fence_deps.pop(q, ()):
                        succs = successors[dep]
                        if not succs or succs[-1] != index:
                            succs.append(index)
                            degree += 1
                            if asap[dep] >= level:
                                level = asap[dep] + 1
            in_degree[index] = degree
            asap[index] = level
        self._successors = successors
        self._in_degree = in_degree
        self._asap = asap
        self._depth = max(asap) + 1 if n else 0

    def _weight_asap(self) -> None:
        """Redo ASAP levels and depth under a non-unit latency."""
        durations = [self.latency(op) for op in self.circuit]
        asap = [0] * self.num_nodes
        for index, preds in enumerate(self._predecessor_lists()):
            if preds:
                asap[index] = max(asap[p] + durations[p] for p in preds)
        self._asap = asap
        self._depth = max(
            (start + duration for start, duration in zip(asap, durations)),
            default=0,
        )

    def _predecessor_lists(self) -> list[list[int]]:
        if self._predecessors is None:
            predecessors: list[list[int]] = [[] for _ in range(self.num_nodes)]
            for index, succs in enumerate(self._successors):
                for succ in succs:
                    predecessors[succ].append(index)
            self._predecessors = predecessors
        return self._predecessors

    def _alap_levels(self) -> list[int]:
        if self._alap is None:
            alap = [0] * self.num_nodes
            for index in range(self.num_nodes - 1, -1, -1):
                duration = self.latency(self.circuit[index])
                succs = self._successors[index]
                if succs:
                    alap[index] = min(alap[s] for s in succs) - duration
                else:
                    alap[index] = self._depth - duration
            self._alap = alap
        return self._alap

    EXACT_CRITICALITY_LIMIT = 20_000
    """Above this node count, criticality falls back to DAG height.

    Exact transitive descendant counting with reachability bitsets costs
    O(V^2/64) time and memory; for the multi-hundred-thousand-op SHA-1
    instances that is minutes and gigabytes.  Height (longest path to a
    sink) is the classic O(V+E) criticality surrogate, preserves the
    antitone-along-edges property the schedulers rely on, and ranks ops
    nearly identically on these circuits.
    """

    def _compute_descendant_counts(self) -> list[int]:
        """Criticality per node: exact descendant counts when affordable.

        The paper's criticality is "how many future operations depend on
        it" (Section 6.3); reachability bitsets make this exact for
        small/medium circuits, with the height fallback above
        :data:`EXACT_CRITICALITY_LIMIT`.
        """
        if self.num_nodes > self.EXACT_CRITICALITY_LIMIT:
            heights = [0] * self.num_nodes
            for index in range(self.num_nodes - 1, -1, -1):
                succs = self._successors[index]
                if succs:
                    heights[index] = 1 + max(heights[s] for s in succs)
            return heights
        masks: list[int] = [0] * self.num_nodes
        counts = [0] * self.num_nodes
        for index in range(self.num_nodes - 1, -1, -1):
            mask = 0
            for succ in self._successors[index]:
                mask |= masks[succ] | (1 << succ)
            masks[index] = mask
            counts[index] = mask.bit_count()
        return counts

    # -- structure accessors ----------------------------------------------------

    def successors(self, index: int) -> list[int]:
        return list(self._successors[index])

    def predecessors(self, index: int) -> list[int]:
        return list(self._predecessor_lists()[index])

    def in_degree(self, index: int) -> int:
        return self._in_degree[index]

    def in_degrees(self) -> list[int]:
        """Fresh per-node in-degree list (callers may mutate their copy)."""
        return list(self._in_degree)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All dependence edges as ``(op, successor)`` pairs.

        Program-order construction makes every edge point forward
        (``op < successor``) — the invariant the static verifier
        re-checks per edge.
        """
        for index, succs in enumerate(self._successors):
            for succ in succs:
                yield (index, succ)

    def successor_tuples(self) -> tuple[tuple[int, ...], ...]:
        """Immutable successor adjacency, built once and shared.

        Consumers that only *read* edges (e.g. braid simulation plans)
        index this directly instead of copying per-node lists through
        :meth:`successors`.
        """
        if self._successor_tuples is None:
            self._successor_tuples = tuple(
                tuple(s) for s in self._successors
            )
        return self._successor_tuples

    def criticality_array(self) -> list[int]:
        """The full criticality vector, lazily computed and shared.

        Treat the returned list as read-only: it is the DAG's own
        cache, handed out so simulation plans can share one
        materialization across every policy that ranks by criticality.
        """
        if self._descendant_counts is None:
            self._descendant_counts = self._compute_descendant_counts()
        return self._descendant_counts

    def sources(self) -> list[int]:
        """Operations with no dependencies (initially ready)."""
        return [i for i, degree in enumerate(self._in_degree) if not degree]

    def topological_order(self) -> list[int]:
        """Kahn topological order (== program order for valid circuits)."""
        in_deg = list(self._in_degree)
        ready: deque[int] = deque(i for i, d in enumerate(in_deg) if d == 0)
        order: list[int] = []
        while ready:
            node = ready.popleft()
            order.append(node)
            for succ in self._successors[node]:
                in_deg[succ] -= 1
                if in_deg[succ] == 0:
                    ready.append(succ)
        if len(order) != self.num_nodes:
            raise RuntimeError("dependence graph has a cycle (corrupt circuit)")
        return order

    # -- schedule metrics ------------------------------------------------------

    @property
    def critical_path_length(self) -> int:
        """Weighted longest path through the DAG (== ASAP depth)."""
        return self._depth

    def asap_level(self, index: int) -> int:
        return self._asap[index]

    def alap_level(self, index: int) -> int:
        return self._alap_levels()[index]

    def slack(self, index: int) -> int:
        """Scheduling freedom: ALAP minus ASAP start time."""
        return self._alap_levels()[index] - self._asap[index]

    def criticality(self, index: int) -> int:
        """Number of transitive descendants (the paper's criticality).

        Computed lazily on first use; see
        :data:`EXACT_CRITICALITY_LIMIT` for the large-circuit fallback.
        """
        if self._descendant_counts is None:
            self._descendant_counts = self._compute_descendant_counts()
        return self._descendant_counts[index]

    def asap_levels(self) -> list[list[int]]:
        """Operations grouped by ASAP start level, for unit latency views."""
        levels: dict[int, list[int]] = {}
        for index in range(self.num_nodes):
            levels.setdefault(self._asap[index], []).append(index)
        return [levels[key] for key in sorted(levels)]

    def parallelism_profile(self) -> list[int]:
        """Ops issued per ASAP level (the ideal concurrency timeline)."""
        profile = Counter(self._asap[i] for i in range(self.num_nodes))
        return [profile[level] for level in sorted(profile)]

    @property
    def parallelism_factor(self) -> float:
        """Table 2's metric: mean concurrently-executable operations."""
        if self.num_nodes == 0:
            return 0.0
        return self.num_nodes / max(self.critical_path_length, 1)

    def critical_operations(self) -> list[int]:
        """Indices of zero-slack operations (on some critical path)."""
        return [i for i in range(self.num_nodes) if self.slack(i) == 0]

    def __repr__(self) -> str:
        return (
            f"CircuitDag(ops={self.num_nodes}, "
            f"critical_path={self.critical_path_length}, "
            f"parallelism={self.parallelism_factor:.2f})"
        )
