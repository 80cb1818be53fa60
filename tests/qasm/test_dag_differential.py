"""Differential tests: the one-pass :class:`CircuitDag` vs its edge-set build.

:class:`~repro.qasm.CircuitDag` builds its successor lists, in-degree
counts, ASAP levels and depth in one pass over per-qubit last writers,
and derives predecessor lists and ALAP levels on first use.  The
builder it replaced is kept below as reference code
(:func:`reference_dag`): a per-operation dependency set, a global
``seen`` edge set, mirrored predecessor lists built alongside the
successors, and one ``latency()`` call per edge.  Hypothesis checks
every public accessor against it on random Clifford+T circuits with
fences, under unit and weighted latencies.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qasm import Circuit, CircuitDag

from .conftest import clifford_t_circuits


# -- reference code: the builder the one-pass DAG replaced -------------------


def reference_dag(circuit, latency=None, exact_limit=20_000):
    """Every per-node array of the replaced builder, by name."""
    latency = latency or (lambda op: 1)
    n = len(circuit)
    successors = [[] for _ in range(n)]
    predecessors = [[] for _ in range(n)]
    last_writer = {}
    fence_deps = {}
    fences = sorted(circuit.fences)
    fence_cursor = 0
    seen = set()
    for index, op in enumerate(circuit):
        while fence_cursor < len(fences) and fences[fence_cursor][0] <= index:
            _, fenced_qubits = fences[fence_cursor]
            producers = frozenset(
                last_writer[q] for q in fenced_qubits if q in last_writer
            )
            for q in fenced_qubits:
                fence_deps[q] = producers | fence_deps.get(q, frozenset())
            fence_cursor += 1
        deps = set()
        for qubit in op.qubits:
            if qubit in last_writer:
                deps.add(last_writer[qubit])
            if qubit in fence_deps:
                deps.update(fence_deps.pop(qubit))
        deps.discard(index)
        for dep in sorted(deps):
            edge = (dep, index)
            if edge not in seen:
                seen.add(edge)
                successors[dep].append(index)
                predecessors[index].append(dep)
        for qubit in op.qubits:
            last_writer[qubit] = index

    asap = [0] * n
    for index in range(n):
        preds = predecessors[index]
        if preds:
            asap[index] = max(asap[p] + latency(circuit[p]) for p in preds)
    depth = max((asap[i] + latency(circuit[i]) for i in range(n)), default=0)
    alap = [0] * n
    for index in range(n - 1, -1, -1):
        duration = latency(circuit[index])
        succs = successors[index]
        if succs:
            alap[index] = min(alap[s] for s in succs) - duration
        else:
            alap[index] = depth - duration

    if n > exact_limit:
        criticality = [0] * n
        for index in range(n - 1, -1, -1):
            succs = successors[index]
            if succs:
                criticality[index] = 1 + max(criticality[s] for s in succs)
    else:
        masks = [0] * n
        criticality = [0] * n
        for index in range(n - 1, -1, -1):
            mask = 0
            for succ in successors[index]:
                mask |= masks[succ] | (1 << succ)
            masks[index] = mask
            criticality[index] = mask.bit_count()
    return {
        "successors": successors,
        "predecessors": predecessors,
        "in_degrees": [len(p) for p in predecessors],
        "sources": [i for i in range(n) if not predecessors[i]],
        "asap": asap,
        "alap": alap,
        "depth": depth,
        "criticality": criticality,
    }


def observed(dag):
    """The same arrays, read through the DAG's public accessors."""
    nodes = range(dag.num_nodes)
    return {
        "successors": [dag.successors(i) for i in nodes],
        "predecessors": [dag.predecessors(i) for i in nodes],
        "in_degrees": dag.in_degrees(),
        "sources": dag.sources(),
        "asap": [dag.asap_level(i) for i in nodes],
        "alap": [dag.alap_level(i) for i in nodes],
        "depth": dag.critical_path_length,
        "criticality": list(dag.criticality_array()),
    }


def weighted(op):
    """A latency with zero, unit and longer durations."""
    return len(op.gate) % 4


# -- differentials -----------------------------------------------------------


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(circuit=clifford_t_circuits())
    def test_unit_latency(self, circuit):
        dag = CircuitDag(circuit)
        expected = reference_dag(circuit)
        assert observed(dag) == expected
        assert dag.successor_tuples() == tuple(
            tuple(s) for s in expected["successors"]
        )
        assert [dag.in_degree(i) for i in range(dag.num_nodes)] == (
            expected["in_degrees"]
        )
        assert list(dag.edges()) == [
            (i, s) for i, succs in enumerate(expected["successors"])
            for s in succs
        ]

    @settings(max_examples=150, deadline=None)
    @given(circuit=clifford_t_circuits())
    def test_weighted_latency(self, circuit):
        dag = CircuitDag(circuit, latency=weighted)
        assert observed(dag) == reference_dag(circuit, latency=weighted)

    @settings(max_examples=100, deadline=None)
    @given(circuit=clifford_t_circuits())
    def test_height_fallback(self, circuit):
        dag = CircuitDag(circuit)
        dag.EXACT_CRITICALITY_LIMIT = 0  # every circuit takes the fallback
        expected = reference_dag(circuit, exact_limit=0)
        assert dag.criticality_array() == expected["criticality"]

    @settings(max_examples=100, deadline=None)
    @given(circuit=clifford_t_circuits(), data=st.data())
    def test_lazy_arrays_any_first_use(self, circuit, data):
        """Derived arrays do not depend on which accessor runs first."""
        dag = CircuitDag(circuit)
        expected = reference_dag(circuit)
        if dag.num_nodes:
            index = data.draw(st.integers(0, dag.num_nodes - 1))
            assert dag.slack(index) == (
                expected["alap"][index] - expected["asap"][index]
            )
            assert dag.predecessors(index) == expected["predecessors"][index]
        assert observed(dag) == expected


class TestEdgeCases:
    def test_three_qubit_op_shares_one_writer(self):
        c = Circuit()
        c.apply("CNOT", "a", "b")      # 0
        c.apply("TOFFOLI", "a", "b", "c")  # 1: one edge from 0
        c.apply("H", "c")              # 2
        c.apply("TOFFOLI", "c", "a", "b")  # 3: one edge from 1, one from 2
        dag = CircuitDag(c)
        assert observed(dag) == reference_dag(c)
        assert dag.predecessors(1) == [0]
        assert dag.predecessors(3) == [1, 2]
        assert dag.in_degrees() == [0, 1, 1, 2]

    def test_fence_producer_equal_to_last_writer(self):
        c = Circuit()
        c.apply("CNOT", "a", "b")  # 0
        c.add_fence(["a", "b"])
        c.apply("H", "a")          # 1: fence producer 0 == last writer 0
        c.apply("H", "b")          # 2: same
        dag = CircuitDag(c)
        assert observed(dag) == reference_dag(c)
        assert dag.in_degrees() == [0, 1, 1]

    def test_trailing_fence_adds_no_edge(self):
        c = Circuit()
        c.apply("H", "a")
        c.apply("H", "b")
        c.add_fence()  # at position len(c): no later op to serialize
        dag = CircuitDag(c)
        assert observed(dag) == reference_dag(c)
        assert list(dag.edges()) == []
