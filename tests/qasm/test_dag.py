"""Unit and property tests for the dependence DAG."""

import pytest
from hypothesis import given, settings

from repro.qasm import Circuit, CircuitDag

from .conftest import circuits


def chain(n: int) -> Circuit:
    """n serial gates on one qubit -> critical path n, parallelism 1."""
    c = Circuit("chain")
    for _ in range(n):
        c.apply("H", "a")
    return c


def wide(n: int) -> Circuit:
    """n independent gates -> critical path 1, parallelism n."""
    c = Circuit("wide")
    for i in range(n):
        c.apply("H", f"q{i}")
    return c


class TestDagStructure:
    def test_empty_circuit(self):
        dag = CircuitDag(Circuit())
        assert dag.num_nodes == 0
        assert dag.critical_path_length == 0
        assert dag.parallelism_factor == 0.0

    def test_chain_dependencies(self):
        dag = CircuitDag(chain(4))
        assert dag.predecessors(0) == []
        for i in range(1, 4):
            assert dag.predecessors(i) == [i - 1]

    def test_wide_has_no_edges(self):
        dag = CircuitDag(wide(5))
        for i in range(5):
            assert dag.predecessors(i) == []
            assert dag.successors(i) == []

    def test_two_qubit_gate_joins_chains(self):
        c = Circuit()
        c.apply("H", "a")   # 0
        c.apply("H", "b")   # 1
        c.apply("CNOT", "a", "b")  # 2 depends on both
        dag = CircuitDag(c)
        assert sorted(dag.predecessors(2)) == [0, 1]

    def test_no_duplicate_edges(self):
        c = Circuit()
        c.apply("CNOT", "a", "b")
        c.apply("CNOT", "a", "b")  # depends on the same op via both qubits
        dag = CircuitDag(c)
        assert dag.predecessors(1) == [0]

    def test_sources(self):
        c = Circuit()
        c.apply("H", "a")
        c.apply("H", "b")
        c.apply("CNOT", "a", "b")
        assert CircuitDag(c).sources() == [0, 1]

    def test_topological_order_is_program_order(self):
        dag = CircuitDag(chain(5))
        assert dag.topological_order() == list(range(5))


class TestScheduleMetrics:
    def test_chain_critical_path(self):
        assert CircuitDag(chain(7)).critical_path_length == 7

    def test_wide_critical_path(self):
        assert CircuitDag(wide(7)).critical_path_length == 1

    def test_parallelism_factor_extremes(self):
        assert CircuitDag(chain(10)).parallelism_factor == pytest.approx(1.0)
        assert CircuitDag(wide(10)).parallelism_factor == pytest.approx(10.0)

    def test_slack_zero_on_chain(self):
        dag = CircuitDag(chain(4))
        for i in range(4):
            assert dag.slack(i) == 0

    def test_slack_positive_off_critical_path(self):
        c = Circuit()
        for _ in range(3):
            c.apply("H", "a")      # 0,1,2: critical chain
        c.apply("H", "b")          # 3: floats freely
        dag = CircuitDag(c)
        assert dag.slack(3) == 2
        assert dag.critical_operations() == [0, 1, 2]

    def test_slack_along_a_short_branch(self):
        c = Circuit()
        for _ in range(3):
            c.apply("H", "a")      # 0,1,2: critical chain
        c.apply("H", "b")          # 3: may start as late as level 1
        c.apply("CNOT", "b", "c")  # 4 <- 3: may start as late as level 2
        dag = CircuitDag(c)
        assert [dag.alap_level(i) for i in (3, 4)] == [1, 2]
        assert [dag.slack(i) for i in (3, 4)] == [1, 1]

    def test_criticality_counts_descendants(self):
        dag = CircuitDag(chain(4))
        assert [dag.criticality(i) for i in range(4)] == [3, 2, 1, 0]

    def test_criticality_diamond(self):
        c = Circuit()
        c.apply("H", "a")            # 0
        c.apply("CNOT", "a", "b")    # 1 <- 0
        c.apply("CNOT", "a", "c")    # 2 <- 1
        c.apply("CNOT", "b", "c")    # 3 <- 1, 2
        dag = CircuitDag(c)
        assert dag.criticality(0) == 3
        assert dag.criticality(3) == 0

    def test_asap_levels_partition_all_ops(self):
        c = Circuit()
        c.apply("H", "a")
        c.apply("H", "b")
        c.apply("CNOT", "a", "b")
        levels = CircuitDag(c).asap_levels()
        assert levels == [[0, 1], [2]]

    def test_parallelism_profile(self):
        c = Circuit()
        c.apply("H", "a")
        c.apply("H", "b")
        c.apply("CNOT", "a", "b")
        assert CircuitDag(c).parallelism_profile() == [2, 1]


class TestDagProperties:
    @given(circuits())
    @settings(max_examples=80)
    def test_asap_not_after_alap(self, circuit):
        dag = CircuitDag(circuit)
        for i in range(dag.num_nodes):
            assert dag.asap_level(i) <= dag.alap_level(i)

    @given(circuits())
    @settings(max_examples=80)
    def test_edges_respect_levels(self, circuit):
        dag = CircuitDag(circuit)
        for i in range(dag.num_nodes):
            for j in dag.successors(i):
                assert dag.asap_level(j) >= dag.asap_level(i) + 1

    @given(circuits())
    @settings(max_examples=80)
    def test_profile_sums_to_op_count(self, circuit):
        dag = CircuitDag(circuit)
        assert sum(dag.parallelism_profile()) == dag.num_nodes

    @given(circuits())
    @settings(max_examples=80)
    def test_parallelism_bounds(self, circuit):
        dag = CircuitDag(circuit)
        if dag.num_nodes:
            assert 1.0 <= dag.parallelism_factor <= dag.num_nodes

    @given(circuits())
    @settings(max_examples=80)
    def test_critical_path_bounded_by_ops(self, circuit):
        dag = CircuitDag(circuit)
        assert dag.critical_path_length <= dag.num_nodes

    @given(circuits())
    @settings(max_examples=50)
    def test_criticality_antitone_along_edges(self, circuit):
        dag = CircuitDag(circuit)
        for i in range(dag.num_nodes):
            for j in dag.successors(i):
                assert dag.criticality(i) > dag.criticality(j)
