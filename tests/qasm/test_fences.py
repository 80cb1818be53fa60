"""Tests for circuit fences and their effect on the dependence DAG."""

from repro.qasm import Circuit, CircuitDag


class TestFenceBookkeeping:
    def test_fence_records_position_and_qubits(self):
        c = Circuit()
        c.apply("H", "a")
        c.add_fence(["a", "b"])
        assert c.fences == [(1, ("a", "b"))]

    def test_fence_none_covers_all_registered(self):
        c = Circuit(qubits=["a", "b"])
        c.add_fence()
        assert c.fences == [(0, ("a", "b"))]

    def test_fence_registers_new_qubits(self):
        c = Circuit()
        c.add_fence(["x"])
        assert "x" in c.qubits

    def test_fence_deduplicates(self):
        c = Circuit()
        c.add_fence(["a", "a", "b"])
        assert c.fences[0][1] == ("a", "b")

    def test_copy_preserves_fences(self):
        c = Circuit()
        c.apply("H", "a")
        c.add_fence(["a"])
        assert c.copy().fences == c.fences

    def test_renamed_remaps_fences(self):
        c = Circuit()
        c.apply("H", "a")
        c.add_fence(["a"])
        renamed = c.renamed({"a": "z"})
        assert renamed.fences == [(1, ("z",))]


class TestFenceDependencies:
    def test_fence_serializes_across_qubits(self):
        c = Circuit()
        c.apply("H", "a")          # 0
        c.add_fence(["a", "b"])
        c.apply("H", "b")          # 1: would be independent without fence
        dag = CircuitDag(c)
        assert dag.predecessors(1) == [0]
        assert dag.critical_path_length == 2

    def test_fence_ignores_uncovered_qubits(self):
        c = Circuit()
        c.apply("H", "a")          # 0
        c.add_fence(["a", "b"])
        c.apply("H", "z")          # 1: not covered by the fence
        dag = CircuitDag(c)
        assert dag.predecessors(1) == []

    def test_no_fence_no_edge(self):
        c = Circuit()
        c.apply("H", "a")
        c.apply("H", "b")
        dag = CircuitDag(c)
        assert dag.predecessors(1) == []

    def test_fence_with_no_prior_ops_is_noop(self):
        c = Circuit()
        c.add_fence(["a", "b"])
        c.apply("H", "a")
        dag = CircuitDag(c)
        assert dag.predecessors(0) == []

    def test_fence_dependency_consumed_once(self):
        c = Circuit()
        c.apply("H", "a")          # 0
        c.add_fence(["a", "b"])
        c.apply("H", "b")          # 1 <- 0 (fence)
        c.apply("H", "b")          # 2 <- 1 (data), fence already consumed
        dag = CircuitDag(c)
        assert dag.predecessors(2) == [1]

    def test_chained_fences(self):
        c = Circuit()
        c.apply("H", "a")          # 0
        c.add_fence(["a", "b"])
        c.apply("H", "b")          # 1
        c.add_fence(["b", "c"])
        c.apply("H", "c")          # 2
        dag = CircuitDag(c)
        assert dag.critical_path_length == 3

    def test_multiple_producers_before_fence(self):
        c = Circuit()
        c.apply("H", "a")          # 0
        c.apply("H", "b")          # 1
        c.add_fence(["a", "b", "c"])
        c.apply("H", "c")          # 2
        dag = CircuitDag(c)
        assert sorted(dag.predecessors(2)) == [0, 1]

    def test_back_to_back_fences_accumulate(self):
        c = Circuit()
        c.apply("H", "a")          # 0
        c.add_fence(["a", "b"])
        c.apply("H", "b")          # 1
        c.add_fence(["a", "c"])
        c.apply("H", "c")          # 2 <- 0 via second fence
        dag = CircuitDag(c)
        assert 0 in dag.predecessors(2)

    def test_fence_at_end_harmless(self):
        c = Circuit()
        c.apply("H", "a")
        c.add_fence(["a"])
        dag = CircuitDag(c)
        assert dag.num_nodes == 1
        assert dag.critical_path_length == 1
