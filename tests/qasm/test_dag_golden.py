"""Golden pin of :class:`~repro.qasm.CircuitDag` on the staged instances.

``golden_dag.json`` records, for every instance the benchmark workloads
build a DAG for (the Figure 6 simulation sizes, the semi-inlined IM
frontends of Figure 9, and the paper-scale im[32]), the node count, the
depth, and a sha256 of each per-node vector in node order: successor
and predecessor lists, in-degrees, sources, ASAP and ALAP levels, and
criticality.  The file was recorded with the edge-set builder that
``test_dag_differential.py`` keeps as reference code; the tests rebuild
each case through the ``frontend`` stage and compare it field by field,
so a changed edge, a reordered adjacency list or a shifted level fails
here.

Regenerate only for a deliberate semantic change::

    PYTHONPATH=src python tests/qasm/test_dag_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.runner import StageCache
from repro.runner.stages import compute_frontend

GOLDEN_PATH = Path(__file__).parent / "golden_dag.json"

CASES = (
    ("gse", 4, None),
    ("sq", 3, None),
    ("sha1", 4, None),
    ("im", 12, None),
    ("im", 12, 0),
    ("im", 8, 0),
    ("im", 32, None),
)


def case_id(app, size, inline_depth):
    return f"{app}[{size}]/inline={inline_depth}"


def digest(values) -> str:
    return hashlib.sha256(
        json.dumps(values, separators=(",", ":")).encode()
    ).hexdigest()


def compute_case(app, size, inline_depth):
    """One case's record, in the golden file's shape."""
    dag = compute_frontend(StageCache(), app, size, inline_depth).dag
    nodes = range(dag.num_nodes)
    return {
        "nodes": dag.num_nodes,
        "depth": dag.critical_path_length,
        "successors": digest([list(s) for s in dag.successor_tuples()]),
        "predecessors": digest([dag.predecessors(i) for i in nodes]),
        "in_degrees": digest(dag.in_degrees()),
        "sources": digest(dag.sources()),
        "asap": digest([dag.asap_level(i) for i in nodes]),
        "alap": digest([dag.alap_level(i) for i in nodes]),
        "criticality": digest(dag.criticality_array()),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case_id(*case))
def test_matches_golden(case, golden):
    assert compute_case(*case) == golden[case_id(*case)]


if __name__ == "__main__":
    record = {case_id(*case): compute_case(*case) for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} cases to {GOLDEN_PATH}")
