"""Table 2: application summary and ideal parallelism factors.

Paper values: GSE 1.2, SQ 1.5, SHA-1 29, IM 66.  We regenerate the
table from our from-scratch workload generators.  Absolute factors
depend on instance sizes and decomposition choices; the reproduced
*ordering* and the serial (~1-2) vs parallel (>>1) class split are the
assertions.
"""

from repro.apps import APPLICATIONS
from repro.core import format_table2_rows
from repro.frontend import estimate_program

TABLE2_SIZES = {"gse": 6, "sq": 4, "sha1": 8, "im": 64}


def _measure():
    rows = []
    for name in ("gse", "sq", "sha1", "im"):
        spec = APPLICATIONS[name]
        size = TABLE2_SIZES[name]
        estimate = estimate_program(spec.build(size), f"{name}[{size}]")
        rows.append(
            (
                spec.title,
                spec.purpose,
                spec.paper_parallelism,
                estimate.parallelism_factor,
            )
        )
    return rows


def test_table2_parallelism(benchmark):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    measured = {name: row[3] for name, row in zip(("gse", "sq", "sha1", "im"), rows)}
    # Ordering must match the paper's.
    assert measured["gse"] < measured["sq"] < measured["sha1"] < measured["im"]
    # Class split: serial apps ~1-2, parallel apps clearly above.
    assert measured["gse"] < 3 and measured["sq"] < 4
    assert measured["sha1"] > 4 and measured["im"] > 15
    print("\n" + "=" * 64)
    print("TABLE 2 -- Applications and parallelism factors")
    print("=" * 64)
    print(format_table2_rows(rows))
