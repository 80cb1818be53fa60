"""Perf harness driver: record/compare braid-stage benchmark reports.

A thin command-line wrapper that runs ``python -m repro bench`` through
the same process entry (:mod:`repro.__main__`, which also sets the
collector policy), kept under ``benchmarks/`` so the measurement
workflow lives next to the paper's figure drivers.

Record this PR's trajectory point (repo root, ``BENCH_<n>.json``)::

    python benchmarks/perf_harness.py --grid fig6 --reference \
        --out BENCH_3.json

Refresh the committed CI baseline::

    python benchmarks/perf_harness.py --grid tiny --reference \
        --out benchmarks/baselines/bench_ci.json

Gate against a baseline (exit 1 on regression), as CI does::

    python benchmarks/perf_harness.py --grid tiny --reference \
        --baseline benchmarks/baselines/bench_ci.json

The ``--reference`` pass re-runs every braid point through the seed
simulator preserved in ``repro.network._braidsim_reference`` and fails
loudly unless results are bit-identical, so each measurement doubles as
a golden-equivalence check of the optimized core.
"""

import sys
from pathlib import Path

# Allow running from a source checkout without installation.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def main(argv=None) -> int:
    from repro.__main__ import main as process_main

    return process_main(["bench", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
