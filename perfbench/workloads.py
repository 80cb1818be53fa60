"""The benchmark's workloads: fixed paper grids run through the real CLI.

Every workload is *cold*: each run gets an empty ``--cache-dir`` with
the disk tier on and one worker, so every stage computes and every
record is stored.  The grids have no randomness, so there is no
workload seed.  NOTES.md records why each workload was chosen.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path


@dataclasses.dataclass(frozen=True)
class Workload:
    """One CLI command and what it produces.

    Attributes:
        cli: ``python -m repro`` arguments, without the cache/output
            paths.
        sweep: True for ``sweep`` commands, which write an ``--out``
            JSON; False for ``report fig9``, which prints a table.
        operations: Grid points (sweeps) or figure lines (fig9) one
            run produces.
    """

    cli: tuple[str, ...]
    sweep: bool
    operations: int


WORKLOADS: dict[str, Workload] = {
    # The paper's headline experiment plus both scheduler families:
    # 4 apps x 9 policies at d=5, narrow issue rounds.
    "fig6x-cold": Workload(
        cli=("sweep", "--preset", "fig6x", "--workers", "1"),
        sweep=True,
        operations=36,
    ),
    # The calibration path behind Figs. 8-9: 5 variants x 6 error
    # rates; compile and disk store dominate, braid simulation least.
    "fig9-cold": Workload(
        cli=("report", "fig9"),
        sweep=False,
        operations=5,
    ),
    # One paper-scale Ising-model instance (size 32) under three
    # reactive policies sharing one plan: wide issue rounds.
    "im32-cold": Workload(
        cli=(
            "sweep", "--apps", "im", "--size", "default",
            "--policies", "2,5,6", "--distance", "5", "--workers", "1",
        ),
        sweep=True,
        operations=3,
    ),
}

CACHE_DIR = "cache"
OUT_JSON = "out.json"
STDOUT_TXT = "stdout.txt"
STDERR_TXT = "stderr.txt"
TRACE_JSON = "trace.json"
"""File names inside one run directory (the CLI's and traced.py's
outputs both land there, so one checker reads either)."""


def cli_args(name: str, run_dir: Path) -> list[str]:
    """``python -m repro ...`` arguments writing into ``run_dir``."""
    workload = WORKLOADS[name]
    args = ["-m", "repro", *workload.cli]
    args += ["--cache-dir", str(run_dir / CACHE_DIR)]
    if workload.sweep:
        args += ["--out", str(run_dir / OUT_JSON)]
    return args
