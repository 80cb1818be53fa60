"""Staged, cached, parallel execution of the reproduction pipeline.

* :mod:`repro.runner.keys` -- stable stage-invocation identities.
* :mod:`repro.runner.cache` -- memory + on-disk JSON result cache.
* :mod:`repro.runner.backends` -- the disk store: checksummed,
  gzipped, atomically written records of one format, and ``flock``
  single-flight.
* :mod:`repro.runner.stages` -- the pipeline stages + grid points.
* :mod:`repro.runner.sweep` -- grid expansion, dedup, process fan-out,
  run-once point isolation with per-point failure records,
  checkpoint/resume journaling.
* :mod:`repro.runner.bench` -- cold-cache stage timing, the seed-loop
  replay of every swept braid point, and the regression gate.
* :mod:`repro.runner.report` -- figure/table rendering from the cache.
* :mod:`repro.runner.cli` -- ``python -m repro``
  (run / sweep / report / bench / cache / check / lint).

See ``docs/ARCHITECTURE.md`` for the module map and the cache-key flow
through the stages, and ``docs/PERFORMANCE.md`` for the bench harness
and the CI regression gate.
"""

from .backends import CACHE_FORMAT_VERSION, CorruptEntry, DiskStore
from .bench import BenchReport, compare_reports, run_bench
from .cache import CacheStats, StageCache
from .keys import StageKey
from .stages import (
    PointResult,
    PointSpec,
    compute_scaling,
    default_cache,
    reset_default_cache,
    run_point,
)
from .sweep import (
    GridSpec,
    PointFailure,
    SweepAborted,
    SweepResult,
    SweepRunner,
    execute_point,
    fig6_grid,
    fig6x_grid,
)

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CacheStats",
    "CorruptEntry",
    "DiskStore",
    "StageCache",
    "StageKey",
    "PointFailure",
    "SweepAborted",
    "execute_point",
    "PointResult",
    "PointSpec",
    "compute_scaling",
    "default_cache",
    "reset_default_cache",
    "run_point",
    "GridSpec",
    "SweepResult",
    "SweepRunner",
    "fig6_grid",
    "fig6x_grid",
    "BenchReport",
    "compare_reports",
    "run_bench",
]
