"""Declarative grid sweeps with dedup, fan-out, and fault tolerance.

A :class:`GridSpec` expands into :class:`PointSpec` grid points (the
cross product the paper's figures sweep: application x size x policy x
technology).  :class:`SweepRunner` deduplicates identical points,
groups the rest by their shared frontend compilation, and executes the
groups either serially through one :class:`StageCache` (every shared
prefix computed exactly once) or across a
:class:`~concurrent.futures.ProcessPoolExecutor`.

Parallel execution splits each frontend group into *work-stealing
chunks over the policy axis*: when there are more workers than frontend
groups, a group's braid simulations -- the sweep's hot stage -- are
striped across several chunk jobs, and idle workers pull the next chunk
from the pool queue.  Each chunk compiles its frontend at most once in
its worker process, so a group split into ``k`` chunks compiles its
frontend at most ``k`` times; with ``workers <= groups`` the split
degenerates to one chunk per group and every frontend is compiled
exactly once across the pool, as before.

Execution is fault tolerant, with one recovery path per failure kind:

* every point runs once, isolated (:func:`execute_point`) -- an
  exception becomes a structured :class:`PointFailure` inside the
  :class:`SweepResult` instead of losing the sweep, up to the runner's
  ``max_failures`` budget (0, the default, keeps fail-fast semantics
  by raising :exc:`SweepAborted` on the first failure);
* a crashed worker (``BrokenProcessPool``) only costs its pool's
  unfinished chunks, which are re-queued on a rebuilt pool
  :data:`POOL_RETRIES` times;
* completed points are journaled to ``<out>.partial.jsonl`` as they
  land, so an interrupted or partly failed sweep resumes (``python -m
  repro sweep --resume``) without recomputing journaled points.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from ..apps.registry import SIM_SIZES
from .cache import CacheStats, StageCache
from .stages import PointResult, PointSpec, frontend_key, run_point

__all__ = [
    "GridSpec",
    "PointFailure",
    "SweepAborted",
    "SweepResult",
    "SweepRunner",
    "execute_point",
    "fig6_grid",
    "fig6x_grid",
    "journal_path",
    "load_journal",
    "SWEEP_SCHEMA_VERSION",
    "POOL_RETRIES",
]

DEFAULT_APPS: tuple[str, ...] = ("gse", "sq", "sha1", "im")

SWEEP_SCHEMA_VERSION = 2
"""Schema of persisted sweep reports.  v1 (pre-fault-tolerance) had no
``schema`` field and no ``failures``; the loader accepts both."""

POOL_RETRIES = 2
"""Times a chunk lost with a crashed worker is re-queued on a rebuilt
pool before its points are recorded as failures.  One dead worker
makes ``ProcessPoolExecutor`` fail *every* pending future of its pool,
so without the re-queue a single OOM kill would fail every chunk in
flight."""


class SweepAborted(RuntimeError):
    """Failure count exceeded the sweep's ``max_failures`` budget.

    Attributes:
        failures: Every :class:`PointFailure` collected before the
            abort, including the one that crossed the budget.
    """

    def __init__(self, message: str, failures: list[PointFailure]):
        super().__init__(message)
        self.failures = failures


@dataclasses.dataclass(frozen=True)
class PointFailure:
    """Structured record of one grid point that failed.

    Attributes:
        spec: The failed point's spec (JSON round-trippable).
        stage: Innermost pipeline stage the error escaped from
            (``"pool"`` for a chunk lost with its worker in every pool
            round).
        error: ``repr`` of the exception.
        error_type: Exception class name.
        attempts: 1 for a point that raised; the number of pool rounds
            for a point whose chunk was lost.
        elapsed_seconds: Wall-clock of the failed run (0 for a lost
            chunk).
    """

    spec: PointSpec
    stage: str
    error: str
    error_type: str
    attempts: int
    elapsed_seconds: float

    def to_jsonable(self) -> dict:
        return {
            "spec": self.spec.to_jsonable(),
            "stage": self.stage,
            "error": self.error,
            "error_type": self.error_type,
            "attempts": self.attempts,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_jsonable(cls, payload: dict) -> "PointFailure":
        return cls(
            spec=PointSpec.from_jsonable(payload["spec"]),
            stage=payload["stage"],
            error=payload["error"],
            error_type=payload.get("error_type", "Exception"),
            attempts=payload.get("attempts", 1),
            elapsed_seconds=payload.get("elapsed_seconds", 0.0),
        )


def execute_point(
    spec: PointSpec, cache: StageCache
) -> Union[PointResult, PointFailure]:
    """Run one grid point once; never raises.

    An exception escaping the point becomes a :class:`PointFailure`.
    Its stage is the innermost stage the exception escaped from, which
    :class:`~repro.runner.cache.StageCache` tags on it, or ``"point"``
    for one raised outside any stage.  Every stage is a pure function
    of its :class:`~repro.runner.keys.StageKey`, so a point that raised
    would raise again: nothing retries it within the run, and ``sweep
    --resume`` re-runs it in a later one.
    """
    spec = spec.normalized()
    start = time.perf_counter()
    try:
        return run_point(spec, cache)
    except Exception as error:  # noqa: BLE001 - isolation boundary
        return PointFailure(
            spec=spec,
            stage=getattr(error, "_repro_stage", "point"),
            error=repr(error),
            error_type=type(error).__name__,
            attempts=1,
            elapsed_seconds=time.perf_counter() - start,
        )


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """A declarative sweep grid.

    Attributes:
        apps: Applications to sweep.
        sizes: Per-app size knob; None uses each app's default size.  A
            value may be a single size or a *sequence* of sizes, so a
            Figure 9-style size sweep is one grid.
        policies: Braid policies to sweep.
        inline_depths: Flattening variants (None = fully inlined).
        regions: SIMD region count.
        tech_name: Technology preset.
        error_rate: Explicit error rate overriding the preset.
        error_rates: Error-rate *list* sweeping the technology axis
            (None entries fall back to ``tech_name``); overrides
            ``error_rate`` when given.
        distance: Code distance override for simulations.
        window: EPR look-ahead window.
    """

    apps: tuple[str, ...] = DEFAULT_APPS
    sizes: Optional[Mapping[str, Union[int, Sequence[int]]]] = None
    policies: tuple[int, ...] = (6,)
    inline_depths: tuple[Optional[int], ...] = (None,)
    regions: int = 4
    tech_name: str = "intermediate"
    error_rate: Optional[float] = None
    error_rates: Optional[tuple[Optional[float], ...]] = None
    distance: Optional[int] = None
    window: int = 64

    def _app_sizes(self, app: str) -> tuple[Optional[int], ...]:
        if self.sizes is None:
            return (None,)
        value = self.sizes.get(app)
        if value is None:
            return (None,)
        if isinstance(value, int):
            return (value,)
        return tuple(value)

    def _error_rates(self) -> tuple[Optional[float], ...]:
        if self.error_rates is not None:
            return tuple(self.error_rates)
        return (self.error_rate,)

    def expand(self) -> list[PointSpec]:
        """Cross product as normalized, deduplicated grid points."""
        specs: list[PointSpec] = []
        seen: set[str] = set()
        for app in self.apps:
            for size in self._app_sizes(app):
                for inline_depth in self.inline_depths:
                    for error_rate in self._error_rates():
                        for policy in self.policies:
                            spec = PointSpec(
                                app=app,
                                size=size,
                                inline_depth=inline_depth,
                                policy=policy,
                                regions=self.regions,
                                tech_name=self.tech_name,
                                error_rate=error_rate,
                                distance=self.distance,
                                window=self.window,
                            ).normalized()
                            digest = spec.key().digest
                            if digest not in seen:
                                seen.add(digest)
                                specs.append(spec)
        return specs


def fig6_grid(sizes: Optional[Mapping[str, int]] = None) -> GridSpec:
    """The Figure 6 sweep: four applications x seven braid policies."""
    return GridSpec(
        apps=DEFAULT_APPS,
        sizes=dict(sizes) if sizes is not None else dict(SIM_SIZES),
        policies=tuple(range(7)),
        distance=5,
    )


def fig6x_grid(sizes: Optional[Mapping[str, int]] = None) -> GridSpec:
    """The extended Fig. 6 plane: the paper's seven reactive policies
    plus the two classical-scheduler families (7 reservation-table,
    8 scoreboard) over the same four applications."""
    return GridSpec(
        apps=DEFAULT_APPS,
        sizes=dict(sizes) if sizes is not None else dict(SIM_SIZES),
        policies=tuple(range(9)),
        distance=5,
    )


@dataclasses.dataclass
class SweepResult:
    """Outcome of one sweep.

    Attributes:
        points: One result per *completed* deduplicated grid point, in
            grid order (failed points are absent here).
        stats: Cache hit/miss counters for this sweep (all workers).
        elapsed_seconds: Wall-clock time of the sweep.
        workers: Process count used (1 = in-process serial).
        failures: Structured records of every point that failed
            (empty on a fully successful sweep).
    """

    points: list[PointResult]
    stats: CacheStats
    elapsed_seconds: float
    workers: int
    failures: list[PointFailure] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every grid point completed."""
        return not self.failures

    def to_jsonable(self) -> dict:
        return {
            "schema": SWEEP_SCHEMA_VERSION,
            "points": [p.to_jsonable() for p in self.points],
            "failures": [f.to_jsonable() for f in self.failures],
            "stats": self.stats.as_dict(),
            "elapsed_seconds": self.elapsed_seconds,
            "workers": self.workers,
        }

    @classmethod
    def from_jsonable(cls, payload: dict) -> "SweepResult":
        schema = payload.get("schema", 1)
        if not isinstance(schema, int) or schema < 1:
            raise ValueError(f"invalid sweep report schema {schema!r}")
        if schema > SWEEP_SCHEMA_VERSION:
            raise ValueError(
                f"sweep report schema {schema} is newer than this "
                f"codebase understands (<= {SWEEP_SCHEMA_VERSION})"
            )
        # v1 reports predate fault tolerance: no failures were
        # recordable, so an empty list is exact, not a guess.
        failures = [
            PointFailure.from_jsonable(f)
            for f in payload.get("failures", [])
        ]
        return cls(
            points=[
                PointResult.from_jsonable(p) for p in payload["points"]
            ],
            stats=CacheStats.from_dict(payload.get("stats", {})),
            elapsed_seconds=payload.get("elapsed_seconds", 0.0),
            workers=payload.get("workers", 1),
            failures=failures,
        )

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_jsonable(), indent=1), encoding="utf-8"
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SweepResult":
        return cls.from_jsonable(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )


# ---------------------------------------------------------------------------
# Checkpoint journal


def journal_path(out: Union[str, Path]) -> Path:
    """The checkpoint journal companion of a sweep output file."""
    return Path(f"{out}.partial.jsonl")


def _journal_append(path: Path, point: PointResult) -> None:
    """Durably append one finished point to the journal.

    One JSON object per line, flushed and fsynced, so a sweep killed
    mid-run loses at most the point being written (a torn final line
    is skipped by :func:`load_journal`).  A resumed sweep may append
    after such a torn line, so the write re-establishes the line
    boundary first -- otherwise the new record would fuse with the
    fragment and both would be lost.
    """
    line = json.dumps(
        {
            "schema": SWEEP_SCHEMA_VERSION,
            "digest": point.spec.key().digest,
            "point": point.to_jsonable(),
        },
        separators=(",", ":"),
    )
    prefix = ""
    try:
        with open(path, "rb") as tail:
            tail.seek(-1, os.SEEK_END)
            if tail.read(1) != b"\n":
                prefix = "\n"
    except OSError:  # absent or empty journal: already at a boundary
        pass
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(prefix + line + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def load_journal(path: Union[str, Path]) -> dict[str, PointResult]:
    """Revive journaled points as ``{spec digest: result}``.

    Torn or corrupt lines (a SIGKILL mid-append) and entries whose
    recomputed spec digest disagrees with the recorded one are
    silently skipped: the sweep recomputes those points.
    """
    path = Path(path)
    revived: dict[str, PointResult] = {}
    if not path.exists():
        return revived
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                point = PointResult.from_jsonable(record["point"])
            except (
                json.JSONDecodeError,
                KeyError,
                TypeError,
                ValueError,
            ):
                continue
            digest = point.spec.key().digest
            if record.get("digest") not in (None, digest):
                continue
            revived[digest] = point
    return revived


# ---------------------------------------------------------------------------
# Worker entry point


def _run_chunk(spec_payloads: list[dict], cache_dir: Optional[str]) -> dict:
    """Worker entry point: run one chunk of points, isolated per point."""
    cache = StageCache(cache_dir)
    points: list[dict] = []
    failures: list[dict] = []
    for payload in spec_payloads:
        outcome = execute_point(PointSpec.from_jsonable(payload), cache)
        if isinstance(outcome, PointFailure):
            failures.append(outcome.to_jsonable())
        else:
            points.append(outcome.to_jsonable())
    return {
        "points": points,
        "failures": failures,
        "stats": cache.stats.as_dict(),
    }


class SweepRunner:
    """Expands grids, dedups shared work, and executes stage jobs.

    Args:
        cache: Stage cache to run through (made fresh if omitted).
        cache_dir: On-disk cache directory for the default cache; with
            ``workers > 1`` this is also how workers persist results.
        workers: Process count.  ``1`` (default) runs in-process and
            shares every stage through one memory cache; ``> 1`` fans
            work-stealing chunks of frontend-sharing groups out to a
            process pool (splitting the braid stage inside a group
            when workers outnumber groups).
        max_failures: Failure budget.  The sweep aborts with
            :exc:`SweepAborted` once *more* than
            this many points have failed; ``0`` (default) is the
            historical fail-fast behavior, ``None`` never aborts.
    """

    def __init__(
        self,
        cache: Optional[StageCache] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        workers: int = 1,
        max_failures: Optional[int] = 0,
    ):
        if cache is None:
            cache = StageCache(cache_dir)
        self.cache = cache
        self.workers = max(1, workers)
        self.max_failures = max_failures

    def run(
        self,
        grid: Union[GridSpec, Iterable[PointSpec]],
        journal: Optional[Union[str, Path]] = None,
        resume: bool = False,
    ) -> SweepResult:
        """Execute every grid point, computing shared prefixes once.

        Args:
            grid: Grid (or explicit point list) to sweep.
            journal: Checkpoint file; every finished point is appended
                as it lands, and a fresh (non-resume) run truncates any
                stale journal first.
            resume: Revive journaled points instead of recomputing
                them; only the remainder of the grid executes.
        """
        if isinstance(grid, GridSpec):
            specs = grid.expand()
        else:
            specs = _dedup(grid)
        start = time.perf_counter()
        done: dict[str, PointResult] = {}
        if journal is not None:
            journal = Path(journal)
            if resume:
                revived = load_journal(journal)
                wanted = {s.key().digest for s in specs}
                done = {
                    digest: point
                    for digest, point in revived.items()
                    if digest in wanted
                }
            elif journal.exists():
                journal.unlink()
            journal.parent.mkdir(parents=True, exist_ok=True)
        todo = [s for s in specs if s.key().digest not in done]
        failures: list[PointFailure] = []
        before = CacheStats.from_dict(self.cache.stats.as_dict())
        if self.workers == 1 or len(todo) <= 1:
            for spec in todo:
                outcome = execute_point(spec, self.cache)
                if isinstance(outcome, PointFailure):
                    failures.append(outcome)
                    self._maybe_abort(failures)
                else:
                    done[outcome.spec.key().digest] = outcome
                    if journal is not None:
                        _journal_append(journal, outcome)
            stats = _diff(self.cache.stats, before)
            workers = 1
        else:
            stats = self._run_parallel(todo, done, failures, journal)
            workers = self.workers
        order = {s.key().digest: i for i, s in enumerate(specs)}
        failures.sort(
            key=lambda f: order.get(f.spec.key().digest, len(order))
        )
        return SweepResult(
            points=[
                done[s.key().digest]
                for s in specs
                if s.key().digest in done
            ],
            stats=stats,
            elapsed_seconds=time.perf_counter() - start,
            workers=workers,
            failures=failures,
        )

    def _maybe_abort(self, failures: list[PointFailure]) -> None:
        if self.max_failures is None:
            return
        if len(failures) <= self.max_failures:
            return
        last = failures[-1]
        raise SweepAborted(
            f"sweep aborted: {len(failures)} point failure(s) exceeded "
            f"max_failures={self.max_failures} "
            f"(last: {last.error_type} in stage {last.stage!r}: "
            f"{last.error})",
            failures=list(failures),
        )

    def _run_parallel(
        self,
        specs: Sequence[PointSpec],
        done: dict[str, PointResult],
        failures: list[PointFailure],
        journal: Optional[Path],
    ) -> CacheStats:
        """Fan work-stealing chunks of frontend groups out to a pool.

        With more workers than frontend groups, each group's points --
        dominated by the per-policy braid simulations -- are striped
        across ``workers // groups`` chunk jobs, so the braid stage
        itself parallelizes instead of serializing behind one worker
        per group.  The pool queue is the steal queue: idle workers
        take whichever chunk is next.

        A worker that dies (OOM kill, segfault) breaks its pool, and
        every chunk still pending in it fails with
        ``BrokenProcessPool``.  Those chunks are re-queued on a freshly
        built pool, up to :data:`POOL_RETRIES` times; results that
        already landed are kept.
        """
        groups: dict[str, list[PointSpec]] = {}
        for spec in specs:
            digest = frontend_key(
                spec.app, spec.size, spec.inline_depth
            ).digest
            groups.setdefault(digest, []).append(spec)

        chunks: list[list[PointSpec]] = []
        splits = max(1, self.workers // max(1, len(groups)))
        for group in groups.values():
            stripes = min(splits, len(group))
            # Round-robin striping balances the per-policy cost skew
            # (policy 0/1 simulate far longer on contended apps).
            chunks.extend(
                group[offset::stripes] for offset in range(stripes)
            )

        cache_dir = (
            str(self.cache.disk_dir)
            if self.cache.disk_dir is not None
            else None
        )
        stats = CacheStats()
        rounds = 0
        while chunks:
            rounds += 1
            lost: list[list[PointSpec]] = []
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(chunks))
            ) as pool:
                futures = {
                    pool.submit(
                        _run_chunk,
                        [spec.to_jsonable() for spec in chunk],
                        cache_dir,
                    ): chunk
                    for chunk in chunks
                }
                for future in as_completed(futures):
                    chunk = futures[future]
                    try:
                        payload = future.result()
                    except Exception as error:
                        # A dead worker (OOM kill, segfault) fails every
                        # chunk pending in its pool with
                        # BrokenProcessPool; none of this chunk's points
                        # landed.
                        if rounds <= POOL_RETRIES:
                            lost.append(chunk)
                        else:
                            for spec in chunk:
                                failures.append(
                                    PointFailure(
                                        spec=spec,
                                        stage="pool",
                                        error=repr(error),
                                        error_type=type(error).__name__,
                                        attempts=rounds,
                                        elapsed_seconds=0.0,
                                    )
                                )
                        continue
                    stats.merge(CacheStats.from_dict(payload["stats"]))
                    for failure_payload in payload["failures"]:
                        failures.append(
                            PointFailure.from_jsonable(failure_payload)
                        )
                    for point_payload in payload["points"]:
                        point = PointResult.from_jsonable(point_payload)
                        done[point.spec.key().digest] = point
                        if journal is not None:
                            _journal_append(journal, point)
            chunks = lost
            self._maybe_abort(failures)
        return stats


def _dedup(specs: Iterable[PointSpec]) -> list[PointSpec]:
    out: list[PointSpec] = []
    seen: set[str] = set()
    for spec in specs:
        spec = spec.normalized()
        digest = spec.key().digest
        if digest not in seen:
            seen.add(digest)
            out.append(spec)
    return out


def _diff(after: CacheStats, before: CacheStats) -> CacheStats:
    """Counters accumulated between two snapshots of the same cache."""
    result = CacheStats()
    for name in ("hits", "disk_hits", "misses", "seconds", "waits"):
        now, then, out = (
            getattr(after, name),
            getattr(before, name),
            getattr(result, name),
        )
        for stage, count in now.items():
            delta = count - then.get(stage, 0)
            if delta:
                out[stage] = delta
    return result
