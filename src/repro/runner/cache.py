"""Two-level (memory + local disk) stage result cache.

The in-memory level stores live Python objects (circuits, machines,
result dataclasses) so stage invocations sharing a prefix — the same
frontend compilation across all seven braid policies, say — compute it
once per process.  The disk level persists JSON payloads through a
:class:`~repro.runner.backends.DiskStore` (checksummed records, gzip
above 4 KiB, atomic writes, and single-flight ``flock`` leadership
across the worker processes of one host), so sweeps resume across
processes and sessions and reports re-render without re-simulating.
Only :data:`CACHE_FORMAT_VERSION` records are served; any other format
is a miss and is recomputed over.

Cached artifacts are shared by reference: treat them as immutable.
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Union

from .backends import (
    CACHE_FORMAT_VERSION,
    CorruptEntry,
    DiskStore,
    FlightLease,
    decode_record,
    encode_record,
    make_record,
    stored_entry_sizes,
)
from .faults import active_plan
from .keys import StageKey

__all__ = [
    "CacheStats",
    "StageCache",
    "CACHE_FORMAT_VERSION",
    "QUARANTINE_DIR",
]

QUARANTINE_DIR = "quarantine"
"""Subdirectory of the disk cache holding corrupt entries moved aside
(each with a ``.reason.txt`` sidecar) instead of being silently
recomputed over."""


@dataclasses.dataclass
class CacheStats:
    """Per-stage hit/miss accounting.

    Attributes:
        hits: In-memory hits per stage.
        disk_hits: On-disk hits per stage (loaded, not recomputed).
        misses: Full computations per stage.
        seconds: Wall-clock *self* time spent computing per stage
            (time inside nested stage computations is attributed to
            the nested stage, not the caller).
        waits: Single-flight follower loads per stage — this process
            waited for another worker's compute, then loaded it (also
            counted in ``disk_hits``).
    """

    hits: dict[str, int] = dataclasses.field(default_factory=dict)
    disk_hits: dict[str, int] = dataclasses.field(default_factory=dict)
    misses: dict[str, int] = dataclasses.field(default_factory=dict)
    seconds: dict[str, float] = dataclasses.field(default_factory=dict)
    waits: dict[str, int] = dataclasses.field(default_factory=dict)

    def record_hit(self, stage: str) -> None:
        self.hits[stage] = self.hits.get(stage, 0) + 1

    def record_disk_hit(self, stage: str) -> None:
        self.disk_hits[stage] = self.disk_hits.get(stage, 0) + 1

    def record_miss(self, stage: str) -> None:
        self.misses[stage] = self.misses.get(stage, 0) + 1

    def record_seconds(self, stage: str, elapsed: float) -> None:
        self.seconds[stage] = self.seconds.get(stage, 0.0) + elapsed

    def record_wait(self, stage: str) -> None:
        self.waits[stage] = self.waits.get(stage, 0) + 1

    def merge(self, other: "CacheStats") -> None:
        """Fold another process's counters into this one."""
        for counter, theirs in (
            (self.hits, other.hits),
            (self.disk_hits, other.disk_hits),
            (self.misses, other.misses),
            (self.seconds, other.seconds),
            (self.waits, other.waits),
        ):
            for stage, count in theirs.items():
                counter[stage] = counter.get(stage, 0) + count

    def computed(self, stage: str) -> int:
        """How many times ``stage`` was actually executed."""
        return self.misses.get(stage, 0)

    def reused(self, stage: str) -> int:
        """How many executions were avoided for ``stage``."""
        return self.hits.get(stage, 0) + self.disk_hits.get(stage, 0)

    def stage_seconds(self, stage: str) -> float:
        """Wall-clock self time spent computing ``stage``."""
        return self.seconds.get(stage, 0.0)

    def as_dict(self) -> dict[str, dict]:
        return {
            "hits": dict(self.hits),
            "disk_hits": dict(self.disk_hits),
            "misses": dict(self.misses),
            "seconds": dict(self.seconds),
            "waits": dict(self.waits),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, dict]) -> "CacheStats":
        return cls(
            hits=dict(payload.get("hits", {})),
            disk_hits=dict(payload.get("disk_hits", {})),
            misses=dict(payload.get("misses", {})),
            seconds=dict(payload.get("seconds", {})),
            waits=dict(payload.get("waits", {})),
        )

    def summary(self) -> str:
        stages = sorted(
            set(self.hits) | set(self.disk_hits) | set(self.misses)
        )
        parts = []
        for stage in stages:
            part = (
                f"{stage}: {self.computed(stage)} computed, "
                f"{self.reused(stage)} reused"
            )
            if stage in self.seconds:
                part += f", {self.seconds[stage]:.2f}s"
            parts.append(part)
        return "; ".join(parts) if parts else "empty"


class StageCache:
    """Memoizes stage invocations in memory and (optionally) on disk.

    Args:
        disk_dir: Directory for JSON payloads; None disables the disk
            level.  Layout: ``<disk_dir>/<stage>/<digest>.json``,
            served through a :class:`~repro.runner.backends.DiskStore`.
    """

    def __init__(self, disk_dir: Optional[Union[str, os.PathLike]] = None):
        self._memory: dict[StageKey, Any] = {}
        self.disk = DiskStore(disk_dir) if disk_dir is not None else None
        self.disk_dir = self.disk.root if self.disk is not None else None
        self.stats = CacheStats()
        # Nested-compute bookkeeping for self-time attribution: each
        # frame accumulates the inclusive seconds of its child stages.
        self._child_seconds: list[float] = []

    def get_or_compute(
        self,
        key: StageKey,
        compute: Callable[[], Any],
        to_jsonable: Optional[Callable[[Any], Any]] = None,
        from_jsonable: Optional[Callable[[Any], Any]] = None,
        verify: Optional[Callable[[Any], None]] = None,
    ) -> Any:
        """Return the cached value for ``key``, computing on first use.

        Args:
            key: Stage invocation identity.
            compute: Zero-argument closure producing the value.  Lazy:
                only called on a miss, so upstream stages requested
                inside it are skipped entirely on a hit.
            to_jsonable: If given (with a disk level), persist the
                computed value as JSON.
            from_jsonable: If given (with a disk level), revive a value
                from a persisted payload instead of recomputing.
            verify: Optional validator run over a freshly computed or
                disk-revived value *before* it enters the memory cache
                (raise to reject — e.g.
                :func:`repro.analysis.verify.stage_verifier`).  Memory
                hits are trusted: they were verified on the way in.

        Stages persisted with *both* serializers run under
        single-flight stampede control: a process missing the key
        blocks on the store's lock for it, then loads the entry again.
        A waiter finds the leader's entry there (counted in
        :attr:`CacheStats.waits`); the leader, or a waiter whose entry
        cannot be used, computes and stores it.  The kernel releases a
        dead leader's lock, so the next waiter leads.
        """
        if key in self._memory:
            self.stats.record_hit(key.stage)
            return self._memory[key]
        loadable = self.disk is not None and from_jsonable is not None
        if loadable:
            payload = self.load_payload(key)
            if payload is not None:
                return self._admit(key, payload, from_jsonable, verify)
        lease: Optional[FlightLease] = None
        if loadable and to_jsonable is not None:
            lease = self.disk.lock(key.stage, key.digest)
        try:
            if lease is not None:
                payload = self.load_payload(key)
                if payload is not None:
                    self.stats.record_wait(key.stage)
                    return self._admit(key, payload, from_jsonable, verify)
            self.stats.record_miss(key.stage)
            start = time.perf_counter()
            self._child_seconds.append(0.0)
            try:
                plan = active_plan()
                if plan is not None:
                    plan.check("compute", key)
                value = compute()
            except BaseException as error:
                # Tag the *innermost* stage so isolation layers can
                # report where a point actually died (the tag survives
                # re-raising through enclosing stage frames).
                if not hasattr(error, "_repro_stage"):
                    error._repro_stage = key.stage
                raise
            finally:
                elapsed = time.perf_counter() - start
                nested = self._child_seconds.pop()
                if self._child_seconds:
                    self._child_seconds[-1] += elapsed
                self.stats.record_seconds(key.stage, elapsed - nested)
            if verify is not None:
                verify(value)
            self._memory[key] = value
            if self.disk is not None and to_jsonable is not None:
                self.store_payload(key, to_jsonable(value))
            return value
        finally:
            if lease is not None:
                lease.release()

    def _admit(
        self,
        key: StageKey,
        payload: Any,
        from_jsonable: Callable[[Any], Any],
        verify: Optional[Callable[[Any], None]],
    ) -> Any:
        """Revive, verify, and memoize a loaded disk payload."""
        value = from_jsonable(payload)
        if verify is not None:
            verify(value)
        self._memory[key] = value
        self.stats.record_disk_hit(key.stage)
        return value

    def load_payload(self, key: StageKey) -> Optional[Any]:
        """Read a persisted JSON payload, or None if absent/stale.

        An entry that exists but no longer decodes — or whose sha256
        checksum does not match its payload — is *quarantined*: moved
        to ``<disk_dir>/quarantine/<stage>/`` with a ``.reason.txt``
        sidecar before the miss is reported, so corrupt entries are
        preserved as evidence instead of being silently recomputed
        over.  An entry in another format than
        :data:`CACHE_FORMAT_VERSION` is stale, not corrupt: a miss,
        which the caller recomputes and stores over.
        """
        if self.disk is None:
            return None
        try:
            record = self.disk.load(key.stage, key.digest)
        except CorruptEntry as error:
            self.quarantine(
                self.disk.entry_path(key.stage, key.digest), error.reason
            )
            return None
        if record is None:
            return None
        if record.get("format") != CACHE_FORMAT_VERSION:
            return None
        return record.get("value")

    def quarantine(self, path: Path, reason: str) -> Optional[Path]:
        """Move a problematic disk entry aside with a reason sidecar.

        Returns the quarantined path (None when nothing could be
        preserved, e.g. the entry vanished concurrently).  When the
        move itself fails (cross-device rename, permissions) the entry
        is copied — or, failing that, unlinked — so a corrupt entry is
        *never* left in place to be re-read forever, and the
        ``.reason.txt`` sidecar is always written when the quarantine
        directory is reachable.  Quarantined entries are counted by
        :meth:`disk_stats` and listed by :meth:`verify`.
        """
        if self.disk_dir is None:
            return None
        path = Path(path)
        target_dir = self.disk_dir / QUARANTINE_DIR / path.parent.name
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
        except OSError:
            target_dir = None  # type: ignore[assignment]
        target: Optional[Path] = None
        if target_dir is not None:
            candidate = target_dir / path.name
            try:
                os.replace(path, candidate)
                target = candidate
            except FileNotFoundError:
                return None  # vanished concurrently: nothing to keep
            except OSError:
                try:
                    candidate.write_bytes(path.read_bytes())
                    target = candidate
                except OSError:
                    target = None
        # Whatever happened above, the corrupt entry must not survive
        # in place (it would fail every future load identically).
        try:
            path.unlink()
        except OSError:
            pass
        sidecar_base = target
        if sidecar_base is None and target_dir is not None:
            sidecar_base = target_dir / path.name
        if sidecar_base is not None:
            try:
                sidecar_base.with_suffix(".reason.txt").write_text(
                    reason + "\n", encoding="utf-8"
                )
            except OSError:
                pass
        return target

    def store_payload(self, key: StageKey, payload: Any) -> None:
        """Atomically persist a JSON payload for ``key``.

        The record carries a sha256 of its (JSON-normalized) payload
        and is encoded by :func:`~repro.runner.backends.encode_record`
        (gzip at 4 KiB and above).
        """
        if self.disk is None:
            return
        record = make_record(key.describe(), payload)
        self.disk.store(key.stage, key.digest, record)
        plan = active_plan()
        if plan is not None:
            self._apply_store_faults(plan, key, record)

    def _apply_store_faults(self, plan, key: StageKey, record: dict) -> None:
        """Damage the just-written entry per the active fault plan."""
        path = self.disk.entry_path(key.stage, key.digest)
        for action in plan.check("store", key):
            if action.op == "corrupt":
                path.write_text("{corrupt", encoding="utf-8")
            elif action.op == "torn":
                # A crash mid-write: only a prefix of the bytes landed.
                data = path.read_bytes()
                path.write_bytes(data[: max(1, len(data) // 2)])
            elif action.op == "flip":
                # Bit-rot: the payload no longer hashes to the
                # recorded checksum.
                damaged = dict(record)
                sha = damaged.get("sha256") or "0" * 64
                head = "1" if sha[0] == "0" else "0"
                damaged["sha256"] = head + sha[1:]
                self.disk.write_bytes(
                    key.stage, key.digest, encode_record(damaged)
                )

    def iter_payloads(self, stage: str) -> Iterator[dict[str, Any]]:
        """Yield all persisted records ({key, value}) for one stage."""
        if self.disk_dir is None:
            return
        stage_dir = self.disk_dir / stage
        if not stage_dir.is_dir():
            return
        for path in sorted(stage_dir.glob("*.json")):
            try:
                record = decode_record(path.read_bytes(), path=path)
            except (OSError, CorruptEntry):
                continue
            if record.get("format") == CACHE_FORMAT_VERSION:
                yield record

    # -- disk administration (``python -m repro cache``) ---------------------

    def _stage_dirs(self) -> list[Path]:
        if self.disk_dir is None or not self.disk_dir.is_dir():
            return []
        return sorted(
            p
            for p in self.disk_dir.iterdir()
            if p.is_dir() and p.name != QUARANTINE_DIR
        )

    def quarantined_count(self) -> int:
        """Number of entries ever quarantined (reason sidecars)."""
        if self.disk_dir is None:
            return 0
        quarantine = self.disk_dir / QUARANTINE_DIR
        if not quarantine.is_dir():
            return 0
        return sum(1 for _ in quarantine.glob("*/*.reason.txt"))

    def disk_stats(self) -> dict[str, Any]:
        """Entry counts, byte sizes, and age range of the disk level.

        Per-stage (and total) ``raw_bytes`` report the uncompressed
        payload sizes next to the stored ``bytes``, so the gzip
        policy's savings are visible.
        """
        stages: dict[str, dict[str, Any]] = {}
        total_entries = 0
        total_bytes = 0
        total_raw = 0
        total_compressed = 0
        for stage_dir in self._stage_dirs():
            entries = 0
            size = 0
            raw = 0
            compressed = 0
            oldest: Optional[float] = None
            newest: Optional[float] = None
            for path in stage_dir.glob("*.json"):
                try:
                    stat = path.stat()
                    _, raw_bytes, is_gz = stored_entry_sizes(path)
                except OSError:
                    continue
                entries += 1
                size += stat.st_size
                raw += raw_bytes
                compressed += 1 if is_gz else 0
                mtime = stat.st_mtime
                oldest = mtime if oldest is None else min(oldest, mtime)
                newest = mtime if newest is None else max(newest, mtime)
            if entries:
                stages[stage_dir.name] = {
                    "entries": entries,
                    "bytes": size,
                    "raw_bytes": raw,
                    "compressed_entries": compressed,
                    "oldest_mtime": oldest,
                    "newest_mtime": newest,
                }
                total_entries += entries
                total_bytes += size
                total_raw += raw
                total_compressed += compressed
        return {
            "dir": str(self.disk_dir) if self.disk_dir else None,
            "stages": stages,
            "total_entries": total_entries,
            "total_bytes": total_bytes,
            "total_raw_bytes": total_raw,
            "total_compressed_entries": total_compressed,
            "quarantined": self.quarantined_count(),
        }

    def prune(
        self,
        older_than_seconds: Optional[float] = None,
        stage: Optional[str] = None,
        now: Optional[float] = None,
    ) -> int:
        """Delete persisted payloads; returns the number removed.

        Args:
            older_than_seconds: Only remove entries whose mtime is at
                least this old; None removes unconditionally.
            stage: Restrict to one stage directory.
            now: Reference timestamp (testing hook; defaults to
                ``time.time()``).
        """
        reference = time.time() if now is None else now
        removed = 0
        for stage_dir in self._stage_dirs():
            if stage is not None and stage_dir.name != stage:
                continue
            for path in stage_dir.glob("*.json"):
                try:
                    if older_than_seconds is not None:
                        age = reference - path.stat().st_mtime
                        if age < older_than_seconds:
                            continue
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
        return removed

    def verify(self) -> dict[str, Any]:
        """Audit disk payloads: decoding, checksums, digest filenames.

        Every record embeds its key's human-readable description;
        rebuilding the :class:`StageKey` from it must reproduce the
        digest the file is named after (canonical JSON is stable under
        a decode/re-encode round trip).  Records must also hash to
        their recorded sha256 — a mismatch is reported under
        ``checksum`` and quarantined with a checksum reason.  Records
        in another format than :data:`CACHE_FORMAT_VERSION` are listed
        under ``stale_format`` and left for ``prune``.  Returns
        per-problem lists so callers can report or re-prune.
        """
        checked = 0
        ok = 0
        corrupt: list[str] = []
        checksum_bad: list[str] = []
        stale_format: list[str] = []
        mismatched: list[str] = []
        quarantined: list[str] = []
        for stage_dir in self._stage_dirs():
            for path in sorted(stage_dir.glob("*.json")):
                checked += 1
                try:
                    record = decode_record(path.read_bytes(), path=path)
                except OSError as error:
                    corrupt.append(str(path))
                    continue
                except CorruptEntry as error:
                    bucket = (
                        checksum_bad
                        if error.kind == "checksum"
                        else corrupt
                    )
                    bucket.append(str(path))
                    moved = self.quarantine(
                        path, f"failed verify: {error.reason}"
                    )
                    if moved is not None:
                        quarantined.append(str(moved))
                    continue
                if record.get("format") != CACHE_FORMAT_VERSION:
                    stale_format.append(str(path))
                    continue
                described = record.get("key") or {}
                try:
                    key = StageKey.make(
                        described["stage"], **described.get("params", {})
                    )
                except (KeyError, TypeError):
                    corrupt.append(str(path))
                    continue
                if (
                    key.stage != stage_dir.name
                    or key.digest != path.stem
                ):
                    mismatched.append(str(path))
                    continue
                ok += 1
        return {
            "checked": checked,
            "ok": ok,
            "corrupt": corrupt,
            "checksum": checksum_bad,
            "stale_format": stale_format,
            "mismatched": mismatched,
            "quarantined": quarantined,
            "quarantined_total": self.quarantined_count(),
        }

    def clear_memory(self) -> None:
        """Drop live objects (disk payloads survive)."""
        self._memory.clear()

    def __contains__(self, key: StageKey) -> bool:
        return key in self._memory

    def __len__(self) -> int:
        return len(self._memory)

    def _path(self, key: StageKey) -> Path:
        assert self.disk is not None
        return self.disk.entry_path(key.stage, key.digest)
