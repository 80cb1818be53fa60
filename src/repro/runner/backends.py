"""Pluggable disk backends for the stage cache.

The :class:`~repro.runner.cache.StageCache` disk tier is built on a
small backend protocol so the same two-level cache can persist through:

* :class:`LocalDirBackend` -- the classic ``<root>/<stage>/<digest>
  .json`` layout, hardened for many cooperating processes: every record
  embeds a sha256 of its payload (verified on load; a mismatch is
  quarantined with a ``checksum`` reason), and missing keys are
  computed under **single-flight stampede control** -- an ``O_EXCL``
  lock file with staleness takeover, so N workers hitting the same
  missing key produce exactly one compute while the rest wait, then
  load the leader's entry.
* :class:`GzipBackend` -- a write-policy wrapper that transparently
  gzips records above a size threshold.  Reads are sniffed by magic
  bytes, so legacy uncompressed entries (and plain entries below the
  threshold) load forever; only *writes* are governed by the
  :data:`CACHE_FORMAT_VERSION` bump.
* :class:`RemoteBackend` -- a shared tier behind an HTTP or
  (shared-)filesystem endpoint, wrapped in the sweep runner's fault
  idiom: bounded retries with deterministic sha256-jittered exponential
  backoff, per-call timeouts, and a :class:`CircuitBreaker` that opens
  after consecutive failed calls.  An open breaker **degrades the
  cache to local-only** operation (tagged in
  :class:`~repro.runner.cache.CacheStats`); a dead shared tier never
  fails a sweep.

Record format (``CACHE_FORMAT_VERSION`` = 2)::

    {"format": 2, "key": {...}, "sha256": "<hex>", "value": ...}

The checksum covers the canonical JSON of the (JSON-normalized)
``value``, so it is stable across a store/load round trip.  Format-1
records (no checksum) remain readable; ``python -m repro cache
migrate`` rewrites them in place.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import platform
import tempfile
import time
import urllib.error
import urllib.request
import zlib
from pathlib import Path
from typing import Any, Optional, Protocol, Union

from .faults import RetryPolicy, active_plan

__all__ = [
    "CACHE_FORMAT_VERSION",
    "SUPPORTED_CACHE_FORMATS",
    "GZIP_THRESHOLD",
    "CorruptEntry",
    "CacheBackend",
    "FlightLease",
    "LocalDirBackend",
    "GzipBackend",
    "CircuitBreaker",
    "RemoteError",
    "RemoteTimeout",
    "RemoteBackend",
    "payload_checksum",
    "make_record",
    "decode_record",
    "stored_entry_sizes",
    "default_backend",
]

CACHE_FORMAT_VERSION = 2
"""Format written by this codebase.  Bumped from 1 when records gained
the ``sha256`` integrity checksum (and gzip became the default write
policy for large payloads)."""

SUPPORTED_CACHE_FORMATS = (1, 2)
"""Formats :meth:`LocalDirBackend.load` accepts.  Format 1 (no
checksum) is read forever; anything else is stale and recomputed."""

GZIP_THRESHOLD = 4096
"""Records at least this many encoded bytes are gzipped by
:class:`GzipBackend` (multi-MB ``lowered`` payloads compress ~10x;
tiny metric records are left as grep-able plain JSON)."""

_GZIP_MAGIC = b"\x1f\x8b"


class CorruptEntry(Exception):
    """A persisted record that failed decoding or integrity checks.

    Attributes:
        reason: Human-readable description (quarantine sidecar text).
        path: Offending file, when the record came from disk.
        kind: ``"undecodable"`` (bad gzip/JSON/shape) or ``"checksum"``
            (parsed fine but the sha256 does not match the payload).
    """

    def __init__(
        self,
        reason: str,
        path: Optional[Path] = None,
        kind: str = "undecodable",
    ):
        super().__init__(reason)
        self.reason = reason
        self.path = path
        self.kind = kind


def payload_checksum(value: Any) -> str:
    """sha256 over the canonical JSON of a (JSON-normalized) payload.

    Callers must pass a value that already round-trips through JSON
    unchanged (:func:`make_record` normalizes with a dumps/loads round
    trip first), so the checksum computed at store time equals the one
    recomputed from the decoded record at load time.
    """
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def make_record(key_description: dict, payload: Any) -> dict:
    """Build a current-format record with an integrity checksum."""
    # Normalize through JSON first: non-string dict keys and tuples
    # would otherwise hash differently before and after persistence.
    normalized = json.loads(json.dumps(payload))
    return {
        "format": CACHE_FORMAT_VERSION,
        "key": key_description,
        "sha256": payload_checksum(normalized),
        "value": normalized,
    }


def decode_record(
    data: bytes, path: Optional[Path] = None
) -> dict[str, Any]:
    """Decode stored record bytes (gzip-sniffing) and verify integrity.

    Raises:
        CorruptEntry: Undecodable bytes, a non-record JSON shape, or a
            format >= 2 record whose sha256 is absent or does not match
            its payload (``kind="checksum"``).
    """
    if data[:2] == _GZIP_MAGIC:
        try:
            data = gzip.decompress(data)
        except (OSError, EOFError, zlib.error) as error:
            raise CorruptEntry(
                f"undecodable gzip: {error}", path=path
            ) from error
    try:
        record = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CorruptEntry(
            f"undecodable JSON: {error}", path=path
        ) from error
    if not isinstance(record, dict):
        raise CorruptEntry(
            f"record is {type(record).__name__}, not an object", path=path
        )
    fmt = record.get("format")
    if isinstance(fmt, int) and fmt >= 2:
        recorded = record.get("sha256")
        if not recorded:
            raise CorruptEntry(
                "checksum missing from a format "
                f"{fmt} record", path=path, kind="checksum",
            )
        actual = payload_checksum(record.get("value"))
        if actual != recorded:
            raise CorruptEntry(
                f"checksum mismatch: recorded {recorded[:12]}… but "
                f"payload hashes to {actual[:12]}…",
                path=path,
                kind="checksum",
            )
    return record


def stored_entry_sizes(path: Path) -> tuple[int, int, bool]:
    """(stored_bytes, raw_bytes, is_compressed) for one disk entry.

    Raw size of a gzipped entry is read from the trailing ISIZE field
    (mod 2**32 -- exact for anything the cache writes), so stats never
    decompress payloads.
    """
    stored = path.stat().st_size
    with open(path, "rb") as handle:
        if handle.read(2) != _GZIP_MAGIC:
            return stored, stored, False
        handle.seek(-4, os.SEEK_END)
        raw = int.from_bytes(handle.read(4), "little")
    return stored, raw, True


class CacheBackend(Protocol):
    """What :class:`~repro.runner.cache.StageCache` needs from a disk
    tier.  All implementations share the ``<root>/<stage>/<digest>
    .json`` layout so cache administration (stats, prune, verify,
    migrate) stays backend-agnostic."""

    root: Path

    def entry_path(self, stage: str, digest: str) -> Path: ...

    def read_bytes(self, stage: str, digest: str) -> Optional[bytes]: ...

    def write_bytes(self, stage: str, digest: str, data: bytes) -> None: ...

    def encode(self, record: dict) -> bytes: ...

    def load(self, stage: str, digest: str) -> Optional[dict]: ...

    def store(self, stage: str, digest: str, record: dict) -> bytes: ...

    def wait_or_lead(
        self, stage: str, digest: str
    ) -> Optional["FlightLease"]: ...

    def health(self) -> dict[str, Any]: ...


class FlightLease:
    """Leadership of one single-flight compute (holds the lock file)."""

    def __init__(self, lock_path: Path):
        self.lock_path = lock_path
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        try:
            os.unlink(self.lock_path)
        except OSError:
            pass


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


class LocalDirBackend:
    """Plain-JSON directory backend with locks and checksums.

    Args:
        root: Cache directory (``<root>/<stage>/<digest>.json``).
        lock_stale_after: A lock file older than this (whose holder
            cannot be proven dead faster) is broken and taken over, so
            a crashed leader stalls followers for a bounded time.
        lock_poll: Sleep between follower polls of the lock/entry.
    """

    name = "local"

    def __init__(
        self,
        root: Union[str, os.PathLike],
        lock_stale_after: float = 600.0,
        lock_poll: float = 0.05,
    ):
        self.root = Path(root)
        self.lock_stale_after = lock_stale_after
        self.lock_poll = lock_poll
        self.flights_led = 0
        self.flights_waited = 0
        self.lock_takeovers = 0

    # -- raw bytes --------------------------------------------------------

    def entry_path(self, stage: str, digest: str) -> Path:
        return self.root / stage / f"{digest}.json"

    def read_bytes(self, stage: str, digest: str) -> Optional[bytes]:
        try:
            return self.entry_path(stage, digest).read_bytes()
        except OSError:
            return None

    def write_bytes(self, stage: str, digest: str, data: bytes) -> None:
        """Atomically replace one entry (tmp file + ``os.replace``)."""
        path = self.entry_path(stage, digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- records ----------------------------------------------------------

    def encode(self, record: dict) -> bytes:
        return (json.dumps(record, indent=1) + "\n").encode("utf-8")

    def load(self, stage: str, digest: str) -> Optional[dict]:
        """Decode one entry; None when absent/unreadable.

        Raises:
            CorruptEntry: Present but undecodable or failing its
                checksum -- the caller owns quarantining.
        """
        data = self.read_bytes(stage, digest)
        if data is None:
            return None
        return decode_record(data, path=self.entry_path(stage, digest))

    def store(self, stage: str, digest: str, record: dict) -> bytes:
        data = self.encode(record)
        self.write_bytes(stage, digest, data)
        return data

    # -- single-flight ----------------------------------------------------

    def lock_path(self, stage: str, digest: str) -> Path:
        return self.root / stage / f"{digest}.lock"

    def wait_or_lead(
        self, stage: str, digest: str
    ) -> Optional[FlightLease]:
        """Acquire compute leadership for a missing entry, or wait.

        Returns a :class:`FlightLease` when this process should compute
        (release it after storing), or None once another leader's entry
        has appeared (load it instead).  A lock whose holder is dead --
        or older than ``lock_stale_after`` -- is broken and taken over,
        so a leader crashing mid-compute never wedges the flight.
        """
        entry = self.entry_path(stage, digest)
        lock = self.lock_path(stage, digest)
        lock.parent.mkdir(parents=True, exist_ok=True)
        waited = False
        while True:
            if entry.exists():
                if waited:
                    self.flights_waited += 1
                return None
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if self._lock_stale(lock):
                    self._break_lock(lock)
                    continue
                waited = True
                time.sleep(self.lock_poll)
                continue
            except OSError:
                # Filesystem without O_EXCL semantics: lead unlocked
                # (correctness holds -- writes are atomic and
                # idempotent -- only dedup is lost).
                self.flights_led += 1
                return FlightLease(lock)
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "pid": os.getpid(),
                        "host": platform.node(),
                        "time": time.time(),
                    },
                    handle,
                )
            self.flights_led += 1
            return FlightLease(lock)

    def _lock_stale(self, lock: Path) -> bool:
        try:
            age = time.time() - lock.stat().st_mtime
        except OSError:
            return False  # gone: retry the acquire
        try:
            meta = json.loads(lock.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            meta = None  # mid-write by the holder; age decides
        if (
            isinstance(meta, dict)
            and meta.get("host") == platform.node()
            and isinstance(meta.get("pid"), int)
            and not _pid_alive(meta["pid"])
        ):
            return True
        return age > self.lock_stale_after

    def _break_lock(self, lock: Path) -> None:
        # Rename-to-unique before unlinking so two takeover attempts
        # cannot both "succeed" and then delete a *new* leader's lock.
        probe = lock.with_name(f"{lock.name}.break{os.getpid()}")
        try:
            os.replace(lock, probe)
        except OSError:
            return  # someone else broke it first
        try:
            os.unlink(probe)
        except OSError:
            pass
        self.lock_takeovers += 1

    def health(self) -> dict[str, Any]:
        return {
            "backend": self.name,
            "root": str(self.root),
            "single_flight": {
                "led": self.flights_led,
                "waited": self.flights_waited,
                "lock_takeovers": self.lock_takeovers,
            },
        }


class GzipBackend:
    """Write-policy wrapper gzipping records above a size threshold.

    Decoding is magic-byte sniffed (shared with the inner backend), so
    this wrapper only changes what new entries look like; every legacy
    plain-JSON entry keeps loading.  ``gzip`` is invoked with
    ``mtime=0`` so identical records encode to identical bytes --
    ``cache migrate`` relies on that to detect already-current entries.
    """

    name = "gzip"

    def __init__(
        self,
        inner: LocalDirBackend,
        threshold: int = GZIP_THRESHOLD,
        level: int = 6,
    ):
        self.inner = inner
        self.threshold = threshold
        self.level = level
        self.raw_bytes_written = 0
        self.stored_bytes_written = 0
        self.compressed_writes = 0
        self.plain_writes = 0

    @property
    def root(self) -> Path:
        return self.inner.root

    def entry_path(self, stage: str, digest: str) -> Path:
        return self.inner.entry_path(stage, digest)

    def read_bytes(self, stage: str, digest: str) -> Optional[bytes]:
        return self.inner.read_bytes(stage, digest)

    def write_bytes(self, stage: str, digest: str, data: bytes) -> None:
        self.inner.write_bytes(stage, digest, data)

    def encode(self, record: dict) -> bytes:
        plain = self.inner.encode(record)
        if len(plain) < self.threshold:
            return plain
        packed = gzip.compress(plain, compresslevel=self.level, mtime=0)
        return packed if len(packed) < len(plain) else plain

    def load(self, stage: str, digest: str) -> Optional[dict]:
        return self.inner.load(stage, digest)

    def store(self, stage: str, digest: str, record: dict) -> bytes:
        plain_len = len(self.inner.encode(record))
        data = self.encode(record)
        self.inner.write_bytes(stage, digest, data)
        self.raw_bytes_written += plain_len
        self.stored_bytes_written += len(data)
        if len(data) < plain_len:
            self.compressed_writes += 1
        else:
            self.plain_writes += 1
        return data

    def wait_or_lead(
        self, stage: str, digest: str
    ) -> Optional[FlightLease]:
        return self.inner.wait_or_lead(stage, digest)

    def health(self) -> dict[str, Any]:
        report = self.inner.health()
        report["gzip"] = {
            "threshold": self.threshold,
            "raw_bytes_written": self.raw_bytes_written,
            "stored_bytes_written": self.stored_bytes_written,
            "compressed_writes": self.compressed_writes,
            "plain_writes": self.plain_writes,
        }
        return report


def default_backend(root: Union[str, os.PathLike]) -> GzipBackend:
    """The shipped disk tier: local directory + gzip write policy."""
    return GzipBackend(LocalDirBackend(root))


# ---------------------------------------------------------------------------
# Remote tier


class RemoteError(RuntimeError):
    """The remote cache tier failed a call (after internal retries)."""


class RemoteTimeout(RemoteError):
    """A remote cache call exceeded its per-call time budget."""


class CircuitBreaker:
    """Opens after ``threshold`` consecutive failed calls.

    Once open it stays open for the life of the process: the cache
    operates local-only (tagged ``degraded`` in stats) instead of
    paying retries-plus-timeout on every key against a dead endpoint.
    """

    def __init__(self, threshold: int = 3):
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        self.threshold = threshold
        self.consecutive_failures = 0
        self.opened = False
        self.opens = 0

    @property
    def open(self) -> bool:
        return self.opened

    def record_success(self) -> None:
        self.consecutive_failures = 0

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if not self.opened and self.consecutive_failures >= self.threshold:
            self.opened = True
            self.opens += 1

    def health(self) -> dict[str, Any]:
        return {
            "state": "open" if self.opened else "closed",
            "threshold": self.threshold,
            "consecutive_failures": self.consecutive_failures,
            "opens": self.opens,
        }


class RemoteBackend:
    """Shared cache tier behind an HTTP or filesystem endpoint.

    Endpoints: ``http(s)://host/prefix`` (GET/PUT of
    ``/<stage>/<digest>.json``), ``file:///shared/dir``, or a bare
    directory path (e.g. an NFS mount).  Payloads are the exact bytes
    the local backend stored, so gzip policy and checksums carry over
    unchanged.

    Every call runs the sweep runner's fault idiom: up to
    ``retry.max_attempts`` attempts with deterministic sha256-jittered
    exponential backoff, a cooperative per-call ``timeout_s``, and the
    shared :class:`CircuitBreaker`.  Injected faults at the ``remote``
    site (``remote_error`` / ``remote_timeout`` / ``remote_hang``)
    make every outage mode seeded-reproducible.
    """

    name = "remote"

    def __init__(
        self,
        endpoint: str,
        retry: Optional[RetryPolicy] = None,
        timeout_s: float = 5.0,
        breaker: Optional[CircuitBreaker] = None,
    ):
        endpoint = str(endpoint)
        if endpoint.startswith("file://"):
            endpoint = endpoint[len("file://"):]
        self.endpoint = endpoint.rstrip("/")
        self.is_http = self.endpoint.startswith(("http://", "https://"))
        self.retry = (
            retry
            if retry is not None
            else RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=2.0)
        )
        self.timeout_s = timeout_s
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.fetches = 0
        self.pushes = 0
        self.retries = 0
        self.errors = 0

    @property
    def degraded(self) -> bool:
        """True once the breaker opened: cache runs local-only."""
        return self.breaker.open

    # -- public calls -----------------------------------------------------

    def fetch(
        self, stage: str, digest: str, key=None
    ) -> Optional[bytes]:
        """Raw entry bytes from the shared tier; None on a miss.

        Returns None *without touching the network* when the breaker is
        open.  Raises :exc:`RemoteError` when the endpoint fails a call
        even after retries (the caller degrades, never propagates).
        """
        if self.breaker.open:
            return None
        self.fetches += 1
        return self._call(
            "fetch",
            lambda: self._fetch_once(stage, digest),
            f"{stage}/{digest}",
            key,
        )

    def push(self, stage: str, digest: str, data: bytes, key=None) -> None:
        """Best-effort write-through of locally stored entry bytes."""
        if self.breaker.open:
            return
        self.pushes += 1
        self._call(
            "push",
            lambda: self._push_once(stage, digest, data),
            f"{stage}/{digest}",
            key,
        )

    # -- machinery --------------------------------------------------------

    def _call(self, kind: str, fn, token: str, key) -> Any:
        last: Optional[RemoteError] = None
        for attempt in range(1, self.retry.max_attempts + 1):
            pause = self.retry.delay(attempt, f"remote:{kind}:{token}")
            if pause:
                time.sleep(pause)
            if attempt > 1:
                self.retries += 1
            start = time.monotonic()
            try:
                self._injected(key)
                result = fn()
                elapsed = time.monotonic() - start
                if self.timeout_s is not None and elapsed > self.timeout_s:
                    raise RemoteTimeout(
                        f"remote {kind} took {elapsed:.2f}s, over the "
                        f"{self.timeout_s:g}s per-call budget"
                    )
            except RemoteError as error:
                self.errors += 1
                last = error
                continue
            self.breaker.record_success()
            return result
        self.breaker.record_failure()
        assert last is not None
        try:
            raise last
        finally:
            # Break the cycle last -> traceback -> this frame -> last.
            last = None

    def _injected(self, key) -> None:
        plan = active_plan()
        if plan is None:
            return
        for action in plan.check("remote", key):
            if action.op == "remote_error":
                raise RemoteError(
                    "injected remote server error (5xx)"
                )
            if action.op == "remote_timeout":
                raise RemoteTimeout("injected remote timeout")
            # remote_hang slept inside plan.check(); the elapsed
            # budget check in _call turns it into a RemoteTimeout.

    def _fetch_once(self, stage: str, digest: str) -> Optional[bytes]:
        if self.is_http:
            url = f"{self.endpoint}/{stage}/{digest}.json"
            try:
                with urllib.request.urlopen(
                    url, timeout=self.timeout_s
                ) as response:
                    return response.read()
            except urllib.error.HTTPError as error:
                if error.code == 404:
                    return None
                raise RemoteError(
                    f"GET {url} -> HTTP {error.code}"
                ) from error
            except TimeoutError as error:
                raise RemoteTimeout(f"GET {url} timed out") from error
            except (urllib.error.URLError, OSError) as error:
                raise RemoteError(f"GET {url} failed: {error}") from error
        path = Path(self.endpoint) / stage / f"{digest}.json"
        try:
            return path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as error:
            raise RemoteError(
                f"remote read {path} failed: {error}"
            ) from error

    def _push_once(self, stage: str, digest: str, data: bytes) -> None:
        if self.is_http:
            url = f"{self.endpoint}/{stage}/{digest}.json"
            request = urllib.request.Request(
                url, data=data, method="PUT"
            )
            try:
                with urllib.request.urlopen(
                    request, timeout=self.timeout_s
                ) as response:
                    if response.status >= 300:
                        raise RemoteError(
                            f"PUT {url} -> HTTP {response.status}"
                        )
            except urllib.error.HTTPError as error:
                raise RemoteError(
                    f"PUT {url} -> HTTP {error.code}"
                ) from error
            except TimeoutError as error:
                raise RemoteTimeout(f"PUT {url} timed out") from error
            except (urllib.error.URLError, OSError) as error:
                raise RemoteError(f"PUT {url} failed: {error}") from error
            return
        path = Path(self.endpoint) / stage / f"{digest}.json"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=path.stem, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as error:
            raise RemoteError(
                f"remote write {path} failed: {error}"
            ) from error

    def health(self) -> dict[str, Any]:
        return {
            "backend": self.name,
            "endpoint": self.endpoint,
            "protocol": "http" if self.is_http else "file",
            "timeout_s": self.timeout_s,
            "degraded": self.degraded,
            "breaker": self.breaker.health(),
            "calls": {
                "fetches": self.fetches,
                "pushes": self.pushes,
                "retries": self.retries,
                "errors": self.errors,
            },
        }
