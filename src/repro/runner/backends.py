"""The stage cache's disk store: one local directory shared by the
worker processes of one host.

:class:`DiskStore` owns the ``<root>/<stage>/<digest>.json`` layout:

* every record embeds a sha256 of its payload, verified on load; an
  entry that fails to decode or to match its checksum raises
  :class:`CorruptEntry`, and the cache quarantines it;
* entries are replaced atomically (temporary file + ``os.replace``);
* :func:`encode_record` writes indented JSON, gzipped when it is at
  least :data:`GZIP_THRESHOLD` bytes and gzip makes it smaller.  Reads
  sniff the gzip magic, so plain and gzipped entries load alike;
* :meth:`DiskStore.lock` elects one leader per missing key with a
  blocking ``fcntl.flock`` on ``<stage>/<digest>.lock``, so N workers
  missing the same key compute it once.  The kernel drops a dead
  holder's lock, so nothing has to be judged stale or broken.

Record format (``CACHE_FORMAT_VERSION`` = 2)::

    {"format": 2, "key": {...}, "sha256": "<hex>", "value": ...}

The checksum covers the canonical JSON of the (JSON-normalized)
``value``, so it is stable across a store/load round trip.  A record
of another format decodes (format 1 had no checksum to verify), but
the cache reads it as stale: a miss, recomputed and stored over, never
quarantined.
"""

from __future__ import annotations

import fcntl
import gzip
import hashlib
import json
import os
import tempfile
import zlib
from pathlib import Path
from typing import Any, Optional, Union

__all__ = [
    "CACHE_FORMAT_VERSION",
    "GZIP_THRESHOLD",
    "CorruptEntry",
    "DiskStore",
    "FlightLease",
    "payload_checksum",
    "make_record",
    "encode_record",
    "decode_record",
    "stored_entry_sizes",
]

CACHE_FORMAT_VERSION = 2
"""The one format this codebase writes and serves.  Bumped from 1 when
records gained the ``sha256`` integrity checksum (and gzip became the
write policy for large payloads)."""

GZIP_THRESHOLD = 4096
"""Records at least this many encoded bytes are gzipped (tiny metric
records are left as grep-able plain JSON)."""

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


def encode_record(record: dict) -> bytes:
    """The bytes stored for one record.

    Indented JSON, gzipped at level 6 when it is at least
    :data:`GZIP_THRESHOLD` bytes and gzip makes it smaller.  ``gzip``
    runs with ``mtime=0`` so identical records encode to identical
    bytes, and re-running a sweep leaves the same cache tree.
    """
    plain = (json.dumps(record, indent=1) + "\n").encode("utf-8")
    if len(plain) < GZIP_THRESHOLD:
        return plain
    packed = gzip.compress(plain, compresslevel=6, mtime=0)
    return packed if len(packed) < len(plain) else plain


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


class FlightLease:
    """Leadership of one single-flight compute.

    Holds ``flock(LOCK_EX)`` on the lock file (``fd`` is None when the
    filesystem refused the lock) until :meth:`release`.
    """

    def __init__(self, lock_path: Path, fd: Optional[int]):
        self.lock_path = lock_path
        self._fd = fd
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        # Unlink while still holding the lock: a waiter blocked on this
        # inode then finds it gone from the path and locks afresh, so
        # the file never outlives its flight.
        try:
            os.unlink(self.lock_path)
        except OSError:
            pass
        if self._fd is not None:
            os.close(self._fd)


class DiskStore:
    """The ``<root>/<stage>/<digest>.json`` directory of one cache.

    Args:
        root: Cache directory.
    """

    def __init__(self, root: Union[str, os.PathLike]):
        self.root = Path(root)

    def entry_path(self, stage: str, digest: str) -> Path:
        return self.root / stage / f"{digest}.json"

    def lock_path(self, stage: str, digest: str) -> Path:
        return self.root / stage / f"{digest}.lock"

    def load(self, stage: str, digest: str) -> Optional[dict]:
        """Decode one entry; None when absent or unreadable.

        Raises:
            CorruptEntry: Present but undecodable or failing its
                checksum -- the caller owns quarantining.
        """
        path = self.entry_path(stage, digest)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        return decode_record(data, path=path)

    def store(self, stage: str, digest: str, record: dict) -> None:
        """Atomically replace one entry (tmp file + ``os.replace``)."""
        data = encode_record(record)
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

    def lock(self, stage: str, digest: str) -> FlightLease:
        """Block until this process leads the flight for one key.

        The caller loads the entry again under the lease: a waiter
        finds the leader's entry there.  After ``flock`` returns, the
        locked inode must still be the one at the path; otherwise its
        holder released (and unlinked) it while this process waited,
        and the lock is taken again on the path's new file.
        """
        path = self.lock_path(stage, digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        while True:
            fd = os.open(path, os.O_CREAT | os.O_RDWR)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
                if os.fstat(fd).st_ino == os.stat(path).st_ino:
                    return FlightLease(path, fd)
            except FileNotFoundError:
                pass
            except OSError:
                # Filesystem without locks: lead unlocked (writes are
                # atomic and idempotent, so only dedup is lost).
                os.close(fd)
                return FlightLease(path, None)
            except BaseException:
                os.close(fd)
                raise
            os.close(fd)
