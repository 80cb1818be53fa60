"""The disk store: record checksums, gzip encoding, flock
single-flight (deterministic interleavings + 8-way multiprocessing
stress + leader kill), and the injected store fault modes (torn
write, checksum flip)."""

import errno
import fcntl
import gzip
import json
import multiprocessing
import os
import threading
import time
import types
from pathlib import Path

import pytest

from repro.runner import CorruptEntry, DiskStore, StageCache, StageKey
from repro.runner import backends
from repro.runner.backends import (
    CACHE_FORMAT_VERSION,
    GZIP_THRESHOLD,
    FlightLease,
    decode_record,
    encode_record,
    make_record,
    payload_checksum,
    stored_entry_sizes,
)
from repro.runner.cli import main as cli_main

from .faultplan import KILL_EXIT_CODE, Fault, injected

KEY = StageKey.make("demo", x=1)


def _entry(cache: StageCache) -> Path:
    return cache.disk.entry_path(KEY.stage, KEY.digest)


def _identity_cache_args():
    return dict(to_jsonable=lambda v: v, from_jsonable=lambda p: p)


# ---------------------------------------------------------------------------
# Record format


class TestRecordFormat:
    def test_round_trip_with_checksum(self):
        record = make_record(KEY.describe(), {"v": [1, 2, 3]})
        assert record["format"] == CACHE_FORMAT_VERSION
        assert record["sha256"] == payload_checksum(record["value"])
        assert decode_record(encode_record(record)) == record

    def test_normalizes_non_string_dict_keys(self):
        # int dict keys sort numerically before persistence but
        # lexicographically (as strings) after a JSON round trip; the
        # checksum must be computed over the normalized form.
        payload = {10: "a", 9: "b", 2: "c"}
        record = make_record(KEY.describe(), payload)
        rebuilt = json.loads(json.dumps(record))
        assert payload_checksum(rebuilt["value"]) == record["sha256"]

    def test_checksum_mismatch_raises_checksum_kind(self):
        record = make_record(KEY.describe(), {"v": 1})
        record["sha256"] = "0" * 64
        with pytest.raises(CorruptEntry) as excinfo:
            decode_record(json.dumps(record).encode())
        assert excinfo.value.kind == "checksum"
        assert "checksum" in excinfo.value.reason

    def test_missing_checksum_on_format_2_raises(self):
        record = make_record(KEY.describe(), {"v": 1})
        del record["sha256"]
        with pytest.raises(CorruptEntry) as excinfo:
            decode_record(json.dumps(record).encode())
        assert excinfo.value.kind == "checksum"

    def test_legacy_format_1_needs_no_checksum(self):
        legacy = {"format": 1, "key": KEY.describe(), "value": {"v": 7}}
        assert decode_record(json.dumps(legacy).encode()) == legacy

    def test_garbage_and_truncated_gzip_are_undecodable(self):
        with pytest.raises(CorruptEntry) as excinfo:
            decode_record(b"{not json")
        assert excinfo.value.kind == "undecodable"
        packed = gzip.compress(b'{"format": 1}', mtime=0)
        with pytest.raises(CorruptEntry):
            decode_record(packed[: len(packed) // 2])

    def test_non_object_record_rejected(self):
        with pytest.raises(CorruptEntry):
            decode_record(b"[1, 2, 3]")


# ---------------------------------------------------------------------------
# Gzip encoding


class TestGzipEncoding:
    def test_small_records_stay_plain_json(self, tmp_path):
        store = DiskStore(tmp_path)
        store.store("demo", KEY.digest, make_record(KEY.describe(), {"v": 1}))
        raw = store.entry_path("demo", KEY.digest).read_bytes()
        assert raw[:1] == b"{"

    def test_large_records_gzip_and_round_trip(self, tmp_path):
        store = DiskStore(tmp_path)
        payload = {"rows": [[i] * 40 for i in range(200)]}
        record = make_record(KEY.describe(), payload)
        store.store("demo", KEY.digest, record)
        path = store.entry_path("demo", KEY.digest)
        stored, raw, compressed = stored_entry_sizes(path)
        assert compressed and stored < raw
        assert store.load("demo", KEY.digest) == record

    def test_format_1_entry_is_a_miss_and_is_overwritten(self, tmp_path):
        # A format-1 record predates checksums: stale, not corrupt.
        cache = StageCache(tmp_path)
        legacy = {"format": 1, "key": KEY.describe(), "value": {"v": 3}}
        path = _entry(cache)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(legacy), encoding="utf-8")
        value = cache.get_or_compute(
            KEY, lambda: {"v": 4}, **_identity_cache_args()
        )
        assert value == {"v": 4}
        assert cache.stats.misses == {"demo": 1}
        assert cache.stats.disk_hits == {}
        assert cache.quarantined_count() == 0
        record = decode_record(path.read_bytes())
        assert record["format"] == CACHE_FORMAT_VERSION
        assert record["value"] == {"v": 4}

    def test_encoding_is_deterministic(self):
        record = make_record(
            KEY.describe(), {"rows": [[i] * 40 for i in range(200)]}
        )
        assert encode_record(record) == encode_record(record)

    def test_bytes_are_indented_json_gzipped_at_level_6(self):
        # The stored bytes are a format: a sweep must leave the same
        # cache tree as every earlier version of the store.
        small = make_record(KEY.describe(), {"v": 1})
        plain = (json.dumps(small, indent=1) + "\n").encode("utf-8")
        assert encode_record(small) == plain
        large = make_record(
            KEY.describe(), {"rows": [[i] * 40 for i in range(200)]}
        )
        plain = (json.dumps(large, indent=1) + "\n").encode("utf-8")
        assert encode_record(large) == gzip.compress(
            plain, compresslevel=6, mtime=0
        )

    def test_gzip_threshold_is_inclusive(self):
        def padded(pad):
            record = make_record(KEY.describe(), {"pad": "a" * pad})
            return record, len(json.dumps(record, indent=1)) + 1

        _, base = padded(0)
        below, below_size = padded(GZIP_THRESHOLD - 1 - base)
        at, at_size = padded(GZIP_THRESHOLD - base)
        assert (below_size, at_size) == (GZIP_THRESHOLD - 1, GZIP_THRESHOLD)
        assert encode_record(below)[:1] == b"{"
        assert encode_record(at)[:2] == b"\x1f\x8b"


class TestDiskStore:
    def test_failed_replace_keeps_the_old_entry(self, tmp_path, monkeypatch):
        store = DiskStore(tmp_path)
        old = make_record(KEY.describe(), {"v": "old"})
        store.store("demo", KEY.digest, old)

        def no_space(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(backends.os, "replace", no_space)
        with pytest.raises(OSError, match="No space"):
            store.store(
                "demo", KEY.digest, make_record(KEY.describe(), {"v": "new"})
            )
        monkeypatch.undo()
        assert store.load("demo", KEY.digest) == old
        assert [p.name for p in (tmp_path / "demo").iterdir()] == [
            f"{KEY.digest}.json"
        ], "temporary file left behind"


# ---------------------------------------------------------------------------
# Single-flight (in-process semantics)


def _start(fn, name=None):
    """Run ``fn`` on a daemon thread; its return value lands in the
    thread's ``results`` list."""
    results = []
    thread = threading.Thread(
        target=lambda: results.append(fn()), name=name, daemon=True
    )
    thread.results = results
    thread.start()
    return thread


class TestSingleFlightLocal:
    def test_leader_then_follower(self, tmp_path):
        store = DiskStore(tmp_path)
        lease = store.lock("demo", KEY.digest)
        assert lease.lock_path.exists()
        follower = StageCache(tmp_path)
        thread = _start(
            lambda: follower.get_or_compute(
                KEY, lambda: {"v": "follower"}, **_identity_cache_args()
            )
        )
        store.store(
            "demo", KEY.digest, make_record(KEY.describe(), {"v": "leader"})
        )
        lease.release()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert thread.results == [{"v": "leader"}]
        assert not lease.lock_path.exists()
        lease.release()  # idempotent

    def test_second_lock_blocks_until_release(self, tmp_path):
        store = DiskStore(tmp_path)
        first = store.lock("demo", KEY.digest)
        second = _start(lambda: store.lock("demo", KEY.digest))
        second.join(timeout=0.2)
        assert second.is_alive() and not second.results
        first.release()
        second.join(timeout=10)
        assert not second.is_alive()
        [lease] = second.results
        assert lease.lock_path.exists()
        lease.release()

    def test_leftover_lock_file_does_not_block(self, tmp_path):
        # A killed leader's lock file: still there, but nobody holds it.
        lock = DiskStore(tmp_path).lock_path("demo", KEY.digest)
        lock.parent.mkdir(parents=True)
        lock.write_text("left by a killed leader", encoding="utf-8")
        cache = StageCache(tmp_path)
        thread = _start(
            lambda: cache.get_or_compute(
                KEY, lambda: {"v": 1}, **_identity_cache_args()
            )
        )
        thread.join(timeout=10)
        assert thread.results == [{"v": 1}]
        assert not lock.exists()

    def test_old_lock_of_a_live_leader_is_never_taken_over(self, tmp_path):
        computes = []
        computing = threading.Event()
        finish = threading.Event()

        def compute_a():
            computes.append("A")
            computing.set()
            assert finish.wait(timeout=30)
            return {"v": "A"}

        def compute_b():
            computes.append("B")
            return {"v": "B"}

        leader = StageCache(tmp_path)
        a = _start(
            lambda: leader.get_or_compute(
                KEY, compute_a, **_identity_cache_args()
            )
        )
        assert computing.wait(timeout=10)
        os.utime(tmp_path / "demo" / f"{KEY.digest}.lock", (1, 1))
        follower = StageCache(tmp_path)
        b = _start(
            lambda: follower.get_or_compute(
                KEY, compute_b, **_identity_cache_args()
            )
        )
        b.join(timeout=0.5)  # time enough for a takeover to compute
        finish.set()
        for thread in (a, b):
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert computes == ["A"]
        assert b.results == [{"v": "A"}]

    def test_waiter_relocks_a_replaced_lock_file(self, tmp_path, monkeypatch):
        # flock's trap: waiter A has opened the lock file; the holder
        # then releases it (unlinking the path) and B locks a new file
        # there, all before A's flock returns.  A holds a lock on the
        # old inode then, and must go round again instead of leading.
        store = DiskStore(tmp_path)
        holder = store.lock("demo", KEY.digest)
        opened = threading.Event()
        proceed = threading.Event()
        relocking = threading.Event()
        calls = []

        def flock(fd, operation):
            if threading.current_thread().name == "A":
                calls.append(fd)
                if len(calls) == 1:
                    opened.set()
                    assert proceed.wait(timeout=10)
                elif len(calls) == 2:
                    relocking.set()
            fcntl.flock(fd, operation)

        monkeypatch.setattr(
            backends,
            "fcntl",
            types.SimpleNamespace(LOCK_EX=fcntl.LOCK_EX, flock=flock),
        )
        waiter = _start(lambda: store.lock("demo", KEY.digest), name="A")
        assert opened.wait(timeout=10)
        holder.release()
        b = store.lock("demo", KEY.digest)
        proceed.set()
        assert relocking.wait(timeout=10), "A led on the unlinked file"
        waiter.join(timeout=0.2)
        assert waiter.is_alive() and not waiter.results, "A led beside B"
        b.release()
        waiter.join(timeout=10)
        assert not waiter.is_alive()
        [lease] = waiter.results
        assert isinstance(lease, FlightLease) and lease.lock_path.exists()
        lease.release()

    def test_follower_counts_a_wait_not_a_miss(self, tmp_path, monkeypatch):
        store = DiskStore(tmp_path)
        lease = store.lock("demo", KEY.digest)
        locking = threading.Event()

        def flock(fd, operation):
            if threading.current_thread().name == "follower":
                locking.set()
            fcntl.flock(fd, operation)

        monkeypatch.setattr(
            backends,
            "fcntl",
            types.SimpleNamespace(LOCK_EX=fcntl.LOCK_EX, flock=flock),
        )
        follower = StageCache(tmp_path)
        thread = _start(
            lambda: follower.get_or_compute(
                KEY, lambda: {"v": "follower"}, **_identity_cache_args()
            ),
            name="follower",
        )
        # Past its first (missing) load, the follower is at the lock.
        assert locking.wait(timeout=10)
        store.store(
            "demo", KEY.digest, make_record(KEY.describe(), {"v": "leader"})
        )
        lease.release()
        thread.join(timeout=10)
        assert thread.results == [{"v": "leader"}]
        assert follower.stats.waits == {"demo": 1}
        assert follower.stats.disk_hits == {"demo": 1}
        assert follower.stats.misses == {}

    def test_failed_compute_releases_the_lock(self, tmp_path):
        def fail():
            raise RuntimeError("compute failed")

        with pytest.raises(RuntimeError, match="compute failed"):
            StageCache(tmp_path).get_or_compute(
                KEY, fail, **_identity_cache_args()
            )
        assert not list((tmp_path / "demo").glob("*.lock"))
        retry = _start(
            lambda: StageCache(tmp_path).get_or_compute(
                KEY, lambda: {"v": 2}, **_identity_cache_args()
            )
        )
        retry.join(timeout=10)
        assert not retry.is_alive(), "the failed leader kept its lock"
        assert retry.results == [{"v": 2}]

    def test_waiter_relocks_after_the_lock_file_is_removed(
        self, tmp_path, monkeypatch
    ):
        # Waiter A has opened the lock file; the holder then releases
        # it (unlinking the path) and nobody locks the path before A's
        # flock returns.  A holds a lock on an unlinked inode then, and
        # must lead on a fresh file at the path instead.
        store = DiskStore(tmp_path)
        holder = store.lock("demo", KEY.digest)
        opened = threading.Event()
        proceed = threading.Event()
        calls = []

        def flock(fd, operation):
            if threading.current_thread().name == "A":
                calls.append(fd)
                if len(calls) == 1:
                    opened.set()
                    assert proceed.wait(timeout=10)
            fcntl.flock(fd, operation)

        monkeypatch.setattr(
            backends,
            "fcntl",
            types.SimpleNamespace(LOCK_EX=fcntl.LOCK_EX, flock=flock),
        )
        waiter = _start(lambda: store.lock("demo", KEY.digest), name="A")
        assert opened.wait(timeout=10)
        holder.release()
        assert not holder.lock_path.exists()
        proceed.set()
        waiter.join(timeout=10)
        assert not waiter.is_alive()
        [lease] = waiter.results
        assert len(calls) == 2, "A led on the unlinked file"
        assert lease.lock_path.exists()
        contender = _start(lambda: store.lock("demo", KEY.digest))
        contender.join(timeout=0.2)
        assert contender.is_alive(), "A's lock is not on the path's file"
        lease.release()
        contender.join(timeout=10)
        [second] = contender.results
        second.release()

    def test_filesystem_without_locks_leads_unlocked(
        self, tmp_path, monkeypatch
    ):
        def flock(fd, operation):
            raise OSError(errno.ENOLCK, "No locks available")

        monkeypatch.setattr(
            backends,
            "fcntl",
            types.SimpleNamespace(LOCK_EX=fcntl.LOCK_EX, flock=flock),
        )
        store = DiskStore(tmp_path)
        first = store.lock("demo", KEY.digest)
        second = _start(lambda: store.lock("demo", KEY.digest))
        second.join(timeout=10)
        assert not second.is_alive(), "the unlocked fallback blocked"
        first.release()
        second.results[0].release()
        cache = StageCache(tmp_path)
        computed = _start(
            lambda: cache.get_or_compute(
                KEY, lambda: {"v": 3}, **_identity_cache_args()
            )
        )
        computed.join(timeout=10)
        assert computed.results == [{"v": 3}]
        assert StageCache(tmp_path).load_payload(KEY) == {"v": 3}
        assert not list((tmp_path / "demo").glob("*.lock"))

    def test_followers_load_instead_of_recomputing(self, tmp_path):
        computes = []

        def compute():
            computes.append(1)
            return {"v": 42}

        leader = StageCache(tmp_path)
        value = leader.get_or_compute(KEY, compute, **_identity_cache_args())
        assert value == {"v": 42}
        follower = StageCache(tmp_path)
        assert (
            follower.get_or_compute(KEY, compute, **_identity_cache_args())
            == value
        )
        assert computes == [1]
        assert not list((tmp_path / "demo").glob("*.lock"))


# ---------------------------------------------------------------------------
# Single-flight (multiprocessing stress)


def _hammer_worker(root, log_path, out_path, barrier):
    """Worker for the 8-way stress: all processes miss the same key."""
    cache = StageCache(root)
    key = StageKey.make("demo", x=1)

    def compute():
        with open(log_path, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        time.sleep(0.05)  # widen the stampede window
        return {"rows": [[i] * 8 for i in range(64)], "pid_free": True}

    barrier.wait()
    value = cache.get_or_compute(
        key, compute, to_jsonable=lambda v: v, from_jsonable=lambda p: p
    )
    Path(out_path).write_text(
        json.dumps(value, sort_keys=True), encoding="utf-8"
    )


def _run_workers(tmp_path, count):
    log_path = tmp_path / "computes.log"
    log_path.touch()
    cache_root = tmp_path / "cache"
    # Forked, so the children inherit an injected fault.
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(count)
    workers = [
        context.Process(
            target=_hammer_worker,
            args=(
                str(cache_root),
                str(log_path),
                str(tmp_path / f"out-{idx}.json"),
                barrier,
            ),
        )
        for idx in range(count)
    ]
    for worker in workers:
        worker.start()
    deadline = time.time() + 60
    pending = list(workers)
    while pending and time.time() < deadline:
        # Join with a short timeout so exited children are reaped
        # promptly.
        for worker in list(pending):
            worker.join(timeout=0.05)
            if worker.exitcode is not None:
                pending.remove(worker)
    for worker in pending:
        worker.terminate()
        worker.join()
    assert not pending, "stress workers wedged"
    return workers, log_path, cache_root


@pytest.mark.slow
class TestSingleFlightStress:
    def test_eight_workers_one_compute(self, tmp_path):
        workers, log_path, cache_root = _run_workers(tmp_path, 8)
        assert [w.exitcode for w in workers] == [0] * 8
        computes = log_path.read_text(encoding="utf-8").splitlines()
        assert len(computes) == 1, computes
        outputs = {
            (tmp_path / f"out-{idx}.json").read_text(encoding="utf-8")
            for idx in range(8)
        }
        assert len(outputs) == 1, "loads diverged from the compute"
        audit = StageCache(cache_root).verify()
        assert audit["ok"] == audit["checked"] == 1
        assert audit["quarantined_total"] == 0
        assert not list((cache_root / "demo").glob("*.lock"))

    def test_lock_holder_kill_is_taken_over(self, tmp_path):
        # The injected kill fires at the compute site -- i.e. in
        # whichever forked worker won the lock -- so the flight's
        # leader dies holding the lock and a follower must take over.
        with injected(
            Fault("kill", "demo"), state_dir=tmp_path / "state"
        ) as plan:
            workers, log_path, cache_root = _run_workers(tmp_path, 4)
        assert plan.marker(0).exists(), "the kill never fired"
        exits = sorted(w.exitcode for w in workers)
        assert exits == [0, 0, 0, KILL_EXIT_CODE], exits
        computes = log_path.read_text(encoding="utf-8").splitlines()
        assert len(computes) == 1, computes
        outputs = {
            path.read_text(encoding="utf-8")
            for path in tmp_path.glob("out-*.json")
        }
        assert len(outputs) == 1
        audit = StageCache(cache_root).verify()
        assert audit["ok"] == audit["checked"] == 1
        assert audit["quarantined_total"] == 0
        assert not list((cache_root / "demo").glob("*.lock"))


# ---------------------------------------------------------------------------
# Quarantine hardening


class TestQuarantineFallback:
    def _corrupt_entry(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store_payload(KEY, {"v": 1})
        path = _entry(cache)
        path.write_text("{corrupt", encoding="utf-8")
        return cache, path

    def test_failed_move_falls_back_to_copy(self, tmp_path, monkeypatch):
        cache, path = self._corrupt_entry(tmp_path)
        import repro.runner.cache as cache_module

        real_replace = os.replace

        def exdev(src, dst):
            if "quarantine" in str(dst):
                raise OSError(18, "Invalid cross-device link")
            return real_replace(src, dst)

        monkeypatch.setattr(cache_module.os, "replace", exdev)
        target = cache.quarantine(path, "failed verify: test")
        assert target is not None and target.exists()
        assert not path.exists(), "corrupt entry left in place"
        sidecar = target.with_suffix(".reason.txt")
        assert "failed verify" in sidecar.read_text(encoding="utf-8")
        assert cache.quarantined_count() == 1

    def test_failed_move_and_copy_still_unlinks(self, tmp_path, monkeypatch):
        cache, path = self._corrupt_entry(tmp_path)
        import repro.runner.cache as cache_module

        real_replace = os.replace

        def exdev(src, dst):
            if "quarantine" in str(dst):
                raise OSError(18, "Invalid cross-device link")
            return real_replace(src, dst)

        monkeypatch.setattr(cache_module.os, "replace", exdev)
        monkeypatch.setattr(
            Path,
            "write_bytes",
            lambda self, data: (_ for _ in ()).throw(OSError("denied")),
        )
        assert cache.quarantine(path, "broken disk") is None
        assert not path.exists(), "corrupt entry left in place"
        # The reason sidecar still lands (written via write_text).
        assert cache.quarantined_count() == 1

    def test_checksum_flip_quarantined_with_checksum_reason(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store_payload(KEY, {"v": 1})
        path = _entry(cache)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["sha256"] = "f" * 64
        path.write_text(json.dumps(record), encoding="utf-8")
        assert cache.load_payload(KEY) is None
        sidecar = (
            cache.disk_dir
            / "quarantine"
            / "demo"
            / f"{KEY.digest}.reason.txt"
        )
        assert "checksum" in sidecar.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Store-site fault modes (torn write, checksum flip)


class TestStoreFaults:
    def _stored_under_fault(self, tmp_path, op):
        cache = StageCache(tmp_path)
        computes = []
        with injected(Fault(op, "demo")):
            cache.get_or_compute(
                KEY,
                lambda: computes.append(1) or {"v": 5},
                **_identity_cache_args(),
            )
        return cache, computes

    @pytest.mark.parametrize("op", ["torn", "flip"])
    def test_damaged_entry_recomputed_and_quarantined(self, tmp_path, op):
        cache, computes = self._stored_under_fault(tmp_path, op)
        fresh = StageCache(tmp_path)
        value = fresh.get_or_compute(
            KEY,
            lambda: computes.append(1) or {"v": 5},
            **_identity_cache_args(),
        )
        assert value == {"v": 5}
        assert len(computes) == 2, "damaged entry served instead of recomputed"
        assert fresh.quarantined_count() == 1

    def test_flip_is_reported_as_checksum_by_verify(self, tmp_path):
        cache, _ = self._stored_under_fault(tmp_path, "flip")
        audit = StageCache(tmp_path).verify()
        assert len(audit["checksum"]) == 1
        assert audit["corrupt"] == []
        assert audit["quarantined_total"] == 1

    def test_torn_is_undecodable(self, tmp_path):
        cache, _ = self._stored_under_fault(tmp_path, "torn")
        audit = StageCache(tmp_path).verify()
        assert len(audit["corrupt"]) == 1
        assert audit["checksum"] == []


# ---------------------------------------------------------------------------
# Stats plumbing


class TestStatsPlumbing:
    def test_waits_round_trip_and_merge(self):
        from repro.runner import CacheStats

        stats = CacheStats()
        stats.record_wait("demo")
        again = CacheStats.from_dict(stats.as_dict())
        assert again.as_dict() == stats.as_dict()

        other = CacheStats()
        other.record_wait("demo")
        stats.merge(other)
        assert stats.waits == {"demo": 2}

    def test_disk_stats_reports_raw_and_compressed(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store_payload(KEY, {"rows": [[i] * 40 for i in range(200)]})
        cache.store_payload(StageKey.make("demo", x=2), {"v": 1})
        stats = cache.disk_stats()
        demo = stats["stages"]["demo"]
        assert demo["entries"] == 2
        assert demo["compressed_entries"] == 1
        assert demo["raw_bytes"] > demo["bytes"]
        assert stats["total_raw_bytes"] > stats["total_bytes"]


# ---------------------------------------------------------------------------
# CLI surface


class TestBackendCli:
    def _seed(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.store_payload(KEY, {"rows": [[i] * 40 for i in range(200)]})
        return cache

    def test_stats_surfaces_bytes(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert cli_main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_compressed_entries"] == 1
        assert payload["total_raw_bytes"] > payload["total_bytes"]

    def test_verify_fails_on_checksum_damage(self, tmp_path, capsys):
        cache = StageCache(tmp_path)
        cache.store_payload(KEY, {"v": 1})
        path = _entry(cache)
        record = json.loads(path.read_text(encoding="utf-8"))
        record["sha256"] = "e" * 64
        path.write_text(json.dumps(record), encoding="utf-8")
        code = cli_main(["cache", "verify", "--cache-dir", str(tmp_path)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["checksum"]) == 1

    def test_verify_flags_format_1_entry_as_stale(self, tmp_path, capsys):
        # A format-1 record predates checksums: verify lists it for
        # ``prune`` and fails, but it is not corrupt, so it stays put.
        cache = StageCache(tmp_path)
        legacy = {"format": 1, "key": KEY.describe(), "value": {"v": 1}}
        path = _entry(cache)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(legacy), encoding="utf-8")
        code = cli_main(["cache", "verify", "--cache-dir", str(tmp_path)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["stale_format"] == [str(path)]
        assert payload["ok"] == 0
        assert "legacy" not in payload
        assert path.exists()
        assert cache.quarantined_count() == 0

    def test_stage_flag_rejected_outside_prune(
        self, tmp_path, capsys
    ):
        code = cli_main(
            [
                "cache",
                "verify",
                "--cache-dir",
                str(tmp_path),
                "--stage",
                "demo",
            ]
        )
        assert code == 2
