"""StageCache semantics: hit/miss accounting, disk persistence."""

import dataclasses
import json
import threading

from repro.runner.backends import make_record
from repro.runner.cache import CACHE_FORMAT_VERSION, CacheStats, StageCache
from repro.runner.keys import StageKey


@dataclasses.dataclass(frozen=True)
class Payload:
    value: int


KEY = StageKey.make("demo", x=1)


def _revive(payload):
    return Payload(**payload)


class TestMemoryLevel:
    def test_miss_then_hit(self):
        cache = StageCache()
        calls = []
        for _ in range(3):
            result = cache.get_or_compute(
                KEY, lambda: calls.append(1) or Payload(7)
            )
            assert result == Payload(7)
        assert len(calls) == 1
        assert cache.stats.misses["demo"] == 1
        assert cache.stats.hits["demo"] == 2
        assert cache.stats.computed("demo") == 1
        assert cache.stats.reused("demo") == 2

    def test_distinct_keys_compute_separately(self):
        cache = StageCache()
        a = cache.get_or_compute(StageKey.make("demo", x=1), lambda: 1)
        b = cache.get_or_compute(StageKey.make("demo", x=2), lambda: 2)
        assert (a, b) == (1, 2)
        assert cache.stats.misses["demo"] == 2

    def test_contains_and_len(self):
        cache = StageCache()
        assert KEY not in cache and len(cache) == 0
        cache.get_or_compute(KEY, lambda: 1)
        assert KEY in cache and len(cache) == 1


class TestDiskLevel:
    def test_round_trip_across_instances(self, tmp_path):
        first = StageCache(tmp_path)
        first.get_or_compute(
            KEY,
            lambda: Payload(7),
            to_jsonable=dataclasses.asdict,
            from_jsonable=_revive,
        )
        second = StageCache(tmp_path)
        revived = second.get_or_compute(
            KEY,
            lambda: (_ for _ in ()).throw(AssertionError("must not run")),
            to_jsonable=dataclasses.asdict,
            from_jsonable=_revive,
        )
        assert revived == Payload(7)
        assert second.stats.disk_hits["demo"] == 1
        assert second.stats.computed("demo") == 0

    def test_memory_cleared_falls_back_to_disk(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.get_or_compute(
            KEY,
            lambda: Payload(7),
            to_jsonable=dataclasses.asdict,
            from_jsonable=_revive,
        )
        cache.clear_memory()
        assert KEY not in cache
        revived = cache.get_or_compute(
            KEY, lambda: Payload(99), from_jsonable=_revive
        )
        assert revived == Payload(7)

    def test_no_reviver_means_recompute(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.get_or_compute(KEY, lambda: Payload(7), to_jsonable=dataclasses.asdict)
        cache.clear_memory()
        result = cache.get_or_compute(KEY, lambda: Payload(99))
        assert result == Payload(99)

    def test_corrupt_file_recomputes(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.get_or_compute(
            KEY, lambda: Payload(7), to_jsonable=dataclasses.asdict
        )
        path = tmp_path / "demo" / f"{KEY.digest}.json"
        path.write_text("{not json", encoding="utf-8")
        cache.clear_memory()
        result = cache.get_or_compute(
            KEY, lambda: Payload(99), from_jsonable=_revive
        )
        assert result == Payload(99)

    def test_stale_format_version_ignored(self, tmp_path):
        cache = StageCache(tmp_path)
        cache.get_or_compute(
            KEY, lambda: Payload(7), to_jsonable=dataclasses.asdict
        )
        path = tmp_path / "demo" / f"{KEY.digest}.json"
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["format"] == CACHE_FORMAT_VERSION
        record["format"] = -1
        path.write_text(json.dumps(record), encoding="utf-8")
        cache.clear_memory()
        result = cache.get_or_compute(
            KEY, lambda: Payload(99), from_jsonable=_revive
        )
        assert result == Payload(99)

    def test_unsupported_format_entry_is_recomputed(self, tmp_path):
        # A checksummed record in a format this code does not read
        # (say, from a newer checkout) must be recomputed and
        # overwritten under the lock, not waited on forever.
        record = make_record(KEY.describe(), {"value": 7})
        record["format"] = CACHE_FORMAT_VERSION + 1
        path = tmp_path / "demo" / f"{KEY.digest}.json"
        path.parent.mkdir()
        path.write_text(json.dumps(record), encoding="utf-8")
        cache = StageCache(tmp_path)
        results = []
        worker = threading.Thread(
            target=lambda: results.append(
                cache.get_or_compute(
                    KEY,
                    lambda: Payload(99),
                    to_jsonable=dataclasses.asdict,
                    from_jsonable=_revive,
                )
            ),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "get_or_compute never returned"
        assert results == [Payload(99)]
        stored = json.loads(path.read_text(encoding="utf-8"))
        assert stored["format"] == CACHE_FORMAT_VERSION
        assert stored["value"] == {"value": 99}

    def test_iter_payloads(self, tmp_path):
        cache = StageCache(tmp_path)
        for x in (1, 2):
            cache.get_or_compute(
                StageKey.make("demo", x=x),
                lambda x=x: Payload(x),
                to_jsonable=dataclasses.asdict,
            )
        records = list(cache.iter_payloads("demo"))
        assert sorted(r["value"]["value"] for r in records) == [1, 2]
        assert all(r["key"]["stage"] == "demo" for r in records)
        assert list(cache.iter_payloads("other")) == []


class TestCacheStats:
    def test_merge_accumulates(self):
        a, b = CacheStats(), CacheStats()
        a.record_miss("s")
        b.record_miss("s")
        b.record_hit("s")
        b.record_disk_hit("t")
        a.merge(b)
        assert a.misses["s"] == 2
        assert a.hits["s"] == 1
        assert a.disk_hits["t"] == 1

    def test_dict_round_trip(self):
        stats = CacheStats()
        stats.record_miss("s")
        stats.record_hit("s")
        again = CacheStats.from_dict(stats.as_dict())
        assert again.as_dict() == stats.as_dict()

    def test_summary_mentions_stages(self):
        stats = CacheStats()
        stats.record_miss("frontend")
        stats.record_hit("frontend")
        assert "frontend: 1 computed, 1 reused" in stats.summary()
        assert CacheStats().summary() == "empty"
