"""Disk-cache administration: stats, prune, verify (+ CLI plumbing)."""

import json
import os
import time

import pytest

from repro.runner import PointSpec, StageCache, SweepRunner
from repro.runner.cli import main as cli_main

TINY = [PointSpec(app="sq", size=2, policy=6, distance=3)]


def _filled_cache(tmp_path) -> StageCache:
    cache = StageCache(tmp_path)
    SweepRunner(cache=cache).run(TINY)
    return cache


class TestDiskStats:
    def test_counts_and_bytes(self, tmp_path):
        cache = _filled_cache(tmp_path)
        stats = cache.disk_stats()
        assert stats["dir"] == str(tmp_path)
        assert stats["total_entries"] > 0
        assert stats["total_bytes"] > 0
        assert "point" in stats["stages"]
        point = stats["stages"]["point"]
        assert point["entries"] == 1
        assert point["oldest_mtime"] <= point["newest_mtime"]

    def test_memory_only_cache_is_empty(self):
        stats = StageCache().disk_stats()
        assert stats["dir"] is None
        assert stats["total_entries"] == 0


class TestPrune:
    def test_prune_all(self, tmp_path):
        cache = _filled_cache(tmp_path)
        before = cache.disk_stats()["total_entries"]
        assert cache.prune() == before
        assert cache.disk_stats()["total_entries"] == 0

    def test_prune_by_stage(self, tmp_path):
        cache = _filled_cache(tmp_path)
        removed = cache.prune(stage="point")
        assert removed == 1
        assert "point" not in cache.disk_stats()["stages"]
        assert cache.disk_stats()["total_entries"] > 0

    def test_prune_by_age(self, tmp_path):
        cache = _filled_cache(tmp_path)
        total = cache.disk_stats()["total_entries"]
        # Everything is brand new: a one-hour threshold removes nothing.
        assert cache.prune(older_than_seconds=3600) == 0
        # Age every entry but the point by a day.
        day_ago = time.time() - 86400
        for path in tmp_path.glob("*/*.json"):
            if path.parent.name != "point":
                os.utime(path, (day_ago, day_ago))
        assert cache.prune(older_than_seconds=3600) == total - 1
        assert cache.disk_stats()["total_entries"] == 1
        assert "point" in cache.disk_stats()["stages"]


class TestVerify:
    def test_clean_cache_verifies(self, tmp_path):
        cache = _filled_cache(tmp_path)
        result = cache.verify()
        assert result["checked"] == result["ok"] > 0
        assert not result["corrupt"]
        assert not result["mismatched"]

    def test_detects_corruption_and_renames(self, tmp_path):
        cache = _filled_cache(tmp_path)
        stage_dir = cache.disk_dir / "point"
        victim = next(iter(stage_dir.glob("*.json")))
        # A renamed entry no longer matches its content digest.
        renamed = stage_dir / ("0" * len(victim.stem) + ".json")
        os.rename(victim, renamed)
        # A truncated entry no longer parses.
        braid_dir = cache.disk_dir / "braid_sim"
        broken = next(iter(braid_dir.glob("*.json")))
        broken.write_text("{not json", encoding="utf-8")
        result = cache.verify()
        assert str(renamed) in result["mismatched"]
        assert str(broken) in result["corrupt"]

    def test_detects_stale_format(self, tmp_path):
        cache = _filled_cache(tmp_path)
        stage_dir = cache.disk_dir / "point"
        victim = next(iter(stage_dir.glob("*.json")))
        record = json.loads(victim.read_text(encoding="utf-8"))
        record["format"] = -1
        victim.write_text(json.dumps(record), encoding="utf-8")
        result = cache.verify()
        assert str(victim) in result["stale_format"]


class TestCacheCli:
    def test_stats_and_verify(self, tmp_path, capsys):
        _filled_cache(tmp_path)
        assert cli_main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_entries"] > 0
        assert (
            cli_main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        )

    def test_verify_fails_on_corruption(self, tmp_path, capsys):
        cache = _filled_cache(tmp_path)
        broken = next(iter((cache.disk_dir / "point").glob("*.json")))
        broken.write_text("nope", encoding="utf-8")
        assert (
            cli_main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1
        )

    def test_prune_cli(self, tmp_path, capsys):
        cache = _filled_cache(tmp_path)
        assert (
            cli_main(
                [
                    "cache",
                    "prune",
                    "--cache-dir",
                    str(tmp_path),
                    "--stage",
                    "point",
                ]
            )
            == 0
        )
        assert "point" not in cache.disk_stats()["stages"]

    @pytest.mark.parametrize("action", ["stats", "prune", "verify"])
    def test_missing_cache_dir_exits_2(self, action, tmp_path, capsys):
        # A mistyped --cache-dir must not read as a healthy empty cache.
        typo = tmp_path / "no-such-cache"
        assert cli_main(["cache", action, "--cache-dir", str(typo)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: no cache directory at ")
        assert captured.out == ""
        assert not typo.exists()
