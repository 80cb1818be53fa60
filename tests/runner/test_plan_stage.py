"""The ``braid_plan`` / ``lowered`` stages and their cache behavior.

Covers the sweep-level amortization contract (exactly one plan build
per (app, size, layout, distance) and one interaction-aware placement
per instance across a Figure 6-shaped sweep), the memory-only lowered
circuits (no disk record, calibration instances never enter the
stage), and the cache admin commands over ``lowered`` entries that
older versions stored.
"""

import dataclasses
import json
import sys

import pytest

from repro.apps.scaling import calibrate
from repro.network import plan_memo_stats
from repro.partition import circuit_layout
from repro.partition import layout as layout_module
from repro.runner import GridSpec, StageCache, SweepRunner
from repro.runner.cli import main
from repro.runner.keys import StageKey
from repro.runner.stages import (
    compute_braid,
    compute_braid_plan,
    compute_frontend,
    compute_layout,
    compute_lowered,
    compute_scaling,
    compute_simd,
)

# A Figure 6-shaped smoke grid: every policy (so both layout variants
# appear), two apps, tiny sizes.
FIG6_SHAPED = GridSpec(
    apps=("sq", "im"),
    sizes={"sq": 2, "im": 4},
    policies=tuple(range(7)),
    distance=3,
)


class TestPlanStage:
    def test_one_plan_build_per_design_point(self, monkeypatch):
        """The CI smoke contract: a Fig. 6-shaped sweep builds exactly
        one plan per (app, size, layout, distance), and places each
        instance with the interaction-aware partitioner once for both
        machines."""
        partitions = []
        real = layout_module.optimized_layout

        def counted(graph, grid=None):
            partitions.append(grid)
            return real(graph, grid)

        # Every module holding the partitioner by name calls the counter.
        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and (
                getattr(module, "optimized_layout", None) is real
            ):
                monkeypatch.setattr(module, "optimized_layout", counted)
        builds = plan_memo_stats()["builds"]
        cache = StageCache()
        result = SweepRunner(cache=cache).run(FIG6_SHAPED)
        assert len(result.points) == 14
        # 2 apps x 2 layout variants (policies 0-1 naive, 2-6
        # optimized) x 1 distance.
        assert plan_memo_stats()["builds"] - builds == 4
        assert result.stats.computed("braid_plan") == 4
        assert result.stats.reused("braid_plan") == 10
        assert result.stats.computed("braid_sim") == 14
        # One partitioner run per app serves the tiled machine's
        # optimized layout and the Multi-SIMD machine.
        assert len(partitions) == 2
        for app, size in FIG6_SHAPED.sizes.items():
            simd = compute_simd(cache, app, size)
            placement = compute_layout(cache, app, size, optimize_layout=True)
            assert simd.machine.placement is placement

    def test_plan_stage_self_time_split_from_braid_sim(self):
        cache = StageCache()
        runner = SweepRunner(cache=cache)
        stats = runner.run(FIG6_SHAPED).stats
        assert stats.stage_seconds("braid_plan") > 0
        assert stats.stage_seconds("braid_sim") > 0

    def test_plan_shared_across_policies_in_one_cache(self):
        cache = StageCache()
        compute_braid(cache, "sq", 2, policy=2, distance=3)
        compute_braid(cache, "sq", 2, policy=6, distance=3)
        assert cache.stats.computed("braid_plan") == 1
        assert cache.stats.reused("braid_plan") == 1
        # A different distance needs its own plan.
        compute_braid(cache, "sq", 2, policy=6, distance=5)
        assert cache.stats.computed("braid_plan") == 2

    def test_plan_stage_reuses_frontend_and_layout(self):
        cache = StageCache()
        compute_frontend(cache, "sq", 2)
        compute_braid_plan(cache, "sq", 2, optimize_layout=True, distance=3)
        assert cache.stats.computed("frontend") == 1
        assert cache.stats.computed("layout") == 1


class TestLayoutStage:
    """``layout`` holds the bare placement both machines build around."""

    @pytest.mark.parametrize("optimize", [True, False])
    def test_layout_is_the_circuit_layout(self, optimize):
        cache = StageCache()
        fe = compute_frontend(cache, "sq", 2)
        placement = compute_layout(cache, "sq", 2, optimize_layout=optimize)
        assert placement == circuit_layout(fe.circuit, optimize=optimize)

    def test_simd_machines_share_the_optimized_layout(self):
        cache = StageCache()
        placement = compute_layout(cache, "sq", 2, optimize_layout=True)
        narrow = compute_simd(cache, "sq", 2, regions=2)
        wide = compute_simd(cache, "sq", 2, regions=8)
        assert narrow.machine.placement is placement
        assert wide.machine.placement is placement
        assert cache.stats.computed("layout") == 1
        assert cache.stats.reused("layout") == 2

    @pytest.mark.parametrize("optimize", [True, False])
    def test_plan_places_the_layout_inside_the_ring(self, optimize):
        cache = StageCache()
        plan = compute_braid_plan(
            cache, "sq", 2, optimize_layout=optimize, distance=3
        )
        placement = compute_layout(cache, "sq", 2, optimize_layout=optimize)
        assert cache.stats.computed("layout") == 1
        assert plan.placement.grid.rows == placement.grid.rows + 2
        assert plan.placement.grid.cols == placement.grid.cols + 2
        assert plan.placement.positions == {
            q: (r + 1, c + 1) for q, (r, c) in placement.positions.items()
        }


class TestLoweredStage:
    """``lowered`` is memory-only, and calibration instances skip it."""

    def test_cold_sweep_stores_no_lowered_record(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        args = [
            "sweep", "--apps", "sq", "--size", "2", "--policies", "0,6",
            "--distance", "3", "--cache-dir", str(cache_dir),
        ]
        assert main([*args, "--out", str(tmp_path / "cold.json")]) == 0
        assert list(cache_dir.glob("lowered/*.json")) == []
        assert list(cache_dir.glob("frontend/*.json"))
        # A warm re-run from that cache gives equal points.
        assert main([*args, "--out", str(tmp_path / "warm.json")]) == 0
        capsys.readouterr()
        cold, warm = (
            json.loads((tmp_path / name).read_text())["points"]
            for name in ("cold.json", "warm.json")
        )
        assert len(cold) == 2
        assert warm == cold

    def test_frontend_lowers_in_memory(self, tmp_path):
        cache = StageCache(tmp_path)
        fe = compute_frontend(cache, "sq", 2)
        assert compute_lowered(cache, "sq", 2) is fe.circuit
        assert cache.stats.computed("lowered") == 1
        assert cache.stats.reused("lowered") == 1
        assert "lowered" not in cache.disk_stats()["stages"]
        # A fresh process on the same disk level lowers again.
        fresh = StageCache(tmp_path)
        again = compute_lowered(fresh, "sq", 2)
        assert fresh.stats.computed("lowered") == 1
        assert [str(op) for op in again] == [str(op) for op in fe.circuit]
        assert again.fences == fe.circuit.fences

    def test_scaling_computes_no_lowered_entry(self):
        cache = StageCache()
        model = compute_scaling(cache, "sq", sizes=(2, 3))
        assert cache.stats.computed("scaling_calib") == 2
        assert cache.stats.computed("lowered") == 0
        assert len(cache) == 3  # one fit and two estimates, no circuit
        assert model == calibrate("sq", (2, 3))


class TestCacheAdminWithNewStages:
    def test_stored_lowered_entry_verifies_and_prunes(self, tmp_path, capsys):
        """A ``lowered`` record in the format older versions stored is
        never read again, passes ``cache verify``, and goes with
        ``cache prune --stage lowered``."""
        cache = StageCache(tmp_path)
        compute_frontend(cache, "sq", 2)
        key = StageKey.make(
            "lowered", app="sq", size=2, inline_depth=None, scaling=False
        )
        cache.store_payload(key, {
            "name": "sq", "qubits": ["a", "b"],
            "ops": "H a\nCNOT a b", "fences": [],
        })
        assert cache.disk_stats()["stages"]["lowered"]["entries"] == 1
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        verified = json.loads(capsys.readouterr().out)
        assert verified["ok"] == verified["checked"] == 2
        fresh = StageCache(tmp_path)
        compute_lowered(fresh, "sq", 2)
        assert fresh.stats.computed("lowered") == 1
        assert not fresh.stats.disk_hits.get("lowered")
        assert main([
            "cache", "prune", "--stage", "lowered",
            "--cache-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        stages = StageCache(tmp_path).disk_stats()["stages"]
        assert sorted(stages) == ["frontend"]


class TestParallelSweepStillDedups:
    def test_parallel_chunks_share_plans_within_workers(self, tmp_path):
        grid = dataclasses.replace(FIG6_SHAPED, policies=(0, 1, 5, 6))
        runner = SweepRunner(cache_dir=tmp_path, workers=2)
        result = runner.run(grid)
        assert len(result.points) == 8
        # Each worker chunk builds each of its needed plans at most
        # once; across the pool the build count stays bounded by
        # (chunks x layouts), far below one per point.
        assert result.stats.computed("braid_plan") <= 8
        assert result.stats.computed("braid_sim") == 8
        serial = SweepRunner(cache=StageCache()).run(grid)
        assert [p.to_jsonable() for p in result.points] == [
            p.to_jsonable() for p in serial.points
        ]
