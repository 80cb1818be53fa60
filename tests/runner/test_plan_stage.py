"""The ``braid_plan`` / ``lowered`` stages and their cache behavior.

Covers the sweep-level amortization contract (exactly one plan build
per (app, size, layout, distance) and one interaction-aware placement
per instance across a Figure 6-shaped sweep), the persisted lowered
circuits (disk revival skips the builder and the decomposition), and
the cache admin commands over the new entry kind.
"""

import dataclasses
import sys

import pytest

from repro.network import plan_memo_stats
from repro.partition import circuit_layout
from repro.partition import layout as layout_module
from repro.qasm import Circuit
from repro.runner import GridSpec, StageCache, SweepRunner
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
    def test_frontend_persists_lowered_circuit(self, tmp_path):
        cold = StageCache(tmp_path)
        fe = compute_frontend(cold, "sq", 2)
        assert cold.stats.computed("lowered") == 1
        # A fresh process (same disk level) revives the circuit instead
        # of re-running the builder + decomposition.
        warm = StageCache(tmp_path)
        revived = compute_frontend(warm, "sq", 2)
        assert warm.stats.disk_hits.get("lowered") == 1
        assert warm.stats.computed("lowered") == 0
        assert revived.circuit.qubits == fe.circuit.qubits
        assert len(revived.circuit) == len(fe.circuit)
        assert revived.circuit.gate_counts() == fe.circuit.gate_counts()
        assert revived.logical == fe.logical

    def test_revived_circuit_simulates_bit_identically(self, tmp_path):
        cold = StageCache(tmp_path)
        first = compute_braid(cold, "sq", 2, policy=6, distance=3)
        warm = StageCache(tmp_path)
        warm_cache_braid = compute_braid(warm, "sq", 2, policy=5, distance=3)
        fresh = StageCache()
        assert warm.stats.disk_hits.get("lowered") == 1
        assert compute_braid(fresh, "sq", 2, policy=5, distance=3) == (
            warm_cache_braid
        )
        assert compute_braid(fresh, "sq", 2, policy=6, distance=3) == first

    def test_scaling_calibration_persists_lowered_circuits(self, tmp_path):
        cold = StageCache(tmp_path)
        model = compute_scaling(cold, "sq", sizes=(2, 3))
        assert cold.stats.computed("lowered") == 2
        # Drop only the estimates: the lowered circuits still revive,
        # so recalibration skips the expensive builder+lowering.
        cold.prune(stage="scaling_calib")
        cold.prune(stage="scaling")
        warm = StageCache(tmp_path)
        again = compute_scaling(warm, "sq", sizes=(2, 3))
        assert warm.stats.disk_hits.get("lowered") == 2
        assert warm.stats.computed("lowered") == 0
        assert again == model

    def test_scaling_and_sim_instances_keyed_apart(self):
        """Same (app, size), different circuit family: two cache keys."""
        cache = StageCache()
        compute_lowered(cache, "gse", 3)
        compute_lowered(cache, "gse", 3, scaling=True)
        assert cache.stats.computed("lowered") == 2
        # Repeats of either family hit their own entry.
        compute_lowered(cache, "gse", 3)
        compute_lowered(cache, "gse", 3, scaling=True)
        assert cache.stats.computed("lowered") == 2
        assert cache.stats.reused("lowered") == 2

    def test_fences_round_trip_through_disk(self, tmp_path):
        cold = StageCache(tmp_path)
        fenced = compute_lowered(cold, "im", 4, inline_depth=0)
        assert fenced.fences, "inline_depth=0 should fence module calls"
        warm = StageCache(tmp_path)
        revived = compute_lowered(warm, "im", 4, inline_depth=0)
        assert warm.stats.disk_hits.get("lowered") == 1
        assert revived.fences == fenced.fences
        assert revived.qubits == fenced.qubits
        assert [str(op) for op in revived] == [str(op) for op in fenced]


class TestCacheAdminWithNewStages:
    def test_stats_prune_verify_cover_lowered_entries(self, tmp_path):
        cache = StageCache(tmp_path)
        compute_frontend(cache, "sq", 2)
        stats = cache.disk_stats()
        assert "lowered" in stats["stages"]
        assert stats["stages"]["lowered"]["entries"] == 1
        verified = cache.verify()
        assert verified["ok"] == verified["checked"] > 0
        removed = cache.prune(stage="lowered")
        assert removed == 1
        assert "lowered" not in cache.disk_stats()["stages"]


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

    def test_lowered_payload_revives_circuit_equal(self, tmp_path):
        from repro.runner.keys import StageKey

        cache = StageCache(tmp_path)
        circuit = compute_lowered(cache, "gse", 3)
        key = StageKey.make(
            "lowered", app="gse", size=3, inline_depth=None, scaling=False
        )
        payload = cache.load_payload(key)
        assert payload is not None
        revived = Circuit.from_jsonable(payload)
        assert [str(op) for op in revived] == [str(op) for op in circuit]
