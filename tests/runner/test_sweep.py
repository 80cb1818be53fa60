"""Sweep semantics: grid expansion, dedup, shared-prefix stage reuse,
process-pool equivalence, and disk-cache resume."""

import pytest

from repro.runner import (
    GridSpec,
    PointSpec,
    StageCache,
    SweepResult,
    SweepRunner,
    fig6_grid,
    run_point,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

# Tiny instances keep every simulation in the milliseconds range.
TINY = GridSpec(
    apps=("sq", "gse"),
    sizes={"sq": 2, "gse": 3},
    policies=(0, 6),
    distance=3,
)


class TestGridExpansion:
    def test_cross_product(self):
        specs = TINY.expand()
        assert len(specs) == 4
        assert {(s.app, s.policy) for s in specs} == {
            ("sq", 0),
            ("sq", 6),
            ("gse", 0),
            ("gse", 6),
        }

    def test_normalization_resolves_sizes(self):
        specs = GridSpec(apps=("sha1",), policies=(6,)).expand()
        assert specs[0].size == 8  # sha1's default size

    def test_identical_points_deduplicated(self):
        # "sha" aliases "sha1", so the grid collapses to one app.
        specs = GridSpec(
            apps=("sha1", "sha"), sizes=None, policies=(6,)
        ).expand()
        assert len(specs) == 1

    def test_fig6_grid_shape(self):
        specs = fig6_grid().expand()
        assert len(specs) == 28  # 4 apps x 7 policies
        assert all(s.distance == 5 for s in specs)

    def test_point_list_dedup(self):
        runner = SweepRunner()
        result = runner.run(
            [
                PointSpec(app="sq", size=2, policy=6, distance=3),
                PointSpec(app="sq", size=2, policy=6, distance=3),
            ]
        )
        assert len(result.points) == 1


class TestGridLists:
    def test_per_app_size_lists(self):
        specs = GridSpec(
            apps=("sq", "gse"),
            sizes={"sq": (2, 3), "gse": 3},
            policies=(6,),
        ).expand()
        assert {(s.app, s.size) for s in specs} == {
            ("sq", 2),
            ("sq", 3),
            ("gse", 3),
        }

    def test_error_rate_lists(self):
        specs = GridSpec(
            apps=("sq",),
            sizes={"sq": 2},
            policies=(6,),
            error_rates=(1e-3, 1e-5, None),
        ).expand()
        assert [s.error_rate for s in specs] == [1e-3, 1e-5, None]

    def test_fig9_style_grid_in_one_spec(self):
        """Size lists x error-rate lists: the Figure 9 plane."""
        specs = GridSpec(
            apps=("sq", "im"),
            sizes={"sq": (2, 3), "im": (4, 6)},
            policies=(6,),
            error_rates=(1e-3, 1e-5),
        ).expand()
        assert len(specs) == 2 * 2 * 2

    def test_duplicate_sizes_deduplicated(self):
        specs = GridSpec(
            apps=("sq",), sizes={"sq": (2, 2)}, policies=(6,)
        ).expand()
        assert len(specs) == 1


class TestSharedPrefixReuse:
    def test_frontend_compiled_exactly_once_per_app(self):
        result = SweepRunner().run(TINY)
        stats = result.stats
        assert stats.computed("frontend") == 2, stats.as_dict()
        assert stats.computed("braid_sim") == 4
        # EPR pipeline is policy-independent: once per app.
        assert stats.computed("simd_epr") == 2
        assert stats.reused("frontend") > 0

    def test_second_run_all_hits(self):
        runner = SweepRunner()
        runner.run(TINY)
        again = runner.run(TINY)
        assert again.stats.computed("point") == 0
        assert again.stats.reused("point") == 4
        assert again.stats.computed("frontend") == 0


class TestDiskResume:
    def test_cold_then_warm(self, tmp_path):
        cold = SweepRunner(cache_dir=tmp_path).run(TINY)
        assert cold.stats.computed("point") == 4
        warm = SweepRunner(cache_dir=tmp_path).run(TINY)
        assert warm.stats.computed("point") == 0
        assert warm.stats.disk_hits["point"] == 4
        assert [p.to_jsonable() for p in warm.points] == [
            p.to_jsonable() for p in cold.points
        ]

    def test_save_load_round_trip(self, tmp_path):
        result = SweepRunner().run(TINY)
        path = tmp_path / "sweep.json"
        result.save(path)
        loaded = SweepResult.load(path)
        assert [p.to_jsonable() for p in loaded.points] == [
            p.to_jsonable() for p in result.points
        ]
        assert loaded.stats.as_dict() == result.stats.as_dict()


class TestParallel:
    def test_matches_serial(self, tmp_path):
        serial = SweepRunner().run(TINY)
        parallel = SweepRunner(
            cache_dir=tmp_path / "cache", workers=2
        ).run(TINY)
        assert parallel.workers == 2
        assert [p.to_jsonable() for p in parallel.points] == [
            p.to_jsonable() for p in serial.points
        ]
        # Grouping by frontend key: each app compiled exactly once
        # across the whole pool.
        assert parallel.stats.computed("frontend") == 2

    def test_single_point_stays_serial(self):
        result = SweepRunner(workers=4).run(
            [PointSpec(app="sq", size=2, policy=6, distance=3)]
        )
        assert result.workers == 1
        assert len(result.points) == 1

    @pytest.mark.slow
    def test_braid_stage_splits_inside_one_group(self, tmp_path):
        """With more workers than frontend groups, one app's policies
        fan out across chunk jobs (the braid-stage parallelization);
        results still match the serial run bit for bit."""
        grid = GridSpec(
            apps=("sq",), sizes={"sq": 2}, policies=(0, 1, 5, 6),
            distance=3,
        )
        serial = SweepRunner().run(grid)
        parallel = SweepRunner(
            cache_dir=tmp_path / "cache", workers=2
        ).run(grid)
        assert [p.to_jsonable() for p in parallel.points] == [
            p.to_jsonable() for p in serial.points
        ]
        # One frontend group split across two chunk jobs: the frontend
        # compiles once per chunk worker, and both workers simulate.
        assert parallel.stats.computed("frontend") == 2
        assert parallel.stats.computed("braid_sim") == 4

    @pytest.mark.slow
    def test_workers_capped_by_chunks(self, tmp_path):
        grid = GridSpec(
            apps=("sq",), sizes={"sq": 2}, policies=(0, 6), distance=3
        )
        result = SweepRunner(
            cache_dir=tmp_path / "cache", workers=8
        ).run(grid)
        # 2 points -> at most 2 chunks, results intact.
        assert len(result.points) == 2
        assert result.stats.computed("braid_sim") == 2


class TestPointSemantics:
    def test_distance_derived_when_unset(self):
        point = run_point(PointSpec(app="sq", size=2), StageCache())
        assert point.distance >= 3
        assert point.spec.distance is None

    def test_distance_override_respected(self):
        point = run_point(
            PointSpec(app="sq", size=2, distance=3), StageCache()
        )
        assert point.distance == 3

    def test_toolflow_shares_default_cache(self):
        from repro.runner import reset_default_cache

        cache = reset_default_cache()
        try:
            run_point(PointSpec(app="sq", size=2, policy=6))
            run_point(PointSpec(app="sq", size=2, policy=1))
            assert cache.stats.computed("frontend") == 1
            assert cache.stats.computed("braid_sim") == 2
            assert cache.stats.computed("simd_epr") == 1
        finally:
            reset_default_cache()
