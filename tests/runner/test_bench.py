"""Bench harness: stage timing capture, reference gate, baselines."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.runner import GridSpec, StageCache, SweepRunner, bench, cli
from repro.runner.bench import (
    BENCH_GRIDS,
    BenchReport,
    bench_grid,
    compare_reports,
    run_bench,
)

TINY = GridSpec(
    apps=("sq",), sizes={"sq": 2}, policies=(0, 6), distance=3
)
REPO = Path(__file__).resolve().parents[2]
CI_BASELINE = REPO / "benchmarks" / "baselines" / "bench_ci.json"
COMMITTED_REPORTS = [*sorted(REPO.glob("BENCH_*.json")), CI_BASELINE]


class TestGridPresets:
    def test_presets_resolve(self):
        for name in BENCH_GRIDS:
            spec = bench_grid(name)
            assert spec.expand(), name

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError, match="unknown bench grid"):
            bench_grid("nope")

    def test_fig6_preset_is_the_paper_grid(self):
        assert len(bench_grid("fig6").expand()) == 28


class TestRunBench:
    @pytest.fixture(scope="class")
    def report(self):
        return run_bench(TINY, reference=True)

    def test_stage_seconds_recorded(self, report):
        assert report.grid == "custom"
        assert report.points == 2
        assert report.stage_seconds["braid_sim"] > 0
        assert report.stage_seconds["frontend"] > 0
        assert report.total_seconds >= report.stage_seconds["braid_sim"]

    def test_reference_pass_verified(self, report):
        assert report.equivalence_checked == 2
        assert report.reference_braid_seconds is not None
        assert report.braid_speedup is not None

    def test_speedup_divides_by_the_paired_flat_runs(self, report):
        # The optimized side is timed next to each reference replay,
        # not taken from the sweep's braid_sim stage.
        assert report.paired_flat_seconds > 0
        assert report.braid_seconds == pytest.approx(
            report.paired_flat_seconds + report.stage_seconds["braid_plan"]
        )
        assert report.braid_speedup == pytest.approx(
            report.reference_braid_seconds / report.braid_seconds, rel=1e-2
        )

    def test_without_reference(self):
        report = run_bench(TINY)
        assert report.reference_braid_seconds is None
        assert report.paired_flat_seconds is None
        assert report.braid_speedup is None
        assert report.equivalence_checked == 0

    def test_round_trip(self, report, tmp_path):
        path = tmp_path / "bench.json"
        report.save(path)
        loaded = BenchReport.load(path)
        assert loaded == report
        assert json.loads(path.read_text())["format"] == 1

    def test_report_without_paired_time_loads(self, tmp_path):
        # Reports recorded before the paired timing still load; their
        # braid time falls back to the sweep's own stage seconds.
        payload = _report(
            stage_seconds={"braid_sim": 2.0, "braid_plan": 0.5}
        ).to_jsonable()
        del payload["paired_flat_seconds"]
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = BenchReport.load(path)
        assert loaded.paired_flat_seconds is None
        assert loaded.braid_seconds == 2.5
        paired = dataclasses.replace(loaded, paired_flat_seconds=1.0)
        assert paired.braid_seconds == 1.5

    def test_unknown_format_rejected(self, report, tmp_path):
        path = tmp_path / "bench.json"
        payload = report.to_jsonable()
        payload["format"] = 99
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match="format"):
            BenchReport.load(path)


class TestCommittedReports:
    """Every committed bench report loads, old fields and all."""

    @pytest.mark.parametrize(
        "path", COMMITTED_REPORTS, ids=lambda path: path.name
    )
    def test_loads(self, path):
        report = BenchReport.load(path)
        assert report.points > 0
        assert report.stage_seconds

    def test_series_is_covered(self):
        names = {path.name for path in COMMITTED_REPORTS}
        assert {"BENCH_6.json", "bench_ci.json"} <= names

    def test_engine_key_is_dropped(self):
        # Reports from the engine-axis runner carry ``engine``.
        payload = {**_report().to_jsonable(), "engine": "vec"}
        assert BenchReport.from_jsonable(payload) == _report()


class TestReferencePass:
    """``--reference`` replays each swept point's own braid plan through
    the seed loop, once per distinct braid simulation."""

    def test_divergence_is_an_error(self, monkeypatch):
        real = bench.simulate_plan

        def off_by_one(plan, policy, engine="flat"):
            result = real(plan, policy, engine=engine)
            return dataclasses.replace(result, drops=result.drops + 1)

        monkeypatch.setattr(bench, "simulate_plan", off_by_one)
        with pytest.raises(RuntimeError, match="diverged"):
            run_bench(TINY, reference=True)

    def test_reservation_points_are_not_replayed(self):
        grid = GridSpec(
            apps=("sq",), sizes={"sq": 2}, policies=(0, 7), distance=3
        )
        report = run_bench(grid, reference=True)
        assert report.points == 2
        assert report.equivalence_checked == 1

    def test_shared_simulations_replay_once(self):
        cache = StageCache()
        points = SweepRunner(cache=cache).run(TINY).points
        *_, checked = bench._reference_pass(cache, points + points)
        assert checked == len(points) == 2

    def test_replay_reuses_the_sweeps_plans(self):
        cache = StageCache()
        points = SweepRunner(cache=cache).run(TINY).points
        # One plan per layout: Policy 0's default, Policy 6's optimized.
        assert cache.stats.computed("braid_plan") == 2
        hits = cache.stats.hits.get("braid_plan", 0)
        *_, checked = bench._reference_pass(cache, points)
        assert cache.stats.computed("braid_plan") == 2
        assert cache.stats.hits["braid_plan"] == hits + checked == hits + 2


class TestTimingAttribution:
    def test_braid_seconds_exclude_frontend(self):
        """Stage seconds are self time: the braid stage's closure pulls
        the frontend through the cache, but its compile time must be
        attributed to the frontend stage."""
        runner = SweepRunner()
        stats = runner.run(TINY).stats
        assert stats.stage_seconds("frontend") > 0
        assert stats.stage_seconds("braid_sim") > 0
        total_children = sum(
            stats.stage_seconds(s)
            for s in ("frontend", "layout", "braid_sim", "simd", "simd_epr",
                      "accounting")
        )
        # The 'point' stage self time is glue, not the whole pipeline.
        assert stats.stage_seconds("point") < total_children


def _report(**overrides) -> BenchReport:
    base = dict(
        grid="tiny",
        points=21,
        workers=1,
        stage_seconds={"braid_sim": 2.0},
        total_seconds=4.0,
        reference_braid_seconds=10.0,
        braid_speedup=5.0,
        equivalence_checked=21,
    )
    base.update(overrides)
    return BenchReport(**base)


class TestCompareReports:
    def test_no_regression(self):
        assert compare_reports(_report(), _report()) == []

    def test_speedup_regression_detected(self):
        current = _report(braid_speedup=3.0)
        failures = compare_reports(current, _report(), tolerance=0.25)
        assert failures and "speedup regressed" in failures[0]

    def test_within_tolerance_passes(self):
        current = _report(braid_speedup=4.0)
        assert compare_reports(current, _report(), tolerance=0.25) == []

    def test_grid_mismatch_fails(self):
        failures = compare_reports(_report(grid="fig6"), _report())
        assert failures and "grid mismatch" in failures[0]

    def test_missing_speedup_fails(self):
        failures = compare_reports(
            _report(braid_speedup=None), _report()
        )
        assert failures and "braid_speedup" in failures[0]

    def test_committed_ci_baseline_loads(self):
        # CI gates ``bench --grid tiny`` against this file, so every key
        # in it must still be a BenchReport field.
        baseline = BenchReport.load(CI_BASELINE)
        assert baseline.grid == "tiny"
        assert baseline.stage_seconds["braid_sim"] > 0
        assert compare_reports(baseline, baseline) == []


class TestAllStageGate:
    """Every baseline stage is gated, not just braid_sim."""

    def test_stage_ratio_normalizes_by_reference(self):
        report = _report(stage_seconds={"braid_sim": 2.0, "accounting": 1.0})
        assert report.stage_ratio("accounting") == pytest.approx(0.1)
        assert report.stage_ratio("absent") == pytest.approx(0.0)

    def test_stage_ratio_none_without_reference(self):
        report = _report(reference_braid_seconds=None, braid_speedup=None)
        assert report.stage_ratio("braid_sim") is None

    def test_stage_regression_detected(self):
        baseline = _report(
            stage_seconds={"braid_sim": 2.0, "accounting": 1.0}
        )
        current = _report(
            stage_seconds={"braid_sim": 2.0, "accounting": 3.0}
        )
        failures = compare_reports(current, baseline, tolerance=0.25)
        assert failures and "accounting regressed" in failures[0]

    def test_stage_within_tolerance_passes(self):
        baseline = _report(
            stage_seconds={"braid_sim": 2.0, "accounting": 1.0}
        )
        current = _report(
            stage_seconds={"braid_sim": 2.0, "accounting": 1.1}
        )
        assert compare_reports(current, baseline, tolerance=0.25) == []

    def test_millisecond_stage_protected_by_slack(self):
        # 10ms -> 150ms is a 15x blowup but only ~1.4% of the
        # reference yardstick: inside the additive slack, not flaky.
        baseline = _report(
            stage_seconds={"braid_sim": 2.0, "layout": 0.01}
        )
        current = _report(
            stage_seconds={"braid_sim": 2.0, "layout": 0.15}
        )
        assert compare_reports(current, baseline, tolerance=0.25) == []
        # A genuinely large blowup still fails.
        blown = _report(stage_seconds={"braid_sim": 2.0, "layout": 0.6})
        assert compare_reports(blown, baseline, tolerance=0.25)

    def test_new_stage_not_gated_until_baseline_rerecorded(self):
        baseline = _report(stage_seconds={"braid_sim": 2.0})
        current = _report(
            stage_seconds={"braid_sim": 2.0, "scaling": 99.0}
        )
        assert compare_reports(current, baseline) == []

    def test_stage_missing_from_current_fails(self):
        baseline = _report(
            stage_seconds={"braid_sim": 2.0, "frontend": 1.0}
        )
        current = _report(stage_seconds={"braid_sim": 2.0})
        failures = compare_reports(current, baseline)
        assert failures and "frontend missing" in failures[0]


class TestEnvironment:
    def test_environment_records_run_config(self):
        report = run_bench(TINY)
        env = report.environment
        assert env["workers"] == report.workers == 1
        assert env["cpus"] >= 1


class TestBaselineCli:
    """``bench --baseline`` is read and checked before anything runs."""

    @pytest.mark.parametrize(
        "content",
        [
            None,
            "{corrupt",
            "[]",
            json.dumps({**_report().to_jsonable(), "no_such_field": 1}),
            json.dumps(_report(grid="fig6").to_jsonable()),
        ],
        ids=["missing", "corrupt", "not-an-object", "unknown-field",
             "other-grid"],
    )
    def test_bad_baseline_exits_2_before_the_sweep(
        self, content, tmp_path, monkeypatch, capsys
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("bench ran before checking its baseline")

        monkeypatch.setattr(cli, "run_bench", must_not_run)
        path = tmp_path / "baseline.json"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        code = cli.main(
            ["bench", "--grid", "tiny", "--baseline", str(path)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), captured.err
        assert captured.out == ""


class TestPlanBuildSplit:
    """Plan builds are reported separately from pure simulation time."""

    def test_braid_plan_split_in_report(self):
        report = run_bench(TINY)
        assert report.stage_seconds.get("braid_plan", 0) > 0
        assert report.stage_seconds.get("braid_sim", 0) > 0
        assert report.braid_seconds == pytest.approx(
            report.stage_seconds["braid_sim"]
            + report.stage_seconds["braid_plan"]
        )

    def test_plan_time_counted_in_speedup_and_stage_gate(self):
        baseline = _report(
            stage_seconds={"braid_sim": 1.5, "braid_plan": 0.5}
        )
        # A plan blowup lowers the measured speedup, and the braid
        # stages' own ratios are gated like every other stage.
        current = _report(
            stage_seconds={"braid_sim": 1.5, "braid_plan": 3.0},
            braid_speedup=10.0 / 4.5,
        )
        failures = compare_reports(current, baseline, tolerance=0.25)
        assert failures and "speedup regressed" in failures[0]
        assert [f for f in failures[1:] if "braid_plan regressed" in f]

    def test_braid_sim_stage_gated(self):
        # A slower sweep-time simulation fails even when the paired
        # replay keeps the speedup.
        baseline = _report(stage_seconds={"braid_sim": 2.0})
        current = _report(stage_seconds={"braid_sim": 4.0})
        failures = compare_reports(current, baseline, tolerance=0.25)
        assert failures and "braid_sim regressed" in failures[0]
