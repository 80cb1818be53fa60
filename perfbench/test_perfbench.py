"""Tests of the benchmark's own arithmetic, checks and measurement.

    python3 -m pytest perfbench -q

Run from the repository root (the pytest config puts ``src/`` on the
path for check.py's imports).
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

import check
import run
import spans as spanlib
import speed

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def span(name, start, end, parent=None, family=None):
    return [name, start, end, parent, None, family]


class TestSelfTimes:
    def test_nested_spans_subtract_children_once(self):
        spans = [
            span("root", 0.0, 10.0),
            span("point", 1.0, 9.0, parent=0),
            span("braid_sim", 2.0, 5.0, parent=1, family="reactive"),
            span("braid_plan", 3.0, 4.0, parent=2),
            span("store_payload", 6.0, 7.0, parent=1),
        ]
        assert spanlib.self_times(spans) == pytest.approx(
            [2.0, 4.0, 2.0, 1.0, 1.0]
        )

    def test_overlapping_children_count_their_union(self):
        spans = [
            span("root", 0.0, 10.0),
            span("lowered", 1.0, 4.0, parent=0),
            span("lowered", 3.0, 6.0, parent=0),
            span("lowered", 8.0, 12.0, parent=0),  # clipped at the parent
        ]
        assert spanlib.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)

    def test_span_keys_split_braid_sim_by_family(self):
        spans = [
            span("root", 0.0, 10.0),
            span("braid_sim", 0.0, 2.0, parent=0, family="reactive"),
            span("braid_sim", 2.0, 5.0, parent=0, family="reservation"),
            span("scaling", 5.0, 6.0, parent=0),
            span("crossover", 6.0, 6.5, parent=0),
        ]
        assert spanlib.span_seconds(spans) == pytest.approx(
            {
                "root": 3.5,
                "braid_sim/reactive": 2.0,
                "braid_sim/reservation": 3.0,
                "scaling": 1.0,
                "crossover": 0.5,
            }
        )
        metrics = spanlib.per_layer_metrics(spans, {}, 10.0, 10.0)
        assert metrics["network.braid_sim_s"] == pytest.approx(5.0)
        assert metrics["network.braid_sim_reactive_s"] == pytest.approx(2.0)
        assert metrics["core.model_s"] == pytest.approx(1.5)
        assert metrics["runner.sweep_s"] == pytest.approx(3.5)
        assert metrics["trace.unattributed_s"] == pytest.approx(0.0)

    def test_self_times_and_unattributed_add_up_to_wall(self):
        spans = [
            span("root", 1.0, 9.0),
            span("point", 1.0, 8.0, parent=0),
            span("braid_sim", 1.0, 4.0, parent=1, family="scoreboard"),
            span("lowered", 4.0, 6.0, parent=1),
            span("unheard_of", 6.0, 7.0, parent=1),
        ]
        counts = {"network.braids": 3, "frontend.lowered_ops": 4}
        metrics = spanlib.per_layer_metrics(spans, counts, 12.0, 11.5)
        attributed = sum(metrics[m] for m in spanlib.LAYER_SPANS)
        assert attributed + metrics["trace.unattributed_s"] == pytest.approx(
            metrics["trace.wall_s"]
        )
        assert metrics["trace.unattributed_s"] == pytest.approx(12.0 - 7.0)
        assert metrics["trace.overhead_s"] == pytest.approx(0.5)
        assert metrics["network.us_per_braid"] == pytest.approx(1e6)
        assert metrics["frontend.us_per_op"] == pytest.approx(0.5e6)
        assert list(metrics) == [name for name, _ in spanlib.PER_LAYER]

    def test_tracer_records_parents_and_shares_the_point(self):
        tracer = spanlib.Tracer()
        tracer.group = "sq"
        with tracer.span("root"):
            with tracer.span("point", point="abc"):
                with tracer.span("braid_sim", family="reactive"):
                    pass
            with tracer.span("crossover"):
                pass
        names = [s[spanlib.NAME] for s in tracer.spans]
        parents = [s[spanlib.PARENT] for s in tracer.spans]
        points = [s[spanlib.POINT] for s in tracer.spans]
        assert names == ["root", "point", "braid_sim", "crossover"]
        assert parents == [None, 0, 1, 0]
        assert points == ["sq", "abc", "abc", "sq"]
        assert all(s[spanlib.END] >= s[spanlib.START] for s in tracer.spans)


class TestMetricNames:
    def test_names_and_units_follow_the_pattern(self):
        metrics = list(run.END_TO_END) + list(spanlib.PER_LAYER)
        names = [name for name, _ in metrics]
        assert len(names) == len(set(names))
        for name, unit in metrics:
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit

    def test_benchmark_json_declares_what_the_runs_print(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
            run.END_TO_END
        )
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
            spanlib.PER_LAYER
        )
        assert sorted(w["name"] for w in spec["workloads"]) == sorted(
            run.WORKLOADS
        )
        for workload in spec["workloads"]:
            assert NAME.fullmatch(workload["name"])


def fig6_points(ratio_sq_p3=1.2):
    """A synthetic fig6 plane meeting every shape, except as asked."""
    points = []
    for app in ("gse", "sq", "sha1", "im"):
        for policy in range(9):
            parallel = app in ("sha1", "im")
            ratio = (6.0 if policy == 0 else 2.0) if parallel else 1.2
            if (app, policy) == ("sq", 3):
                ratio = ratio_sq_p3
            points.append(
                {
                    "spec": {"app": app, "size": 3, "policy": policy},
                    "braid": {
                        "schedule_length": int(1000 * ratio),
                        "critical_path": 1000,
                        "mean_utilization": 0.05 if policy == 0 else 0.1,
                        "braids": 10,
                        "adaptive_routes": 0,
                        "drops": 0,
                    },
                }
            )
    return points


class TestFailRatio:
    def checked(self, points):
        checks = []
        check.fig6_shapes(checks, points)
        return {
            "runs": [
                {"operations": 36, "failed": 0, "checks": checks, "counts": {}}
            ],
            "reference": [["reference_identical:sq[3] p0", True, ""]],
        }

    def test_passing_run_has_no_failures(self):
        attempted, failed, failures = run.tally(
            self.checked(fig6_points()), [0], []
        )
        assert (attempted, failed, failures) == (36 + 6 + 1 + 1, 0, [])

    def test_seeded_failing_check_counts_once(self):
        attempted, failed, failures = run.tally(
            self.checked(fig6_points(ratio_sq_p3=2.5)), [0], []
        )
        assert attempted == 44
        assert failed == 1
        assert [f[0] for f in failures] == ["serial_near_critical_path:sq"]

    def test_failed_points_and_exit_code_count(self):
        checked = self.checked(fig6_points())
        checked["runs"][0]["failed"] = 2
        attempted, failed, failures = run.tally(checked, [3], [])
        assert (attempted, failed) == (44, 3)
        assert [f[0] for f in failures] == ["exit_code:run0"]

    def test_invariants_catch_an_impossible_result(self):
        checks = []
        braid = {
            "schedule_length": 9, "critical_path": 10,
            "adaptive_routes": 1, "drops": 0,
        }
        check.braid_invariants(checks, [("x", 7, braid), ("y", 6, braid)])
        assert [c[1] for c in checks] == [False, False, False]

    def test_counts_must_repeat(self, tmp_path):
        (tmp_path / run.WORK_DIR).mkdir()
        first = run.counts_check(tmp_path, "w", [{"network.braids": 5}])
        again = run.counts_check(
            tmp_path, "w", [{"network.braids": 5, "network.drops": 1}]
        )
        moved = run.counts_check(tmp_path, "w", [{"network.drops": 2}])
        assert first[0][1] and again[0][1]
        assert not moved[0][1]
        assert "network.drops 2 != 1" in moved[0][2]


FIG9 = """\
      pP                gse                 sq                 im
---------------------------------------------------------------------
   1e-08            > range            1.3e+09            4.0e+13
   1e-07            1.1e+13            1.3e+09            4.0e+13
   1e-06            1.1e+13            4.4e+08            1.7e+13
"""


class TestFig9Checks:
    def test_parse_and_shapes(self):
        lines = check.parse_fig9(FIG9)
        assert lines["gse"] == [None, 1.1e13, 1.1e13]
        checks = []
        check.fig9_shapes(checks, lines)
        assert all(c[1] for c in checks), checks

    def test_a_rising_boundary_fails(self):
        lines = check.parse_fig9(FIG9.replace("4.4e+08", "4.4e+09"))
        checks = []
        check.fig9_shapes(checks, lines)
        assert [c[0] for c in checks if not c[1]] == [
            "boundary_never_rises:sq"
        ]


def test_peak_rss_is_per_child(tmp_path):
    """A big child followed by a small one: the small one's peak is its
    own, where RUSAGE_CHILDREN would still report the big one's."""
    env = run.child_env(ROOT, tmp_path)
    touch_200_mb = "b = bytearray(200 * 2**20); b[::4096] = bytes(len(b[::4096]))"
    big = run.run_child(["-c", touch_200_mb], env, 60)
    small = run.run_child(["-c", "pass"], env, 60)
    assert big.returncode == small.returncode == 0
    assert big.peak_rss_mb > 200
    assert small.peak_rss_mb < 100
    assert small.wall_s > 0 and small.cpu_s >= 0


class TestSpeedSampling:
    def test_scale_is_reference_over_mean_burst(self):
        ref = speed.REFERENCE_BURST_S
        assert speed.scale([ref]) == pytest.approx(1.0)
        assert speed.scale([ref, 3 * ref]) == pytest.approx(0.5)

    def test_sampled_child_leaves_its_pauses_out(self, tmp_path):
        """A child busy for about 1 s of CPU is paused every 50 ms: it
        gets bursts, and its wall time leaves out the pauses, so it
        stays near its CPU time while the parent waits longer."""
        env = run.child_env(ROOT, tmp_path)
        spin = (
            "import time\n"
            "end = time.process_time() + 1.0\n"
            "while time.process_time() < end: pass\n"
        )
        start = time.perf_counter()
        child = run.run_child(["-c", spin], env, 60, sample_every=0.05)
        elapsed = time.perf_counter() - start
        assert child.returncode == 0
        assert len(child.bursts) >= 5
        paused = elapsed - child.wall_s
        assert paused >= 0.9 * sum(child.bursts)
        assert child.wall_s == pytest.approx(child.cpu_s, rel=0.3)

    def test_sampled_child_is_killed_at_its_timeout(self, tmp_path):
        env = run.child_env(ROOT, tmp_path)
        child = run.run_child(
            ["-c", "import time; time.sleep(30)"], env, 1.0, sample_every=0.2
        )
        assert child.returncode == -9
        assert child.wall_s < 5


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "fig9-cold", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""
