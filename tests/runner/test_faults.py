"""Fault-tolerant sweep execution: run-once isolation, crash re-queue,
checkpoint-resume, quarantine, and the fault-injection harness driving
all of it deterministically."""

import json

import pytest

from repro.runner import (
    FaultAction,
    FaultPlan,
    GridSpec,
    InjectedFault,
    PointFailure,
    PointSpec,
    StageCache,
    SweepAborted,
    SweepResult,
    SweepRunner,
    execute_point,
    run_point,
    set_fault_plan,
)
from repro.runner.sweep import POOL_RETRIES, journal_path, load_journal

# Tiny instances keep every simulation in the milliseconds range.
TINY = GridSpec(
    apps=("sq", "gse"),
    sizes={"sq": 2, "gse": 3},
    policies=(0, 6),
    distance=3,
)


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    set_fault_plan(None)
    yield
    set_fault_plan(None)


def _jsonable(points):
    return [p.to_jsonable() for p in points]


class TestPointFailure:
    def test_round_trip(self):
        failure = PointFailure(
            spec=PointSpec(app="sq", size=2, policy=6, distance=3),
            stage="braid_sim",
            error="InjectedFault('boom')",
            error_type="InjectedFault",
            attempts=2,
            elapsed_seconds=0.25,
        )
        revived = PointFailure.from_jsonable(failure.to_jsonable())
        assert revived == failure


class TestFaultAction:
    @pytest.mark.parametrize("op", ["sleep", "stall"])
    def test_removed_ops_rejected(self, op):
        with pytest.raises(ValueError, match="unknown fault op"):
            FaultAction(op=op, stage="braid_sim")

    def test_seconds_field_rejected(self):
        # Neither op that read it remains, so a plan carrying the field
        # is refused rather than silently half-applied.
        with pytest.raises(TypeError):
            FaultAction.from_jsonable(
                {"op": "raise", "stage": "braid_sim", "seconds": 0.0}
            )


class TestSweepResultSchema:
    def test_schema_field_written(self):
        result = SweepRunner().run(TINY)
        payload = result.to_jsonable()
        assert payload["schema"] == 2
        assert payload["failures"] == []
        assert result.ok

    def test_v1_payload_compat(self):
        """Reports saved before fault tolerance load with no failures."""
        result = SweepRunner().run(TINY)
        payload = result.to_jsonable()
        del payload["schema"]
        del payload["failures"]
        loaded = SweepResult.from_jsonable(payload)
        assert loaded.ok
        assert _jsonable(loaded.points) == _jsonable(result.points)

    def test_points_saved_with_an_engine_axis_load(self, tmp_path):
        """Points written while the runner had an engine axis carry
        ``spec.engine`` and ``degraded_from``; a saved report and a
        cache record of that shape both load as the current point."""
        from repro.runner.keys import StageKey
        from repro.runner.report import load_points

        (point,) = SweepRunner().run(
            [PointSpec(app="sq", size=2, policy=6, distance=3)]
        ).points
        payload = point.to_jsonable()
        payload["spec"]["engine"] = "flat"
        payload["degraded_from"] = None
        report = {"schema": 2, "points": [payload], "failures": []}
        assert SweepResult.from_jsonable(report).points == [point]
        cache = StageCache(tmp_path)
        params = point.spec.key().describe()["params"]
        cache.store_payload(
            StageKey.make("point", **params, engine="flat"), payload
        )
        assert load_points(cache) == [point]

    def test_newer_schema_rejected(self):
        with pytest.raises(ValueError, match="newer"):
            SweepResult.from_jsonable({"schema": 99, "points": []})

    def test_save_load_round_trips_failures(self, tmp_path):
        result = SweepRunner().run(TINY)
        result.failures.append(
            PointFailure(
                spec=PointSpec(app="sq", size=2, policy=1, distance=3),
                stage="pool",
                error="BrokenProcessPool('worker died')",
                error_type="BrokenProcessPool",
                attempts=3,
                elapsed_seconds=0.0,
            )
        )
        path = tmp_path / "sweep.json"
        result.save(path)
        loaded = SweepResult.load(path)
        assert not loaded.ok
        assert loaded.failures == result.failures
        assert _jsonable(loaded.points) == _jsonable(result.points)


class TestIsolation:
    def test_injected_failure_is_isolated(self):
        set_fault_plan(
            FaultPlan([FaultAction(op="raise", stage="braid_sim")])
        )
        result = SweepRunner(max_failures=None).run(TINY)
        assert len(result.failures) == 1
        assert len(result.points) == 3
        failure = result.failures[0]
        assert failure.stage == "braid_sim"
        assert failure.error_type == "InjectedFault"
        assert failure.attempts == 1

    def test_default_fail_fast_aborts(self):
        set_fault_plan(
            FaultPlan([FaultAction(op="raise", stage="braid_sim")])
        )
        with pytest.raises(SweepAborted) as excinfo:
            SweepRunner().run(TINY)
        assert len(excinfo.value.failures) == 1

    def test_max_failures_budget(self):
        # Policy-0 braid simulations always fail: 2 failures in TINY.
        set_fault_plan(
            FaultPlan(
                [
                    FaultAction(
                        op="raise",
                        stage="braid_sim",
                        match='"policy": 0',
                        once=False,
                    )
                ]
            )
        )
        with pytest.raises(SweepAborted):
            SweepRunner(max_failures=1).run(TINY)
        set_fault_plan(
            FaultPlan(
                [
                    FaultAction(
                        op="raise",
                        stage="braid_sim",
                        match='"policy": 0',
                        once=False,
                    )
                ]
            )
        )
        tolerant = SweepRunner(max_failures=2).run(TINY)
        assert len(tolerant.failures) == 2
        assert {f.spec.policy for f in tolerant.failures} == {0}
        assert {p.spec.policy for p in tolerant.points} == {6}

    def test_surviving_points_bit_identical_to_clean_run(self):
        clean = SweepRunner().run(TINY)
        set_fault_plan(
            FaultPlan(
                [
                    FaultAction(
                        op="raise",
                        stage="braid_sim",
                        match='"policy": 0',
                        once=False,
                    )
                ]
            )
        )
        faulty = SweepRunner(max_failures=None).run(TINY)
        survivors = {
            p.spec.key().digest: p.to_jsonable() for p in faulty.points
        }
        expected = {
            p.spec.key().digest: p.to_jsonable()
            for p in clean.points
            if p.spec.policy == 6
        }
        assert survivors == expected


class TestRunOnce:
    """Stages are pure functions of their keys, so a point that raised
    would raise again: it fails at once and is never re-run within the
    sweep.  ``resume`` is the one path that re-runs it."""

    SPEC = PointSpec(app="sq", size=2, policy=6, distance=3)

    def test_transient_fault_fails_the_point(self):
        # A one-shot fault: any second attempt would succeed.
        set_fault_plan(
            FaultPlan([FaultAction(op="raise", stage="braid_sim")])
        )
        outcome = execute_point(self.SPEC, StageCache())
        assert isinstance(outcome, PointFailure)
        assert outcome.attempts == 1
        assert outcome.stage == "braid_sim"
        assert outcome.error_type == "InjectedFault"

    def test_failed_stage_is_called_once(self):
        set_fault_plan(
            FaultPlan(
                [
                    # Call 1 raises; a re-run would reach call 2.
                    FaultAction(op="raise", stage="braid_sim"),
                    FaultAction(op="raise", stage="braid_sim", nth=2),
                ]
            )
        )
        outcome = execute_point(self.SPEC, StageCache())
        assert isinstance(outcome, PointFailure)
        assert "action 0" in outcome.error
        # Action 1 never fired, so the next call is call 2.
        with pytest.raises(InjectedFault, match="action 1"):
            run_point(self.SPEC, StageCache())

    def test_healthy_point_matches_run_point(self):
        outcome = execute_point(self.SPEC, StageCache())
        assert outcome.to_jsonable() == run_point(
            self.SPEC, StageCache()
        ).to_jsonable()


class TestQuarantine:
    def test_corrupt_entry_quarantined_on_load(self, tmp_path):
        cache = StageCache(tmp_path)
        spec = PointSpec(app="sq", size=2, policy=6, distance=3)
        run_point(spec, cache)
        [entry] = (tmp_path / "point").glob("*.json")
        entry.write_text("{corrupt", encoding="utf-8")
        cold = StageCache(tmp_path)
        revived = cold.load_payload(spec.normalized().key())
        assert revived is None
        assert not entry.exists()
        quarantined = list(
            (tmp_path / "quarantine" / "point").glob("*.json")
        )
        assert len(quarantined) == 1
        reason = quarantined[0].with_suffix(".reason.txt")
        assert "undecodable JSON" in reason.read_text(encoding="utf-8")
        assert cold.disk_stats()["quarantined"] == 1

    def test_injected_corruption_recovers_and_quarantines(
        self, tmp_path
    ):
        set_fault_plan(
            FaultPlan([FaultAction(op="corrupt", stage="point")])
        )
        warm = SweepRunner(cache_dir=tmp_path).run(TINY)
        assert warm.ok
        set_fault_plan(None)
        # One point entry on disk is garbage; a cold process must
        # quarantine it, recompute, and still match the first run.
        runner = SweepRunner(cache_dir=tmp_path)
        cold = runner.run(TINY)
        assert cold.ok
        assert _jsonable(cold.points) == _jsonable(warm.points)
        assert runner.cache.disk_stats()["quarantined"] == 1
        assert cold.stats.computed("point") == 1
        assert cold.stats.disk_hits.get("point", 0) == 3

    def test_verify_quarantines_and_reports(self, tmp_path):
        cache = StageCache(tmp_path)
        run_point(
            PointSpec(app="sq", size=2, policy=6, distance=3), cache
        )
        [entry] = (tmp_path / "point").glob("*.json")
        entry.write_text("not json at all", encoding="utf-8")
        report = cache.verify()
        assert len(report["corrupt"]) == 1
        assert len(report["quarantined"]) == 1
        assert report["quarantined_total"] == 1
        # Quarantined entries are out of the cache tree: a second
        # verify run is clean.
        again = cache.verify()
        assert again["corrupt"] == []
        assert again["quarantined_total"] == 1

    def test_quarantine_not_scanned_as_a_stage(self, tmp_path):
        cache = StageCache(tmp_path)
        run_point(
            PointSpec(app="sq", size=2, policy=6, distance=3), cache
        )
        [entry] = (tmp_path / "point").glob("*.json")
        entry.write_text("{", encoding="utf-8")
        cache.load_payload(
            PointSpec(app="sq", size=2, policy=6, distance=3)
            .normalized()
            .key()
        )
        stats = cache.disk_stats()
        assert "quarantine" not in stats["stages"]


class TestJournalResume:
    def test_journal_written_and_cleaned_lines(self, tmp_path):
        journal = tmp_path / "sweep.json.partial.jsonl"
        result = SweepRunner().run(TINY, journal=journal)
        assert result.ok
        lines = journal.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        revived = load_journal(journal)
        assert len(revived) == 4

    def test_resume_skips_journaled_points(self, tmp_path):
        journal = tmp_path / "sweep.json.partial.jsonl"
        clean = SweepRunner().run(TINY, journal=journal)
        # Simulate a sweep SIGKILLed after two points: keep the first
        # two journal lines plus a torn final line.
        lines = journal.read_text(encoding="utf-8").splitlines()
        journal.write_text(
            "\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2],
            encoding="utf-8",
        )
        resumed = SweepRunner().run(TINY, journal=journal, resume=True)
        assert resumed.ok
        assert resumed.stats.computed("point") == 2
        assert _jsonable(resumed.points) == _jsonable(clean.points)
        # The journal now holds every point again.
        assert len(load_journal(journal)) == 4

    def test_resume_reruns_only_failed_points(self, tmp_path):
        journal = tmp_path / "sweep.json.partial.jsonl"
        clean = SweepRunner().run(TINY)
        set_fault_plan(
            FaultPlan(
                [
                    FaultAction(
                        op="raise",
                        stage="braid_sim",
                        match='"policy": 0',
                        once=False,
                    )
                ]
            )
        )
        faulty = SweepRunner(max_failures=None).run(TINY, journal=journal)
        assert len(faulty.failures) == 2
        # Failures are not journaled: only the survivors are.
        assert len(load_journal(journal)) == 2
        set_fault_plan(None)
        resumed = SweepRunner().run(TINY, journal=journal, resume=True)
        assert resumed.ok
        assert resumed.stats.computed("point") == 2
        assert _jsonable(resumed.points) == _jsonable(clean.points)

    def test_fresh_run_truncates_stale_journal(self, tmp_path):
        journal = tmp_path / "sweep.json.partial.jsonl"
        journal.write_text("garbage\n", encoding="utf-8")
        result = SweepRunner().run(TINY, journal=journal)
        assert result.ok
        assert len(load_journal(journal)) == 4

    def test_journal_entries_for_other_grids_ignored(self, tmp_path):
        journal = tmp_path / "sweep.json.partial.jsonl"
        SweepRunner().run(
            GridSpec(
                apps=("im",), sizes={"im": 8}, policies=(6,), distance=3
            ),
            journal=journal,
        )
        resumed = SweepRunner().run(TINY, journal=journal, resume=True)
        assert resumed.ok
        assert resumed.stats.computed("point") == 4

    def test_engine_keyed_journal_lines_are_recomputed(self, tmp_path):
        """A journal written while points were keyed by engine records
        digests that the current point keys no longer give, so
        ``--resume`` recomputes those points instead of reviving them."""
        from repro.runner.keys import StageKey

        journal = tmp_path / "sweep.json.partial.jsonl"
        clean = SweepRunner().run(TINY, journal=journal)
        lines = []
        for line in journal.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            spec = PointSpec.from_jsonable(record["point"]["spec"])
            params = spec.key().describe()["params"]
            record["digest"] = StageKey.make(
                "point", **params, engine="flat"
            ).digest
            record["point"]["spec"]["engine"] = "flat"
            record["point"]["degraded_from"] = None
            lines.append(json.dumps(record))
        journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert load_journal(journal) == {}
        resumed = SweepRunner().run(TINY, journal=journal, resume=True)
        assert resumed.ok
        assert resumed.stats.computed("point") == 4
        assert _jsonable(resumed.points) == _jsonable(clean.points)

    def test_journal_path_shape(self):
        assert str(journal_path("out/sweep.json")).endswith(
            "sweep.json.partial.jsonl"
        )


@pytest.mark.slow
class TestWorkerCrashRecovery:
    def test_killed_worker_chunk_requeued(self, tmp_path):
        clean = SweepRunner().run(TINY)
        set_fault_plan(
            FaultPlan(
                [FaultAction(op="kill", stage="braid_sim")],
                state_dir=tmp_path / "fault-state",
            )
        )
        result = SweepRunner(
            cache_dir=tmp_path / "cache",
            workers=2,
            max_failures=None,
        ).run(TINY)
        assert result.ok, [f.to_jsonable() for f in result.failures]
        assert _jsonable(result.points) == _jsonable(clean.points)

    def test_kill_without_cross_process_marker_exhausts_chunk(
        self, tmp_path
    ):
        # No state_dir: every replacement worker re-fires the kill, so
        # each chunk is lost in every pool round and its points fail
        # structurally, each exactly once.
        set_fault_plan(
            FaultPlan([FaultAction(op="kill", stage="braid_sim")])
        )
        result = SweepRunner(
            cache_dir=tmp_path / "cache",
            workers=2,
            max_failures=None,
        ).run(TINY)
        assert result.points == []
        assert len(result.failures) == 4
        assert {f.spec.key().digest for f in result.failures} == {
            s.key().digest for s in TINY.expand()
        }
        assert all(f.stage == "pool" for f in result.failures)
        assert all(
            f.error_type == "BrokenProcessPool" for f in result.failures
        )
        assert [f.attempts for f in result.failures] == [
            POOL_RETRIES + 1
        ] * 4

    def test_kill_in_main_process_degrades_to_raise(self):
        # Serial sweeps must never hard-exit the interpreter.
        set_fault_plan(
            FaultPlan([FaultAction(op="kill", stage="braid_sim")])
        )
        result = SweepRunner(max_failures=None).run(TINY)
        assert len(result.failures) == 1
        assert result.failures[0].error_type == "InjectedFault"


@pytest.mark.slow
class TestChaos:
    """Fault plans travel to worker processes as JSON.  The chaos
    sweep itself (a worker kill, a permanent raise and a corrupt disk
    entry through the CLI) runs in ``tests/runner/test_cli.py``."""

    def test_plan_round_trips_through_json(self, tmp_path):
        plan = FaultPlan(
            [
                FaultAction(op="kill", stage="braid_sim"),
                FaultAction(
                    op="raise",
                    stage="braid_sim",
                    nth=2,
                    match='"policy": 0',
                ),
            ],
            state_dir=tmp_path,
        )
        revived = FaultPlan.from_json(plan.to_json())
        assert revived.actions == plan.actions
        assert revived.state_dir == tmp_path
