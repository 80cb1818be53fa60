"""Fault-tolerant sweep execution: isolation, retry/timeout/backoff,
checkpoint-resume, quarantine, and the seeded fault-injection harness
driving all of it deterministically."""

import pytest

from repro.runner import (
    FaultAction,
    FaultPlan,
    GridSpec,
    PointFailure,
    PointSpec,
    RetryPolicy,
    StageCache,
    SweepAborted,
    SweepResult,
    SweepRunner,
    execute_point,
    run_point,
    set_fault_plan,
)
from repro.runner.faults import call_with_deadline
from repro.runner.sweep import journal_path, load_journal

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


class TestRetryPolicy:
    def test_first_attempt_never_waits(self):
        policy = RetryPolicy(max_attempts=3, base_delay=1.0)
        assert policy.delay(1, "token") == 0.0

    def test_backoff_grows_and_replays_deterministically(self):
        policy = RetryPolicy(
            max_attempts=4, base_delay=0.1, jitter_seed=7
        )
        delays = [policy.delay(n, "tok") for n in (2, 3, 4)]
        again = [policy.delay(n, "tok") for n in (2, 3, 4)]
        assert delays == again
        assert delays[0] < delays[1] < delays[2]
        # Jitter stays within one base-delay fraction of the raw curve.
        assert 0.1 <= delays[0] <= 0.2

    def test_jitter_depends_on_seed_and_token(self):
        a = RetryPolicy(max_attempts=2, base_delay=0.1, jitter_seed=1)
        b = RetryPolicy(max_attempts=2, base_delay=0.1, jitter_seed=2)
        assert a.delay(2, "tok") != b.delay(2, "tok")
        assert a.delay(2, "tok") != a.delay(2, "other")

    def test_max_delay_caps(self):
        policy = RetryPolicy(
            max_attempts=9, base_delay=10.0, max_delay=0.5
        )
        assert policy.delay(9, "t") == 0.5

    def test_round_trip(self):
        policy = RetryPolicy(
            max_attempts=3, base_delay=0.2, timeout_s=4.5
        )
        assert RetryPolicy.from_jsonable(policy.to_jsonable()) == policy

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)


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
        for point in payload["points"]:
            del point["degraded_from"]
        loaded = SweepResult.from_jsonable(payload)
        assert loaded.ok
        assert _jsonable(loaded.points) == _jsonable(result.points)

    def test_newer_schema_rejected(self):
        with pytest.raises(ValueError, match="newer"):
            SweepResult.from_jsonable({"schema": 99, "points": []})

    def test_save_load_round_trips_failures(self, tmp_path):
        result = SweepRunner().run(TINY)
        result.failures.append(
            PointFailure(
                spec=PointSpec(app="sq", size=2, policy=1, distance=3),
                stage="timeout",
                error="PointTimeout('slow')",
                error_type="PointTimeout",
                attempts=3,
                elapsed_seconds=1.5,
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


class TestRetry:
    def test_transient_raise_recovered_on_retry(self):
        set_fault_plan(
            FaultPlan([FaultAction(op="raise", stage="braid_sim")])
        )
        result = SweepRunner(
            retry=RetryPolicy(max_attempts=2)
        ).run(TINY)
        assert result.ok
        assert len(result.points) == 4
        # The failed attempt recomputed the braid stage once more.
        assert result.stats.computed("braid_sim") == 5

    def test_backoff_sleeps_between_attempts(self):
        naps = []
        set_fault_plan(
            FaultPlan([FaultAction(op="raise", stage="braid_sim")])
        )
        cache = StageCache()
        outcome = execute_point(
            PointSpec(app="sq", size=2, policy=6, distance=3),
            cache,
            RetryPolicy(max_attempts=2, base_delay=0.01),
            sleep=naps.append,
        )
        assert not isinstance(outcome, PointFailure)
        assert len(naps) == 1 and 0.01 <= naps[0] <= 0.02

    def test_exhausted_attempts_fail_with_count(self):
        set_fault_plan(
            FaultPlan(
                [
                    FaultAction(
                        op="raise", stage="braid_sim", once=False
                    )
                ]
            )
        )
        outcome = execute_point(
            PointSpec(app="sq", size=2, policy=6, distance=3),
            StageCache(),
            RetryPolicy(max_attempts=3),
        )
        assert isinstance(outcome, PointFailure)
        assert outcome.attempts == 3
        assert outcome.stage == "braid_sim"


class TestDeadline:
    def test_call_with_deadline_passes_value_and_errors(self):
        assert call_with_deadline(lambda: 42, timeout_s=5.0) == 42
        with pytest.raises(KeyError):
            call_with_deadline(
                lambda: {}["missing"], timeout_s=5.0
            )

    def test_timeout_then_recover(self):
        # The injected sleep must dwarf the deadline, and the deadline
        # must dwarf a tiny point's real runtime (milliseconds) so a
        # loaded test machine can't time out uninjected points.
        set_fault_plan(
            FaultPlan(
                [
                    FaultAction(
                        op="sleep", stage="braid_sim", seconds=3.0
                    )
                ]
            )
        )
        result = SweepRunner(
            retry=RetryPolicy(max_attempts=2, timeout_s=1.0)
        ).run(TINY)
        assert result.ok
        assert len(result.points) == 4

    def test_timeout_exhausted_reports_timeout_stage(self):
        set_fault_plan(
            FaultPlan(
                [
                    FaultAction(
                        op="sleep",
                        stage="braid_sim",
                        seconds=1.5,
                        once=False,
                    )
                ]
            )
        )
        outcome = execute_point(
            PointSpec(app="sq", size=2, policy=6, distance=3),
            StageCache(),
            RetryPolicy(max_attempts=1, timeout_s=0.3),
        )
        assert isinstance(outcome, PointFailure)
        assert outcome.stage == "timeout"
        assert outcome.error_type == "PointTimeout"


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
        # the chunk exhausts its pool retries and fails structurally.
        set_fault_plan(
            FaultPlan([FaultAction(op="kill", stage="braid_sim")])
        )
        result = SweepRunner(
            cache_dir=tmp_path / "cache",
            workers=2,
            max_failures=None,
            pool_retries=1,
        ).run(TINY)
        assert not result.ok
        assert all(f.stage == "pool" for f in result.failures)
        assert len(result.points) + len(result.failures) >= 4

    def test_kill_in_main_process_degrades_to_raise(self):
        # Serial sweeps must never hard-exit the interpreter.
        set_fault_plan(
            FaultPlan([FaultAction(op="kill", stage="braid_sim")])
        )
        result = SweepRunner(max_failures=None).run(TINY)
        assert len(result.failures) == 1
        assert result.failures[0].error_type == "InjectedFault"

    def test_stalled_worker_recycled_by_watchdog(self, tmp_path):
        # Budget math: per_point = 1.5s x 2 attempts x longest chunk
        # (2) x 1 wave + 1s grace = 7s watchdog; the 20s stall is
        # safely past it.  Two attempts at 1.5s each per
        # millisecond-scale point keep a heavily loaded test machine
        # from turning a slow fork into a false point failure.
        clean = SweepRunner().run(TINY)
        set_fault_plan(
            FaultPlan(
                [FaultAction(op="stall", seconds=20.0)],
                state_dir=tmp_path / "fault-state",
            )
        )
        result = SweepRunner(
            cache_dir=tmp_path / "cache",
            workers=2,
            max_failures=None,
            retry=RetryPolicy(max_attempts=2, timeout_s=1.5),
            pool_grace=1.0,
        ).run(TINY)
        assert result.ok, [f.to_jsonable() for f in result.failures]
        assert _jsonable(result.points) == _jsonable(clean.points)


@pytest.mark.slow
class TestChaos:
    """The acceptance scenario: a seeded plan injecting a worker kill,
    a transient raise, a hung point, and a corrupt disk entry into a
    tiny grid must leave isolated failures, recovered retries, and
    surviving results bit-identical to a fault-free run."""

    def test_seeded_chaos_sweep(self, tmp_path):
        clean = SweepRunner().run(TINY)
        plan = FaultPlan(
            [
                # A worker hard-killed mid-braid: chunk requeued on a
                # rebuilt pool.
                FaultAction(op="kill", stage="braid_sim"),
                # One braid simulation sleeps past its deadline once.
                FaultAction(
                    op="sleep", stage="braid_sim", seconds=4.0
                ),
                # Policy-0 points of sq fail every attempt: permanent,
                # isolated failures.
                FaultAction(
                    op="raise",
                    stage="braid_sim",
                    match='"policy": 0',
                    once=False,
                ),
                # One persisted point entry is corrupted on disk.
                FaultAction(op="corrupt", stage="point"),
            ],
            seed=1234,
            state_dir=tmp_path / "fault-state",
        )
        set_fault_plan(plan)
        result = SweepRunner(
            cache_dir=tmp_path / "cache",
            workers=2,
            max_failures=None,
            retry=RetryPolicy(
                max_attempts=2, base_delay=0.01, timeout_s=2.0
            ),
        ).run(TINY)
        set_fault_plan(None)
        # Both policy-0 points failed; both policy-6 points survived.
        assert len(result.failures) == 2
        assert {f.spec.policy for f in result.failures} == {0}
        assert {p.spec.policy for p in result.points} == {6}
        survivors = {
            p.spec.key().digest: p.to_jsonable() for p in result.points
        }
        expected = {
            p.spec.key().digest: p.to_jsonable()
            for p in clean.points
            if p.spec.policy == 6
        }
        assert survivors == expected
        # The corrupted disk entry is caught (and quarantined) by
        # cache verification.
        report = StageCache(tmp_path / "cache").verify()
        assert len(report["corrupt"]) <= 1
        total = report["quarantined_total"]
        assert total <= 1

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
            seed=99,
            state_dir=tmp_path,
        )
        revived = FaultPlan.from_json(plan.to_json())
        assert revived.actions == plan.actions
        assert revived.seed == 99
        assert revived.state_dir == tmp_path
