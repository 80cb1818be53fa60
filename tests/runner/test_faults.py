"""Fault-tolerant sweep execution: run-once isolation, crash re-queue,
checkpoint-resume and quarantine, driven deterministically by the
fault-injection harness in :mod:`.faultplan`."""

import json

import pytest

from repro.runner import (
    GridSpec,
    PointFailure,
    PointSpec,
    StageCache,
    SweepAborted,
    SweepResult,
    StageKey,
    SweepRunner,
    execute_point,
    run_point,
)
from repro.runner.sweep import POOL_RETRIES, journal_path, load_journal

from . import faultplan
from .faultplan import Fault, InjectedFault, injected

# Tiny instances keep every simulation in the milliseconds range.
TINY = GridSpec(
    apps=("sq", "gse"),
    sizes={"sq": 2, "gse": 3},
    policies=(0, 6),
    distance=3,
)

POLICY_0_RAISES = Fault(
    "raise", "braid_sim", match='"policy": 0', once=False
)
"""Every policy-0 braid simulation fails: 2 failures in TINY."""


def _jsonable(points):
    return [p.to_jsonable() for p in points]


class TestFaultAction:
    @pytest.mark.parametrize("op", ["sleep", "stall"])
    def test_removed_ops_rejected(self, op):
        with pytest.raises(ValueError, match="unknown fault op"):
            Fault(op=op, stage="braid_sim")


class TestInjected:
    """The harness itself: which computes a fault hits, and cleanup."""

    @staticmethod
    def _compute(cache, x, **params):
        return cache.get_or_compute(
            StageKey.make("demo", x=x, **params), lambda: x
        )

    def test_block_exit_restores_the_cache(self):
        get_or_compute = StageCache.get_or_compute
        store_payload = StageCache.store_payload
        with pytest.raises(KeyError):
            with injected(Fault("raise", "demo")):
                raise KeyError("inside")
        assert StageCache.get_or_compute is get_or_compute
        assert StageCache.store_payload is store_payload

    def test_nth_counts_computes_of_matching_keys(self):
        cache = StageCache()
        with injected(Fault("raise", "demo", nth=2, match='"x": 1')):
            assert self._compute(cache, 2) == 2  # key does not match
            assert self._compute(cache, 1) == 1  # first matching compute
            assert self._compute(cache, 1) == 1  # memory hit: no compute
            with pytest.raises(InjectedFault):
                self._compute(cache, 1, y=0)
            assert self._compute(cache, 1, y=1) == 1  # once: spent

    def test_repeating_fault_fires_from_nth_on(self):
        cache = StageCache()
        with injected(Fault("raise", "demo", nth=2, once=False)):
            assert self._compute(cache, 1) == 1
            for x in (2, 3):
                with pytest.raises(InjectedFault):
                    self._compute(cache, x)

    def test_marker_keeps_a_once_fault_to_one_firing(self, tmp_path):
        # A second plan over the same state_dir stands for the pool that
        # replaces one a kill broke: it finds the marker and stays quiet.
        fault = Fault("raise", "demo")
        with injected(fault, state_dir=tmp_path) as plan:
            with pytest.raises(InjectedFault):
                self._compute(StageCache(), 1)
            assert plan.marker(0).exists()
        with injected(fault, state_dir=tmp_path):
            assert self._compute(StageCache(), 1) == 1

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_refuses_a_start_method_that_does_not_fork(
        self, method, monkeypatch
    ):
        # Children started that way import an unpatched StageCache, so
        # a planned fault would silently not fire in them.
        get_or_compute = StageCache.get_or_compute
        monkeypatch.setattr(
            faultplan.multiprocessing, "get_start_method", lambda: method
        )
        with pytest.raises(RuntimeError, match="'fork' start method"):
            with injected(Fault("raise", "demo")):
                pass
        assert StageCache.get_or_compute is get_or_compute


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
        with injected(Fault("raise", "braid_sim")):
            result = SweepRunner(max_failures=None).run(TINY)
        assert len(result.failures) == 1
        assert len(result.points) == 3
        failure = result.failures[0]
        assert failure.stage == "braid_sim"
        assert failure.error_type == "InjectedFault"
        assert failure.attempts == 1

    def test_default_fail_fast_aborts(self):
        with injected(Fault("raise", "braid_sim")):
            with pytest.raises(SweepAborted) as excinfo:
                SweepRunner().run(TINY)
        assert len(excinfo.value.failures) == 1

    def test_max_failures_budget(self):
        with injected(POLICY_0_RAISES):
            with pytest.raises(SweepAborted):
                SweepRunner(max_failures=1).run(TINY)
        with injected(POLICY_0_RAISES):
            tolerant = SweepRunner(max_failures=2).run(TINY)
        assert len(tolerant.failures) == 2
        assert {f.spec.policy for f in tolerant.failures} == {0}
        assert {p.spec.policy for p in tolerant.points} == {6}

    def test_surviving_points_bit_identical_to_clean_run(self):
        clean = SweepRunner().run(TINY)
        with injected(POLICY_0_RAISES):
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
        with injected(Fault("raise", "braid_sim")):
            outcome = execute_point(self.SPEC, StageCache())
        assert isinstance(outcome, PointFailure)
        assert outcome.attempts == 1
        assert outcome.stage == "braid_sim"
        assert outcome.error_type == "InjectedFault"

    def test_failed_stage_is_called_once(self):
        with injected(
            # Call 1 raises; a re-run would reach call 2.
            Fault("raise", "braid_sim"),
            Fault("raise", "braid_sim", nth=2),
        ):
            outcome = execute_point(self.SPEC, StageCache())
            assert isinstance(outcome, PointFailure)
            assert "fault 0" in outcome.error
            # Fault 1 never fired, so the next call is call 2.
            with pytest.raises(InjectedFault, match="fault 1"):
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
        with injected(Fault("corrupt", "point")):
            warm = SweepRunner(cache_dir=tmp_path).run(TINY)
        assert warm.ok
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
        with injected(POLICY_0_RAISES):
            faulty = SweepRunner(max_failures=None).run(
                TINY, journal=journal
            )
        assert len(faulty.failures) == 2
        # Failures are not journaled: only the survivors are.
        assert len(load_journal(journal)) == 2
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
        with injected(
            Fault("kill", "braid_sim"), state_dir=tmp_path / "fault-state"
        ) as plan:
            result = SweepRunner(
                cache_dir=tmp_path / "cache",
                workers=2,
                max_failures=None,
            ).run(TINY)
        assert plan.marker(0).exists(), "the kill never fired"
        assert result.ok, [f.to_jsonable() for f in result.failures]
        assert _jsonable(result.points) == _jsonable(clean.points)

    def test_kill_without_cross_process_marker_exhausts_chunk(
        self, tmp_path
    ):
        # No state_dir: every replacement worker re-fires the kill, so
        # each chunk is lost in every pool round and its points fail
        # structurally, each exactly once.
        with injected(Fault("kill", "braid_sim")):
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
        with injected(Fault("kill", "braid_sim")):
            result = SweepRunner(max_failures=None).run(TINY)
        assert len(result.failures) == 1
        assert result.failures[0].error_type == "InjectedFault"

