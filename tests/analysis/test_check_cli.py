"""``repro check`` / ``repro lint`` CLIs and the stage verify hooks."""

import json
from pathlib import Path

import pytest

from repro.analysis import AnalysisError
from repro.analysis.verify import check_grid, stage_verifier
from repro.partition.layout import GridShape, Placement, circuit_layout
from repro.qasm.circuit import Circuit
from repro.runner import stages
from repro.runner.cache import StageCache
from repro.runner.cli import main
from repro.runner.keys import StageKey
from repro.runner.sweep import GridSpec

FIXTURE = Path(__file__).resolve().parent / "fixture_bad_stage.py"

SMALL_GRID = GridSpec(
    apps=("gse",), sizes={"gse": 3}, policies=(0, 6), distance=3
)


class TestCheckGrid:
    def test_small_grid_is_clean(self):
        report = check_grid(SMALL_GRID)
        assert report.ok
        # Policies 0 and 6 use different layouts -> two artifact sets.
        assert report.artifacts_checked == 2
        assert report.points_checked == 2
        payload = report.to_jsonable()
        assert payload["ok"] is True
        assert payload["diagnostics"] == []

    def test_derives_distance_like_run_point(self):
        # No explicit distance: derived from the frontend error budget.
        grid = GridSpec(
            apps=("gse",), sizes={"gse": 3}, policies=(0,), distance=None
        )
        report = check_grid(grid)
        assert report.ok
        assert report.artifacts_checked == 1

    def test_check_cli_json(self, capsys):
        exit_code = main(["check", "--grid", "tiny", "--json"])
        assert exit_code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["ok"] is True
        assert "0 error(s)" in captured.err


class TestLintCli:
    def test_clean_package_exits_zero(self):
        assert main(["lint", "src/repro"]) == 0

    def test_fixture_fails_the_build(self, capsys):
        assert main(["lint", str(FIXTURE)]) == 1
        out = capsys.readouterr().out
        for rule in ("ND01", "ND02", "SK01", "FM01"):
            assert rule in out

    def test_missing_path_is_usage_error(self):
        assert main(["lint", "no/such/path.py"]) == 2


class TestStageVerifyHook:
    def test_rejected_value_never_enters_the_cache(self):
        cache = StageCache()
        key = StageKey.make("probe", x=1)

        def verify(value):
            raise AnalysisError([])

        with pytest.raises(AnalysisError):
            cache.get_or_compute(key, lambda: 42, verify=verify)
        assert key not in cache
        # Without the verifier the same key computes normally.
        assert cache.get_or_compute(key, lambda: 42) == 42

    def test_stage_verifier_catches_a_corrupt_revived_circuit(self):
        verifier = stage_verifier("lowered")
        assert verifier is not None
        from repro.qasm.circuit import Circuit

        good = Circuit(name="ok")
        good.apply("PREPZ", "q0")
        verifier(good)  # no raise
        bad = Circuit(name="bad")
        bad.apply("TOFFOLI", "a", "b", "c")  # composite: not lowered
        with pytest.raises(AnalysisError):
            verifier(bad)

    def test_layout_verifier_checks_a_bare_placement(self):
        verifier = stage_verifier("layout")
        assert verifier is not None
        circuit = Circuit(qubits=["a", "b"])
        circuit.apply("CNOT", "a", "b")
        verifier(circuit_layout(circuit))  # no raise
        # Bypass the constructor's own check, as a corrupt revival would.
        bad = object.__new__(Placement)
        object.__setattr__(bad, "grid", GridShape(1, 2))
        object.__setattr__(bad, "positions", {"a": (0, 0), "b": (0, 0)})
        with pytest.raises(AnalysisError, match="already assigned"):
            verifier(bad)

    def test_verified_layout_serves_both_machines(self):
        assert stages.set_stage_verification(True) is False
        try:
            cache = StageCache()
            simd = stages.compute_simd(cache, "gse", 3)
            plan = stages.compute_braid_plan(
                cache, "gse", 3, optimize_layout=True, distance=3
            )
            placement = stages.compute_layout(cache, "gse", 3)
            assert simd.machine.placement is placement
            assert len(plan.placement.positions) == len(placement.positions)
        finally:
            assert stages.set_stage_verification(False) is True

    def test_set_stage_verification_round_trips(self):
        assert stages.set_stage_verification(True) is False
        try:
            cache = StageCache()
            circuit = stages.compute_lowered(cache, "gse", 3)
            assert len(circuit) > 0
        finally:
            assert stages.set_stage_verification(False) is True

    def test_verified_run_cli(self, tmp_path, capsys):
        exit_code = main([
            "run", "gse", "--size", "3", "--policy", "0",
            "--distance", "3", "--verify-stages",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert exit_code == 0
        capsys.readouterr()

    def teardown_method(self):
        stages.set_stage_verification(False)
