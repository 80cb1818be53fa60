"""Golden coverage: the IR verifier over all 28 Fig. 6 design points.

The acceptance bar for the analysis layer — every artifact the paper's
headline figure compiles (4 apps x 7 policies, collapsing to 8 unique
(app, layout, distance) artifact sets) verifies with zero diagnostics,
including the strict advisory passes staying warning-only.  The
artifacts compile through a disk cache, and ``cache verify`` must
round-trip every payload the check persisted.
"""

import json

import pytest

from repro.analysis import Severity
from repro.analysis.verify import check_grid
from repro.runner.cache import StageCache
from repro.runner.cli import main
from repro.runner.sweep import fig6_grid


@pytest.fixture(scope="module")
def fig6_cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fig6-cache")


@pytest.fixture(scope="module")
def fig6_report(fig6_cache_dir):
    return check_grid(
        fig6_grid(), cache=StageCache(fig6_cache_dir), strict=True
    )


@pytest.mark.slow
class TestFig6Golden:
    def test_covers_all_28_points(self, fig6_report):
        assert fig6_report.points_checked == 28
        assert fig6_report.artifacts_checked == 8

    def test_zero_error_diagnostics(self, fig6_report):
        errors = fig6_report.errors
        assert errors == (), "\n".join(d.format() for d in errors)
        assert fig6_report.ok

    def test_strict_warnings_stay_advisory(self, fig6_report):
        # Real lowered workloads legitimately trip the advisory passes
        # (sq first-touches qubits without preparations); those must
        # surface as warnings, never errors.
        assert all(
            d.severity is not Severity.ERROR
            for d in fig6_report.diagnostics
        )

    def test_persisted_artifacts_verify_clean(
        self, fig6_report, fig6_cache_dir, capsys
    ):
        capsys.readouterr()
        code = main(["cache", "verify", "--cache-dir", str(fig6_cache_dir)])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["ok"] == result["checked"] == 4
        entries = fig6_cache_dir.glob("*/*.json")
        stages = sorted(entry.parent.name for entry in entries)
        assert stages == ["frontend"] * 4
