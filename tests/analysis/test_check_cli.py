"""``repro check`` / ``repro lint`` CLIs."""

import json
from pathlib import Path

from repro.analysis.verify import check_grid
from repro.runner.cli import main
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
