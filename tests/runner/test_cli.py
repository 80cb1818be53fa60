"""CLI smoke tests: ``python -m repro run/sweep/report``."""

import gc
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repro.apps.registry import APPLICATIONS, SIM_SIZES
from repro.runner.cli import _parse_policies, _parse_size, main
from repro.runner.sweep import fig6_grid

from .faultplan import Fault, injected

REPO_ROOT = Path(__file__).resolve().parents[2]


def _repro(*args: str, timeout: int = 300) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        cwd=REPO_ROOT,
    )


class TestArgParsing:
    def test_parse_policies(self):
        assert _parse_policies("6") == (6,)
        assert _parse_policies("0,3,6") == (0, 3, 6)
        assert _parse_policies("0-3") == (0, 1, 2, 3)
        assert _parse_policies("0-2,6,6") == (0, 1, 2, 6)

    def test_parse_size(self):
        assert _parse_size("default", "sq") is None
        assert _parse_size("small", "sq") == 3
        assert _parse_size("7", "sq") == 7

    def test_small_is_each_apps_sim_size(self):
        for name, spec in APPLICATIONS.items():
            assert _parse_size("small", name) == spec.sim_size
        # Aliases resolve to the registry's entry.
        assert _parse_size("small", "ising") == SIM_SIZES["im"]
        assert _parse_size("small", "SHA-1") == SIM_SIZES["sha1"]
        assert fig6_grid().sizes == SIM_SIZES

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--policies", "0-x"],
            ["sweep", "--policies", ","],
            ["sweep", "--policies", "6-2"],
            ["sweep", "--apps", ""],
            ["sweep", "--size", "abc"],
            ["run", "sq", "--size", "abc"],
        ],
    )
    def test_malformed_or_empty_grid_exits_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flag",
        [
            ["--max-attempts", "2"],
            ["--retry-delay", "0.5"],
            ["--jitter-seed", "1"],
            ["--timeout", "60"],
            ["--fail-fast"],
        ],
    )
    def test_retry_and_deadline_options_are_gone(self, flag, capsys):
        # A point runs once; a script still passing these must hear
        # about it rather than have them silently ignored.
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--apps", "sq", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--apps", "sq", "--fault-plan", "plan.json"],
            ["sweep", "--apps", "sq", "--verify-stages"],
            ["run", "sq", "--verify-stages"],
        ],
    )
    def test_fault_plan_and_verify_stages_are_gone(self, argv, capsys):
        # Fault injection lives in the tests, and `check` is the one
        # path that runs the IR passes.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["run", "sq"], ["sweep", "--apps", "sq"], ["bench"]]
)
def test_engine_option_is_gone(argv, capsys):
    # The runner has one engine; a script still passing --engine must
    # fail loudly instead of having it silently ignored.
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--engine", "flat"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.slow
class TestCliSmoke:
    def test_run_produces_valid_json(self, tmp_path):
        out = tmp_path / "point.json"
        proc = _repro(
            "run",
            "sha1",
            "--size",
            "small",
            "--distance",
            "5",
            "--out",
            str(out),
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["spec"]["app"] == "sha1"
        assert payload["spec"]["size"] == 4
        assert payload["distance"] == 5
        assert payload["braid"]["schedule_length"] > 0
        assert payload["derived"]["preferred_code"] in (
            "planar",
            "double-defect",
        )
        assert json.loads(out.read_text()) == payload

    def test_sweep_then_report_round_trip(self, tmp_path):
        results = tmp_path / "sweep.json"
        cache_dir = tmp_path / "cache"
        proc = _repro(
            "sweep",
            "--apps",
            "sq",
            "--size",
            "2",
            "--policies",
            "0,6",
            "--distance",
            "3",
            "--cache-dir",
            str(cache_dir),
            "--out",
            str(results),
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(results.read_text())
        assert len(payload["points"]) == 2
        assert payload["stats"]["misses"]["frontend"] == 1

        # Re-render Figure 6 from the saved results file...
        report = _repro("report", "fig6", "--results", str(results))
        assert report.returncode == 0, report.stderr
        assert "sq" in report.stdout and "Sched/CP" in report.stdout

        # ... and from the on-disk stage cache.
        from_cache = _repro("report", "fig6", "--cache-dir", str(cache_dir))
        assert from_cache.returncode == 0, from_cache.stderr
        assert "sq" in from_cache.stdout

        table2 = _repro("report", "table2", "--results", str(results))
        assert table2.returncode == 0, table2.stderr
        assert "Square Root" in table2.stdout

    def test_report_table1(self):
        proc = _repro("report", "table1")
        assert proc.returncode == 0, proc.stderr
        assert "Teleportation" in proc.stdout
        assert "Braiding" in proc.stdout

    def test_report_fig6_without_source_fails_cleanly(self):
        proc = _repro("report", "fig6")
        assert proc.returncode == 2
        assert "needs --results or --cache-dir" in proc.stderr


def test_report_rejects_unreadable_results(tmp_path, capsys):
    torn = tmp_path / "torn.json"
    torn.write_text('{"points": [', encoding="utf-8")
    no_app = tmp_path / "no_app.json"
    no_app.write_text('{"points": [{"spec": {}}]}', encoding="utf-8")
    not_object = tmp_path / "not_object.json"
    not_object.write_text("[]", encoding="utf-8")
    bad_stats = tmp_path / "bad_stats.json"
    bad_stats.write_text('{"points": [], "stats": []}', encoding="utf-8")
    for path in (tmp_path / "missing.json", torn, no_app, not_object, bad_stats):
        assert main(["report", "fig6", "--results", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: unreadable sweep results {path}: ")


SMALL_SWEEP = (
    "sweep",
    "--apps",
    "sq,gse",
    "--size",
    "small",
    "--policies",
    "0-8",
    "--distance",
    "3",
)


def _repro_owner(obj: object) -> str:
    """``module.qualname`` of a type, function or method, or of an
    instance's type; empty unless it belongs to ``repro``."""
    owner = (
        obj
        if isinstance(obj, (type, types.FunctionType, types.MethodType))
        else type(obj)
    )
    module = getattr(owner, "__module__", None) or ""
    if module.partition(".")[0] != "repro":
        return ""
    return f"{module}.{owner.__qualname__}"


def _repro_cyclic_garbage(argv: list[str]) -> tuple[int, list[str]]:
    """Run ``cli.main(argv)`` and name the ``repro`` objects among the
    cyclic garbage it leaves."""
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = main(argv)
        gc.collect()
        owned = sorted({_repro_owner(obj) for obj in gc.garbage} - {""})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    return code, owned


def test_no_repro_object_is_cyclic_garbage(tmp_path):
    """``python -m repro`` never runs a full collection, so a cycle
    that outlives two young passes is never freed.  That is safe only
    while a command's cyclic garbage all comes from the standard
    library (indented ``json.dumps``, argparse, imports), which dies
    young."""
    code, owned = _repro_cyclic_garbage(
        [
            *SMALL_SWEEP,
            "--cache-dir",
            str(tmp_path / "cache"),
            "--out",
            str(tmp_path / "sweep.json"),
        ]
    )
    assert code == 0
    assert owned == []


def test_failed_points_leave_no_repro_cyclic_garbage(tmp_path):
    """The same premise on the failure path: a point that raises.  A
    kept exception would tie itself to a frame in its traceback."""
    with injected(POLICY_0_RAISES):
        code, owned = _repro_cyclic_garbage(
            [
                *TINY_SWEEP,
                "--cache-dir",
                str(tmp_path / "cache"),
                "--out",
                str(tmp_path / "sweep.json"),
                "--max-failures",
                "-1",
            ]
        )
    assert code == 3
    payload = json.loads((tmp_path / "sweep.json").read_text())
    assert [f["attempts"] for f in payload["failures"]] == [1]
    assert owned == []


def _tree(root: Path) -> dict[str, bytes]:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.mark.slow
def test_process_entry_changes_no_output(tmp_path):
    """The process entry (no full collection, heap frozen at exit)
    and the in-process ``cli.main`` (default collector) write the same
    sweep."""
    entry, library = tmp_path / "entry", tmp_path / "library"
    proc = _repro(
        *SMALL_SWEEP,
        "--cache-dir",
        str(entry / "cache"),
        "--out",
        str(entry / "sweep.json"),
    )
    assert proc.returncode == 0, proc.stderr
    code = main(
        [
            *SMALL_SWEEP,
            "--cache-dir",
            str(library / "cache"),
            "--out",
            str(library / "sweep.json"),
        ]
    )
    assert code == 0

    def points(side: Path) -> list:
        return json.loads((side / "sweep.json").read_text())["points"]

    assert len(points(entry)) == 18
    assert points(entry) == points(library)
    entry_tree, library_tree = _tree(entry / "cache"), _tree(library / "cache")
    assert len(entry_tree) == 60  # no record for the memory-only `lowered`
    assert sorted(entry_tree) == sorted(library_tree)
    assert [
        name for name in entry_tree if entry_tree[name] != library_tree[name]
    ] == []
    # The `repro` script runs the same entry; tomllib is 3.11+ only.
    pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert '\nrepro = "repro.__main__:main"\n' in pyproject


TINY_SWEEP = (
    "sweep",
    "--apps",
    "sq",
    "--size",
    "2",
    "--policies",
    "0,6",
    "--distance",
    "3",
)

POLICY_0_RAISES = Fault(
    "raise", "braid_sim", match='"policy": 0', once=False
)


class TestSweepFaultCli:
    """Exit codes and flag plumbing of the fault-tolerant sweep:
    0 = all ok, 3 = completed with isolated failures, 1 = aborted,
    2 = usage errors."""

    def test_isolated_failures_exit_3(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        with injected(POLICY_0_RAISES):
            code = main(
                [*TINY_SWEEP, "--out", str(out), "--max-failures", "-1"]
            )
        assert code == 3
        stderr = capsys.readouterr().err
        assert "FAILED sq[2] policy=0" in stderr
        assert "journal kept" in stderr
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["schema"] == 2
        assert len(payload["points"]) == 1
        assert len(payload["failures"]) == 1
        assert payload["failures"][0]["stage"] == "braid_sim"
        # The journal survives for --resume.
        assert out.with_name("sweep.json.partial.jsonl").exists()

    def test_resume_after_failures_exits_0_and_drops_journal(
        self, tmp_path, capsys
    ):
        out = tmp_path / "sweep.json"
        with injected(POLICY_0_RAISES):
            code = main(
                [*TINY_SWEEP, "--out", str(out), "--max-failures", "-1"]
            )
        assert code == 3
        capsys.readouterr()
        code = main([*TINY_SWEEP, "--out", str(out), "--resume"])
        assert code == 0
        stderr = capsys.readouterr().err
        assert "swept 2 points" in stderr
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert len(payload["points"]) == 2
        assert payload["failures"] == []
        assert not out.with_name("sweep.json.partial.jsonl").exists()

    def test_abort_exits_1(self, capsys):
        with injected(Fault("raise", "braid_sim")):
            code = main(list(TINY_SWEEP))
        assert code == 1
        stderr = capsys.readouterr().err
        assert "sweep aborted" in stderr
        assert "FAILED sq[2]" in stderr

    def test_resume_requires_out(self, capsys):
        code = main([*TINY_SWEEP, "--resume"])
        assert code == 2
        assert "--resume needs --out" in capsys.readouterr().err

    def test_cache_stats_reports_quarantine(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        code = main(
            [*TINY_SWEEP, "--cache-dir", str(cache_dir)]
        )
        assert code == 0
        entry = sorted((cache_dir / "point").glob("*.json"))[0]
        entry.write_text("{corrupt", encoding="utf-8")
        capsys.readouterr()
        code = main(
            ["cache", "verify", "--cache-dir", str(cache_dir)]
        )
        assert code == 1
        verify_payload = json.loads(capsys.readouterr().out)
        assert verify_payload["quarantined_total"] == 1
        code = main(
            ["cache", "stats", "--cache-dir", str(cache_dir)]
        )
        assert code == 0
        stats_payload = json.loads(capsys.readouterr().out)
        assert stats_payload["quarantined"] == 1


@pytest.mark.slow
def test_chaos_sweep_isolates_planned_faults(tmp_path, capsys):
    """The chaos scenario through the CLI: a pool worker hard-killed
    mid-braid, a permanently failing point and a corrupted disk entry,
    injected into a two-worker sweep (the forked workers inherit the
    harness).  Exactly the planned failure is isolated (exit 3), every
    survivor equals a fault-free run, and the corrupt entry is
    quarantined."""
    grid = ("sweep", "--apps", "sq", "--size", "2", "--distance", "3")
    chaos_cache = tmp_path / "chaos-cache"
    with injected(
        Fault("kill", "braid_sim"),
        POLICY_0_RAISES,
        Fault("corrupt", "point"),
        state_dir=tmp_path / "chaos-state",
    ) as plan:
        code = main([
            *grid, "--policies", "0-6", "--workers", "2",
            "--max-failures", "-1", "--cache-dir", str(chaos_cache),
            "--out", str(tmp_path / "chaos.json"),
        ])
    assert code == 3, capsys.readouterr().err
    # Both one-shot faults fired: the kill and the corruption.
    assert plan.marker(0).exists()
    assert plan.marker(2).exists()
    code = main([
        *grid, "--policies", "1-6",
        "--cache-dir", str(tmp_path / "clean-cache"),
        "--out", str(tmp_path / "clean.json"),
    ])
    assert code == 0, capsys.readouterr().err

    chaos_report = json.loads((tmp_path / "chaos.json").read_text())
    clean_report = json.loads((tmp_path / "clean.json").read_text())
    assert len(chaos_report["failures"]) == 1, chaos_report["failures"]
    assert chaos_report["failures"][0]["spec"]["policy"] == 0
    survivors = {p["spec"]["policy"]: p for p in chaos_report["points"]}
    expected = {p["spec"]["policy"]: p for p in clean_report["points"]}
    assert sorted(survivors) == list(range(1, 7))
    assert survivors == expected

    capsys.readouterr()
    main(["cache", "verify", "--cache-dir", str(chaos_cache)])
    assert json.loads(capsys.readouterr().out)["quarantined_total"] == 1
