"""``python -m repro``: run, sweep, report, bench, and cache admin.

Subcommands:

* ``run APP`` -- one grid point through the staged pipeline; prints the
  result as JSON (and caches it if ``--cache-dir`` is given).
* ``sweep`` -- a declarative grid (or the ``fig6`` preset) through the
  :class:`~repro.runner.sweep.SweepRunner`, with shared-work dedup,
  optional process parallelism, and fault tolerance (each point runs
  once, isolated, under a ``--max-failures`` budget; ``--resume``
  re-runs only what did not finish); persists results as JSON.  Exit
  codes: 0 = every point completed, 3 = completed with isolated
  failures (listed in the report), 1 = aborted past the failure
  budget, 2 = malformed arguments.
* ``report`` -- re-render Figures 6-9 and Tables 1-2 from cached
  results (``--cache-dir``) or a saved sweep file (``--results``).
* ``bench`` -- cold-cache stage-timing measurement through
  :mod:`repro.runner.bench`, with optional verification against the
  seed loop and a baseline regression gate (the baseline is read and
  checked before anything runs).
* ``cache`` -- stats / prune / verify for an existing on-disk stage
  cache directory (``verify`` audits record decoding, payload
  checksums and digest filenames; ``stats`` reports raw vs. stored
  bytes).
* ``check`` -- static IR verification of every compiled artifact of a
  sweep grid through :mod:`repro.analysis` (zero diagnostics on a
  healthy build).
* ``lint`` -- AST determinism/purity lint over source trees
  (:mod:`repro.analysis.lint`); nonzero exit on any finding.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional, Sequence

from ..tech import technology_for_error_rate
from .bench import BENCH_GRIDS, BenchReport, compare_reports, run_bench
from .cache import StageCache
from .report import render_failures
from .stages import TECH_PRESETS, PointSpec, run_point
from .sweep import (
    DEFAULT_APPS,
    GridSpec,
    SweepAborted,
    SweepResult,
    SweepRunner,
    fig6_grid,
    fig6x_grid,
    journal_path,
)

__all__ = ["main", "build_parser"]


def _validate_names(apps: Sequence[str], policies: Sequence[int]) -> None:
    """Raise ValueError naming an unknown app or policy."""
    from ..apps.registry import get_app
    from ..network.policies import POLICIES

    try:
        for app in apps:
            get_app(app)
    except KeyError as error:
        raise ValueError(error.args[0]) from None
    for policy in policies:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown braid policy {policy!r}; "
                f"available: {sorted(POLICIES)}"
            )


def _parse_size(value: str, app: str) -> Optional[int]:
    """Parse a ``--size`` knob; ValueError names a malformed value."""
    if value == "default":
        return None
    if value == "small":
        from ..apps.registry import get_app

        return get_app(app).sim_size
    try:
        return int(value)
    except ValueError:
        raise ValueError(
            f'--size {value!r} is not an integer, "small" or "default"'
        ) from None


def _parse_policies(value: str) -> tuple[int, ...]:
    """Parse ``"6"``, ``"0,3,6"``, or ``"0-6"`` into policy numbers;
    ValueError names an empty, malformed or reversed part."""
    policies: list[int] = []
    for part in value.split(","):
        part = part.strip()
        low, dash, high = part.partition("-")
        try:
            first = int(low)
            last = int(high) if dash else first
        except ValueError:
            raise ValueError(
                f"--policies {value!r}: {part!r} is not a policy "
                "or a low-high range"
            ) from None
        if first > last:
            raise ValueError(
                f"--policies {value!r}: range {part!r} is reversed"
            )
        policies.extend(range(first, last + 1))
    return tuple(dict.fromkeys(policies))


def _int_at_least(value: str, low: int) -> int:
    """Parse an integer option value >= ``low``; ArgumentTypeError (so
    argparse exits 2 and names the flag) on anything else."""
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{value!r} is not an integer"
        ) from None
    if number < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {number}")
    return number


# Module-level ``type=`` functions: a closure per parser would become
# cyclic garbage with the parser, which ``python -m repro`` never
# collects.
def _positive_int(value: str) -> int:
    return _int_at_least(value, 1)


def _nonnegative_int(value: str) -> int:
    return _int_at_least(value, 0)


def _error_rate(value: str) -> float:
    """argparse ``type=`` for ``--error-rate``: a physical error rate
    the technology model accepts (below threshold, in (0, 1))."""
    try:
        return technology_for_error_rate(float(value)).physical_error_rate
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _add_point_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tech",
        default="intermediate",
        choices=sorted(TECH_PRESETS),
        help="technology preset",
    )
    parser.add_argument(
        "--error-rate",
        type=_error_rate,
        default=None,
        help="physical error rate overriding the preset",
    )
    parser.add_argument(
        "--distance",
        type=_positive_int,
        default=None,
        help="code distance override (default: derived from error budget)",
    )
    parser.add_argument(
        "--regions", type=_positive_int, default=4, help="SIMD region count"
    )
    parser.add_argument(
        "--inline-depth",
        type=_nonnegative_int,
        default=None,
        help="flattening depth (default: fully inlined)",
    )
    parser.add_argument(
        "--window",
        type=_nonnegative_int,
        default=64,
        help="EPR look-ahead window (logical cycles)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk JSON stage cache directory",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Staged, cached pipeline runner for the MICRO-50 surface-code "
            "communication reproduction."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one grid point, print JSON")
    run.add_argument("app", help="application (gse, sq, sha1, im)")
    run.add_argument(
        "--size",
        default="default",
        help='size knob: an integer, "small", or "default"',
    )
    run.add_argument(
        "--policy", type=int, default=6, help="braid policy (0-8)"
    )
    _add_point_options(run)
    run.add_argument("--out", default=None, help="also write JSON here")
    run.add_argument(
        "--compact", action="store_true", help="single-line JSON output"
    )

    sweep = sub.add_parser(
        "sweep", help="run a grid sweep with dedup and parallelism"
    )
    sweep.add_argument(
        "--preset",
        choices=["fig6", "fig6x"],
        default=None,
        help=(
            "predefined grid (fig6: 4 apps x 7 policies, d=5; fig6x "
            "adds the two scheduler-family policies for a 9-policy "
            "plane)"
        ),
    )
    sweep.add_argument(
        "--apps",
        default=",".join(DEFAULT_APPS),
        help="comma-separated application list",
    )
    sweep.add_argument(
        "--size",
        default="small",
        help='size knob for every app: an integer, "small", or "default"',
    )
    sweep.add_argument(
        "--policies", default="6", help='policies: "6", "0,3,6", or "0-8"'
    )
    _add_point_options(sweep)
    sweep.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="process count (1 = serial through one shared cache)",
    )
    sweep.add_argument(
        "--out", default=None, help="write the sweep results JSON here"
    )
    sweep.add_argument(
        "--max-failures",
        type=int,
        default=0,
        metavar="N",
        help=(
            "abort once more than N points have failed (0 = fail fast, "
            "the default; negative = never abort, isolate everything)"
        ),
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help=(
            "revive finished points from <out>.partial.jsonl and run "
            "only the remainder (requires --out)"
        ),
    )

    bench = sub.add_parser(
        "bench", help="measure cold-cache stage timings, gate regressions"
    )
    bench.add_argument(
        "--grid",
        choices=sorted(BENCH_GRIDS),
        default="fig6",
        help="bench grid preset",
    )
    bench.add_argument(
        "--reference",
        action="store_true",
        help=(
            "also replay every braid point through the seed loop, "
            "verify bit-identical results and time it (the baseline "
            "gate's yardstick)"
        ),
    )
    bench.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="sweep process count (keep 1 for comparable stage timings)",
    )
    bench.add_argument(
        "--out", default=None, help="write the bench report JSON here"
    )
    bench.add_argument(
        "--baseline",
        default=None,
        help=(
            "baseline report of the same --grid to compare against "
            "(implies --reference; fail on regression; gates every "
            "stage the baseline records, not just braid_sim)"
        ),
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional regression against the baseline",
    )

    cache_cmd = sub.add_parser(
        "cache", help="inspect or maintain an on-disk stage cache"
    )
    cache_cmd.add_argument(
        "action", choices=["stats", "prune", "verify"]
    )
    cache_cmd.add_argument(
        "--cache-dir", required=True, help="stage cache directory"
    )
    cache_cmd.add_argument(
        "--older-than-days",
        type=float,
        default=None,
        help="prune: only remove entries at least this old",
    )
    cache_cmd.add_argument(
        "--stage",
        default=None,
        help="prune: restrict to one stage directory",
    )

    check = sub.add_parser(
        "check",
        help="statically verify compiled IR artifacts (repro.analysis)",
    )
    check.add_argument(
        "--grid",
        choices=["fig6", "fig6x", "tiny"],
        default="fig6",
        help=(
            "artifact grid: fig6 (4 apps, both layouts, d=5), fig6x "
            "(fig6 plus the scheduler-family policies), or tiny "
            "(3 small apps, CI-sized)"
        ),
    )
    check.add_argument(
        "--strict",
        action="store_true",
        help=(
            "also emit advisory warnings (use-before-init, unused "
            "qubits, factory balance)"
        ),
    )
    check.add_argument(
        "--cache-dir",
        default=None,
        help="stage cache to compile artifacts through",
    )
    check.add_argument(
        "--json",
        action="store_true",
        help="emit the full report as JSON instead of one line per finding",
    )

    lint = sub.add_parser(
        "lint",
        help="determinism/purity lint over Python sources (AST-based)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: the repro package)",
    )
    lint.add_argument(
        "--json", action="store_true", help="emit findings as JSON"
    )

    report = sub.add_parser(
        "report", help="re-render a figure/table from cached results"
    )
    report.add_argument(
        "figure",
        choices=["fig6", "fig7", "fig8", "fig9", "table1", "table2"],
    )
    report.add_argument(
        "--cache-dir",
        default=None,
        help="stage cache to render from (and to fill as needed)",
    )
    report.add_argument(
        "--results",
        default=None,
        help="saved sweep JSON to render from (fig6/table2)",
    )
    report.add_argument(
        "--apps",
        default=None,
        help="comma-separated apps (fig8: default sq,im)",
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        _validate_names([args.app], [args.policy])
        size = _parse_size(args.size, args.app)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    spec = PointSpec(
        app=args.app,
        size=size,
        inline_depth=args.inline_depth,
        policy=args.policy,
        regions=args.regions,
        tech_name=args.tech,
        error_rate=args.error_rate,
        distance=args.distance,
        window=args.window,
    )
    cache = StageCache(args.cache_dir)
    result = run_point(spec, cache)
    payload = result.to_jsonable()
    text = json.dumps(payload, indent=None if args.compact else 1)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(f"cache: {cache.stats.summary()}", file=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    apps = tuple(a.strip() for a in args.apps.split(",") if a.strip())
    try:
        if not apps:
            raise ValueError(f"--apps {args.apps!r} names no application")
        policies = _parse_policies(args.policies)
        _validate_names(apps, policies)
        sizes = (
            {app: _parse_size(args.size, app) for app in apps}
            if args.size != "default"
            else None
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.preset in ("fig6", "fig6x"):
        # The preset defines the grid *shape*; point-level options
        # (--tech, --error-rate, --distance, ...) still apply.
        ignored = [
            flag
            for flag, is_default in (
                ("--apps", args.apps == ",".join(DEFAULT_APPS)),
                ("--size", args.size == "small"),
                ("--policies", args.policies == "6"),
            )
            if not is_default
        ]
        if ignored:
            print(
                f"preset {args.preset} defines the grid shape; ignoring "
                + ", ".join(ignored),
                file=sys.stderr,
            )
        grid = fig6_grid() if args.preset == "fig6" else fig6x_grid()
        grid = dataclasses.replace(
            grid,
            tech_name=args.tech,
            error_rates=(args.error_rate,),
            regions=args.regions,
            inline_depths=(args.inline_depth,),
            window=args.window,
            distance=(
                args.distance if args.distance is not None else grid.distance
            ),
        )
    else:
        grid = GridSpec(
            apps=apps,
            sizes=sizes,
            policies=policies,
            inline_depths=(args.inline_depth,),
            regions=args.regions,
            tech_name=args.tech,
            error_rates=(args.error_rate,),
            distance=args.distance,
            window=args.window,
        )
    max_failures = args.max_failures if args.max_failures >= 0 else None
    if args.resume and not args.out:
        print(
            "error: --resume needs --out (the journal lives at "
            "<out>.partial.jsonl)",
            file=sys.stderr,
        )
        return 2
    journal = journal_path(args.out) if args.out else None
    runner = SweepRunner(
        cache_dir=args.cache_dir,
        workers=args.workers,
        max_failures=max_failures,
    )
    try:
        result = runner.run(grid, journal=journal, resume=args.resume)
    except SweepAborted as error:
        print(f"error: {error}", file=sys.stderr)
        print(render_failures(error.failures), file=sys.stderr)
        if journal is not None and journal.exists():
            print(
                f"journal kept at {journal}; rerun with --resume to "
                "continue from the finished points",
                file=sys.stderr,
            )
        return 1
    print(
        f"swept {len(result.points)} points in "
        f"{result.elapsed_seconds:.2f}s with {result.workers} worker(s)",
        file=sys.stderr,
    )
    print(f"cache: {result.stats.summary()}", file=sys.stderr)
    if not result.ok:
        print(render_failures(result.failures), file=sys.stderr)
    if args.out:
        result.save(args.out)
        print(f"results written to {args.out}", file=sys.stderr)
        if journal is not None and journal.exists():
            if result.ok:
                # Everything landed in the final report: the
                # checkpoint has served its purpose.
                journal.unlink()
            else:
                print(
                    f"journal kept at {journal}; rerun with --resume "
                    "to re-run only the failed points",
                    file=sys.stderr,
                )
    else:
        print(json.dumps(result.to_jsonable(), indent=1))
    return 0 if result.ok else 3


def _cmd_bench(args: argparse.Namespace) -> int:
    baseline = None
    if args.baseline:
        # Read and check the baseline before the sweep: a bad path or
        # a baseline from another grid must not cost a whole run.
        try:
            baseline = BenchReport.load(args.baseline)
        except (OSError, ValueError, TypeError) as err:
            print(
                f"error: unreadable bench baseline {args.baseline}: {err}",
                file=sys.stderr,
            )
            return 2
        if baseline.grid != args.grid:
            print(
                f"error: bench baseline {args.baseline} was recorded on "
                f"grid {baseline.grid!r}, not --grid {args.grid!r}",
                file=sys.stderr,
            )
            return 2
    reference = args.reference
    if baseline is not None and not reference:
        print(
            "the baseline gate needs the reference pass; "
            "enabling --reference",
            file=sys.stderr,
        )
        reference = True
    report = run_bench(
        grid=args.grid, reference=reference, workers=args.workers
    )
    print(json.dumps(report.to_jsonable(), indent=1, sort_keys=True))
    if report.equivalence_checked:
        print(
            f"verified {report.equivalence_checked} braid points "
            "bit-identical to the reference simulator",
            file=sys.stderr,
        )
    if report.braid_speedup is not None:
        print(
            f"braid plan+sim: {report.braid_seconds:.2f}s optimized vs "
            f"{report.reference_braid_seconds:.2f}s reference "
            f"({report.braid_speedup:.2f}x)",
            file=sys.stderr,
        )
    if args.out:
        report.save(args.out)
        print(f"bench report written to {args.out}", file=sys.stderr)
    if baseline is not None:
        failures = compare_reports(report, baseline, tolerance=args.tolerance)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        gated = sorted(baseline.stage_seconds)
        print(
            f"no regression against {args.baseline} "
            f"(tolerance {args.tolerance:.0%}; gated stages: "
            f"{', '.join(gated)})",
            file=sys.stderr,
        )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    if args.older_than_days is not None and args.action != "prune":
        print(
            "--older-than-days only applies to the prune action",
            file=sys.stderr,
        )
        return 2
    if args.stage is not None and args.action != "prune":
        print("--stage only applies to the prune action", file=sys.stderr)
        return 2
    if not os.path.isdir(args.cache_dir):
        # A mistyped path must not read as a healthy, empty cache.
        print(
            f"error: no cache directory at {args.cache_dir}",
            file=sys.stderr,
        )
        return 2
    cache = StageCache(args.cache_dir)
    if args.action == "stats":
        print(json.dumps(cache.disk_stats(), indent=1))
        return 0
    if args.action == "prune":
        seconds = (
            args.older_than_days * 86400.0
            if args.older_than_days is not None
            else None
        )
        removed = cache.prune(older_than_seconds=seconds, stage=args.stage)
        print(f"pruned {removed} cache entries", file=sys.stderr)
        return 0
    result = cache.verify()
    print(json.dumps(result, indent=1))
    bad = (
        len(result["corrupt"])
        + len(result["checksum"])
        + len(result["stale_format"])
        + len(result["mismatched"])
    )
    if bad:
        print(f"{bad} problematic cache entries", file=sys.stderr)
        return 1
    print(f"all {result['ok']} entries verified", file=sys.stderr)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from ..analysis.verify import check_grid
    from .bench import bench_grid

    if args.grid == "fig6":
        grid = fig6_grid()
    elif args.grid == "fig6x":
        grid = fig6x_grid()
    else:
        grid = bench_grid(args.grid)
    cache = StageCache(args.cache_dir)
    report = check_grid(
        grid,
        cache=cache,
        strict=args.strict,
        progress=lambda artifact: print(
            f"checking {artifact}", file=sys.stderr
        ),
    )
    if args.json:
        print(json.dumps(report.to_jsonable(), indent=1))
    else:
        for diag in report.diagnostics:
            print(diag.format())
    print(
        f"checked {report.artifacts_checked} artifact set(s) covering "
        f"{report.points_checked} grid point(s): "
        f"{len(report.diagnostics)} finding(s), "
        f"{len(report.errors)} error(s)",
        file=sys.stderr,
    )
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from ..analysis.lint import lint_paths

    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        import repro

        paths = [Path(repro.__file__).parent]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    findings = lint_paths(paths)
    if args.json:
        print(json.dumps([f.to_jsonable() for f in findings], indent=1))
    else:
        for finding in findings:
            print(finding.format())
    print(
        f"linted {', '.join(str(p) for p in paths)}: "
        f"{len(findings)} finding(s)",
        file=sys.stderr,
    )
    return 1 if findings else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from . import report as renderers

    cache = StageCache(args.cache_dir)
    if args.figure in ("fig6", "table2"):
        if args.results:
            try:
                result = SweepResult.load(args.results)
            except (
                OSError, ValueError, KeyError, TypeError, AttributeError
            ) as err:
                print(
                    f"error: unreadable sweep results {args.results}: "
                    f"{err}",
                    file=sys.stderr,
                )
                return 2
            points = result.points
            if not result.ok:
                # A schema-2 report may be partial: say which points
                # are missing instead of rendering silently short.
                print(
                    f"warning: {len(result.failures)} failed point(s) "
                    "absent from this report",
                    file=sys.stderr,
                )
                print(render_failures(result.failures), file=sys.stderr)
        elif args.cache_dir:
            try:
                points = renderers.load_points(cache)
            except ValueError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
        else:
            print(
                f"{args.figure} needs --results or --cache-dir with "
                "persisted sweep points",
                file=sys.stderr,
            )
            return 2
        render = (
            renderers.render_fig6
            if args.figure == "fig6"
            else renderers.render_table2
        )
        try:
            print(render(points))
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        return 0
    if args.figure == "table1":
        print(renderers.render_table1())
        return 0
    if args.figure == "fig7":
        print(renderers.render_fig7(cache))
        return 0
    if args.figure == "fig8":
        apps = (
            tuple(a.strip() for a in args.apps.split(","))
            if args.apps
            else ("sq", "im")
        )
        try:
            _validate_names(apps, [])
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(renderers.render_fig8(cache, apps=apps))
        return 0
    print(renderers.render_fig9(cache))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "lint":
            return _cmd_lint(args)
        return _cmd_report(args)
    except BrokenPipeError:
        # Downstream reader (e.g. `| head`) closed stdout early.
        return 0
