"""Output checks and exact counters for one workload's run directories.

    python3 perfbench/check.py WORKLOAD RUN_DIR [RUN_DIR ...]

Prints one JSON object: for each run directory the operations
attempted and failed, the named checks with their outcomes, and the
exact counters its outputs expose; and the bit-identity checks of the
braid engine against the seed loop.  Run by run.py outside its timed
region, with the checkout's ``src/`` on ``PYTHONPATH``.

No result digest is pinned.  The checks are the paper's shapes,
invariants every braid result meets, and equality with the seed loop,
so a deliberate change to simulated behaviour that updates the engine
and the reference together still passes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.network.braidsim import simulate_plan
from repro.network.policies import POLICIES
from repro.runner.cache import StageCache
from repro.runner.stages import compute_braid, compute_braid_plan

from workloads import CACHE_DIR, OUT_JSON, STDOUT_TXT, WORKLOADS

REFERENCE_APP, REFERENCE_SIZE, REFERENCE_DISTANCE = "sq", 3, 5
REFERENCE_POLICIES = range(7)
"""The fixed subset re-simulated with the seed loop on every run."""


def _check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append([name, bool(ok), detail])


def _ratio(braid: dict) -> float:
    if not braid["critical_path"]:
        return 1.0
    return braid["schedule_length"] / braid["critical_path"]


def braid_invariants(checks: list, results: list[tuple[str, int, dict]]) -> None:
    """Invariants every braid result meets, whatever the policy."""
    for label, policy, braid in results:
        _check(
            checks,
            f"schedule_ge_critical_path:{label}",
            braid["schedule_length"] >= braid["critical_path"],
            f"{braid['schedule_length']} < {braid['critical_path']}",
        )
        if POLICIES[policy].family == "reservation":
            _check(
                checks,
                f"reservation_never_reroutes:{label}",
                braid["drops"] == 0 and braid["adaptive_routes"] == 0,
                f"{braid['drops']} drops, "
                f"{braid['adaptive_routes']} adaptive routes",
            )


def fig6_shapes(checks: list, points: list[dict]) -> None:
    """The Figure 6 shapes ``benchmarks/bench_fig6.py`` asserts."""
    by_app: dict[str, dict[int, dict]] = {}
    for point in points:
        by_app.setdefault(point["spec"]["app"], {})[
            point["spec"]["policy"]
        ] = point["braid"]
    for app in ("gse", "sq"):
        try:
            worst = max(_ratio(by_app[app][p]) for p in range(1, 7))
        except KeyError:
            _check(checks, f"serial_near_critical_path:{app}", False, "missing")
            continue
        _check(
            checks,
            f"serial_near_critical_path:{app}",
            worst < 2.0,
            f"ratio {worst:.3f} under policies 1-6",
        )
    for app in ("sha1", "im"):
        try:
            base = by_app[app][0]
            better = [by_app[app][p] for p in range(1, 7)]
        except KeyError:
            _check(checks, f"parallel_improves:{app}", False, "missing")
            _check(checks, f"utilisation_rises:{app}", False, "missing")
            continue
        best = min(_ratio(braid) for braid in better)
        _check(
            checks,
            f"parallel_improves:{app}",
            best * 1.5 <= _ratio(base),
            f"policy 0 ratio {_ratio(base):.3f}, best {best:.3f}",
        )
        top = max(braid["mean_utilization"] for braid in better)
        _check(
            checks,
            f"utilisation_rises:{app}",
            top > base["mean_utilization"],
            f"policy 0 {base['mean_utilization']:.4f}, best {top:.4f}",
        )


def parse_fig9(text: str) -> dict[str, list]:
    """``report fig9``'s table as {line label: boundary per error rate},
    with None for ``> range`` (planar wins over the whole size range)."""
    rows = [row.replace("> range", ">range").split() for row in text.splitlines()]
    rows = [row for row in rows if row]
    for index, row in enumerate(rows):
        if row[0] == "pP":
            labels = row[1:]
            lines: dict[str, list] = {label: [] for label in labels}
            for cells in rows[index + 2:]:
                if len(cells) != len(labels) + 1:
                    break
                for label, cell in zip(labels, cells[1:]):
                    lines[label].append(None if cell == ">range" else float(cell))
            return lines
    return {}


def fig9_shapes(checks: list, lines: dict[str, list]) -> None:
    """The Figure 9 shapes ``benchmarks/bench_fig9.py`` asserts."""
    inf = float("inf")
    for label, values in lines.items():
        finite = [inf if v is None else v for v in values]
        _check(
            checks,
            f"boundary_never_rises:{label}",
            all(b <= a for a, b in zip(finite, finite[1:])),
            f"{values}",
        )
    sq, im = lines.get("sq"), lines.get("im")
    both = [
        (s, i)
        for s, i in zip(sq or (), im or ())
        if s is not None and i is not None
    ]
    _check(
        checks,
        "im_above_sq",
        sq is not None and im is not None and all(i > s for s, i in both),
        f"sq {sq}, im {im}",
    )


def braid_counts(results: list[dict]) -> dict:
    return {
        "network.sim_cycles": sum(b["schedule_length"] for b in results),
        "network.braids": sum(b["braids"] for b in results),
        "network.adaptive_routes": sum(b["adaptive_routes"] for b in results),
        "network.drops": sum(b["drops"] for b in results),
    }


def disk_counts(cache: StageCache) -> dict:
    """Lowered ops, and what ``cache stats`` reports of the disk tier."""
    ops = 0
    for record in cache.iter_payloads("lowered"):
        text = record["value"]["ops"]
        ops += text.count("\n") + 1 if text else 0
    stats = cache.disk_stats()
    return {
        "frontend.lowered_ops": ops,
        "runner.disk_stores": stats["total_entries"],
        "runner.disk_stored_mb": stats["total_bytes"] / 2**20,
    }


def sweep_run(name: str, run_dir: Path) -> dict:
    expected = WORKLOADS[name].operations
    try:
        payload = json.loads((run_dir / OUT_JSON).read_text(encoding="utf-8"))
        points, failures = payload["points"], payload["failures"]
    except (OSError, ValueError, KeyError) as error:
        return {
            "operations": expected,
            "failed": expected,
            "checks": [["out_json", False, repr(error)]],
            "counts": {},
        }
    operations = max(expected, len(points) + len(failures))
    checks: list = []
    braid_invariants(
        checks,
        [
            (
                f"{p['spec']['app']}[{p['spec']['size']}] "
                f"p{p['spec']['policy']}",
                p["spec"]["policy"],
                p["braid"],
            )
            for p in points
        ],
    )
    if name == "fig6x-cold":
        fig6_shapes(checks, points)
    stats = payload["stats"]
    counts = braid_counts([p["braid"] for p in points])
    counts["network.plan_builds"] = stats["misses"].get("braid_plan", 0)
    counts["runner.cache_computed"] = sum(stats["misses"].values())
    counts["runner.cache_reused"] = sum(stats["hits"].values()) + sum(
        stats["disk_hits"].values()
    )
    counts.update(disk_counts(StageCache(run_dir / CACHE_DIR)))
    return {
        "operations": operations,
        "failed": operations - len(points),
        "checks": checks,
        "counts": counts,
    }


def fig9_run(run_dir: Path) -> dict:
    expected = WORKLOADS["fig9-cold"].operations
    try:
        lines = parse_fig9((run_dir / STDOUT_TXT).read_text(encoding="utf-8"))
    except OSError:
        lines = {}
    lines = {label: values for label, values in lines.items() if values}
    checks: list = []
    fig9_shapes(checks, lines)
    cache = StageCache(run_dir / CACHE_DIR)
    results = []
    for record in cache.iter_payloads("braid_sim"):
        params = record["key"]["params"]
        depth = params["inline_depth"]
        label = f"{params['app']}[{params['size']}]" + (
            "" if depth is None else f"-inline{depth}"
        )
        results.append(
            (f"{label} p{params['policy']}", params["policy"], record["value"])
        )
    braid_invariants(checks, results)
    counts = braid_counts([braid for _, _, braid in results])
    counts.update(disk_counts(cache))
    return {
        "operations": expected,
        "failed": max(0, expected - len(lines)),
        "checks": checks,
        "counts": counts,
    }


def reference_checks(observed: dict[int, dict]) -> list:
    """Flat engine vs the seed loop on sq[3] x policies 0-6.

    ``observed`` holds braid results the workload itself produced for
    that subset (fig6x-cold); the rest are simulated here with the
    default engine, as the CLI would.
    """
    cache = StageCache()
    checks: list = []
    for number in REFERENCE_POLICIES:
        policy = POLICIES[number]
        plan = compute_braid_plan(
            cache,
            REFERENCE_APP,
            REFERENCE_SIZE,
            optimize_layout=policy.optimized_layout,
            distance=REFERENCE_DISTANCE,
        )
        reference = dataclasses.asdict(
            simulate_plan(plan, policy, engine="reference")
        )
        flat = observed.get(number) or dataclasses.asdict(
            compute_braid(
                cache,
                REFERENCE_APP,
                REFERENCE_SIZE,
                policy=number,
                distance=REFERENCE_DISTANCE,
            )
        )
        _check(
            checks,
            f"reference_identical:{REFERENCE_APP}[{REFERENCE_SIZE}] p{number}",
            flat == reference,
            f"{flat} != {reference}",
        )
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("run_dirs", type=Path, nargs="+")
    args = parser.parse_args(argv)
    if WORKLOADS[args.workload].sweep:
        runs = [sweep_run(args.workload, d) for d in args.run_dirs]
    else:
        runs = [fig9_run(d) for d in args.run_dirs]
    observed: dict[int, dict] = {}
    if args.workload == "fig6x-cold":
        try:
            payload = json.loads(
                (args.run_dirs[0] / OUT_JSON).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            payload = {"points": []}
        for point in payload["points"]:
            spec = point["spec"]
            if (spec["app"], spec["size"]) == (REFERENCE_APP, REFERENCE_SIZE):
                observed[spec["policy"]] = point["braid"]
    json.dump(
        {"runs": runs, "reference": reference_checks(observed)}, sys.stdout
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
