"""Benchmark the cold CLI paths: end-to-end metrics, checks, counters.

    python3 perfbench/run.py --workload fig6x-cold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its
``src/``.  With ``--trace 0`` the workload's real CLI command runs in a
fresh process on an empty cache directory, one child at a time, until
``--seconds`` of CLI time have passed (at least once), and the run
prints ``wall_s``, ``cpu_s``, ``setup_s`` and ``peak_rss_mb``: medians
over those children, each child's time and memory taken from its own
``os.wait4``.  Times are scaled to a reference speed by bursts of
fixed work timed while the child is paused (speed.py); the host times
are printed beside them.  With ``--trace 1`` the same work runs twice
in-process through public calls (traced.py), once plain and once
traced, and the run prints the per-layer metrics of spans.py in host
seconds.

Every run then checks its outputs (check.py) outside the timed region
and compares its exact counters with earlier runs in this checkout.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  NOTES.md explains the
workloads and the noise hardening.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import spans as spanlib
import speed
from workloads import STDERR_TXT, STDOUT_TXT, TRACE_JSON, WORKLOADS, cli_args

HERE = Path(__file__).resolve().parent

END_TO_END: tuple[tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

SETUP_STARTS = 4
"""Interpreter starts timed before each CLI child and after the last
one; ``setup_s`` is their median."""

RUN_BUDGET_S = 170.0
"""A run stops starting CLI children, and kills a stuck one, so that it
ends within 180 s."""

WORK_DIR = ".perfbench_work"
"""Scratch space inside the checkout: one directory per run (removed
when the run ends), the counters seen so far, and the last trace."""


@dataclasses.dataclass
class Child:
    """How one child process ended, from its own ``wait4`` rusage.

    ``wall_s`` leaves out the pauses taken for ``bursts`` (speed.py).
    """

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    bursts: list[float] = dataclasses.field(default_factory=list)


def _reap(
    proc: subprocess.Popen,
    deadline: float,
    sample_every: Optional[float],
    bursts: list[float],
) -> tuple[int, object, float]:
    """Wait for ``proc`` to end, killing it at ``deadline``.

    Every ``sample_every`` seconds the child is stopped with SIGSTOP,
    one speed burst is timed, and it is resumed.  Returns the wait
    status, the child's own rusage and the seconds it spent paused.
    """
    paused = 0.0
    pidfd = os.pidfd_open(proc.pid)
    try:
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                proc.kill()
                break
            step = left if sample_every is None else min(left, sample_every)
            if select.select([pidfd], [], [], step)[0]:
                break
            if sample_every is None or time.perf_counter() >= deadline:
                continue
            pause = time.perf_counter()
            os.kill(proc.pid, signal.SIGSTOP)
            _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):
                return status, usage, paused
            bursts.append(speed.burst())
            os.kill(proc.pid, signal.SIGCONT)
            paused += time.perf_counter() - pause
    finally:
        os.close(pidfd)
    _, status, usage = os.wait4(proc.pid, 0)
    return status, usage, paused


def run_child(
    args: list[str],
    env: dict[str, str],
    timeout: float,
    stdout: Optional[Path] = None,
    stderr: Optional[Path] = None,
    sample_every: Optional[float] = None,
) -> Child:
    """Run ``python args`` to its exit, killing it after ``timeout``.

    The child is reaped with ``os.wait4``, so its CPU time and peak RSS
    are its own, not the maximum over every child reaped so far that
    ``RUSAGE_CHILDREN`` would give.  With ``sample_every`` the child is
    paused that often for one speed burst (see :func:`_reap`).
    """
    bursts: list[float] = []
    with open(stdout or os.devnull, "wb") as out, open(
        stderr or os.devnull, "wb"
    ) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], env=env, stdout=out, stderr=err
        )
        try:
            status, usage, paused = _reap(
                proc, start + max(timeout, 1.0), sample_every, bursts
            )
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start - paused
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        bursts=bursts,
    )


def child_env(root: Path, tmp: Path) -> dict[str, str]:
    """The environment of every child.

    Bytecode writing is forced on, so the warm-up compiles ``src/`` once
    and no timed start pays for compiling it; the hash seed is fixed;
    temporary files stay inside the checkout.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
    }
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        TMPDIR=str(tmp),
    )
    return env


def tally(
    checked: dict, returncodes: list[int], extra: list
) -> tuple[int, int, list]:
    """Operations attempted and failed, and the failed checks.

    Args:
        checked: check.py's output: per run its operations, failed
            operations, named checks and counters; plus the
            reference checks.
        returncodes: Exit code of each run's child; a nonzero one is
            one more failed check.
        extra: Further ``[name, ok, detail]`` checks of this run.
    """
    checks = list(checked["reference"]) + list(extra)
    attempted = failed = 0
    for index, (run, code) in enumerate(zip(checked["runs"], returncodes)):
        attempted += run["operations"]
        failed += run["failed"]
        checks += run["checks"]
        checks.append([f"exit_code:run{index}", code == 0, f"exit {code}"])
    failures = [check for check in checks if not check[1]]
    return attempted + len(checks), failed + len(failures), failures


def counts_check(root: Path, workload: str, counts: list[dict]) -> list:
    """Exact counters must repeat across the runs of one checkout.

    Compares this run's counters with each other and with every counter
    an earlier run in this checkout recorded, then records new ones.
    """
    path = root / WORK_DIR / f"counts-{workload}.json"
    try:
        seen = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        seen = {}
    differ = []
    for run in counts:
        for name, value in sorted(run.items()):
            if name in seen and seen[name] != value:
                differ.append(f"{name} {value} != {seen[name]}")
            seen.setdefault(name, value)
    path.write_text(json.dumps(seen, indent=1, sort_keys=True), encoding="utf-8")
    return [["counts_repeat", not differ, "; ".join(differ)]]


def run_checker(
    workload: str, run_dirs: list[Path], env, deadline: float, work: Path
) -> dict:
    """check.py's verdict on ``run_dirs``; if it fails to report, every
    operation of every run counts as failed."""
    out = work / "check.json"
    child = run_child(
        [str(HERE / "check.py"), workload, *map(str, run_dirs)],
        env,
        deadline - time.monotonic(),
        stdout=out,
        stderr=work / "check.err",
    )
    try:
        return json.loads(out.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        expected = WORKLOADS[workload].operations
        return {
            "runs": [
                {
                    "operations": expected,
                    "failed": expected,
                    "checks": [],
                    "counts": {},
                }
                for _ in run_dirs
            ],
            "reference": [
                ["checker", False, f"check.py exited {child.returncode}"]
            ],
        }


def measure_cli(args, env, work: Path, deadline: float) -> tuple[dict, list, list]:
    """Time the workload's CLI command; returns metrics, runs, children.

    Every time is scaled to the reference speed (speed.py) by bursts
    taken while it was measured: a CLI child's by the bursts of its own
    pauses, a start's by one burst right before it.  ``setup_s`` is
    timed in groups of starts before each CLI child and after the last
    one, so that its median spans the run.
    """
    setup: list[float] = []
    raw_setup: list[float] = []

    def time_starts() -> None:
        for _ in range(SETUP_STARTS):
            burst = speed.burst()
            wall = run_child(
                ["-m", "repro", "--help"], env, deadline - time.monotonic()
            ).wall_s
            raw_setup.append(wall)
            setup.append(wall * speed.scale([burst]))

    run_dirs: list[Path] = []
    children: list[Child] = []
    scaled: list[tuple[float, float]] = []
    while not children or sum(c.wall_s for c in children) < args.seconds:
        if children and deadline - time.monotonic() < 3 * children[-1].wall_s:
            break
        time_starts()
        run_dir = work / f"run{len(children)}"
        run_dir.mkdir()
        child = run_child(
            cli_args(args.workload, run_dir),
            env,
            deadline - time.monotonic(),
            stdout=run_dir / STDOUT_TXT,
            stderr=run_dir / STDERR_TXT,
            sample_every=speed.SAMPLE_EVERY_S,
        )
        factor = speed.scale(child.bursts or [speed.burst()])
        run_dirs.append(run_dir)
        children.append(child)
        scaled.append((child.wall_s * factor, child.cpu_s * factor))
        print(
            f"cli run {len(children)}: host wall {child.wall_s:.3f} s, cpu "
            f"{child.cpu_s:.3f} s; {len(child.bursts)} bursts, speed "
            f"{factor:.4f} of reference; wall {scaled[-1][0]:.3f} s, cpu "
            f"{scaled[-1][1]:.3f} s at reference speed; peak rss "
            f"{child.peak_rss_mb:.1f} MB, exit {child.returncode}",
            flush=True,
        )
    time_starts()
    metrics = {
        "wall_s": statistics.median(wall for wall, _ in scaled),
        "cpu_s": statistics.median(cpu for _, cpu in scaled),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in children),
    }
    print(
        "host setup starts: " + " ".join(f"{s:.3f}" for s in raw_setup)
        + " s; median at reference speed "
        + f"{metrics['setup_s']:.4f} s",
        flush=True,
    )
    return metrics, run_dirs, children


def run_traced(args, env, work: Path, deadline: float) -> tuple[list, list]:
    """Run traced.py plain and traced, in an order
    that alternates with the seed so drift favours neither; returns
    their run directories and children, plain first."""
    plain_dir, traced_dir = work / "plain", work / "traced"
    children: dict[Path, Child] = {}
    order = [plain_dir, traced_dir]
    if args.seed % 2:
        order.reverse()
    for run_dir in order:
        run_dir.mkdir()
        extra = ["--plain"] if run_dir == plain_dir else []
        children[run_dir] = run_child(
            [str(HERE / "traced.py"), args.workload, str(run_dir), *extra],
            env,
            deadline - time.monotonic(),
            stderr=run_dir / STDERR_TXT,
        )
    return [plain_dir, traced_dir], [children[plain_dir], children[traced_dir]]


def traced_metrics(
    root: Path, workload: str, run_dirs: list[Path], children: list[Child],
    counts: list[dict],
) -> dict:
    """Per-layer metrics of a ``--trace 1`` run; adds the traced child's
    plan builds and lookup counts to its counters."""
    try:
        trace = json.loads(
            (run_dirs[1] / TRACE_JSON).read_text(encoding="utf-8")
        )
    except (OSError, ValueError):
        trace = {"spans": [], "plan_builds": 0, "stats": {}}
    else:
        shutil.copy(
            run_dirs[1] / TRACE_JSON, root / WORK_DIR / f"trace-{workload}.json"
        )
    stats = trace["stats"]
    counts[1].update(
        {
            "network.plan_builds": trace["plan_builds"],
            "runner.cache_computed": sum(stats.get("misses", {}).values()),
            "runner.cache_reused": sum(stats.get("hits", {}).values())
            + sum(stats.get("disk_hits", {}).values()),
        }
    )
    metrics = spanlib.per_layer_metrics(
        trace["spans"], counts[1], children[1].wall_s, children[0].wall_s
    )
    for key, seconds in sorted(spanlib.span_seconds(trace["spans"]).items()):
        print(f"span self time {key} {seconds:.6g} s")
    attributed = sum(metrics[name] for name in spanlib.LAYER_SPANS)
    print(
        f"self times {attributed:.4f} s + trace.unattributed_s "
        f"{metrics['trace.unattributed_s']:.4f} s = trace.wall_s "
        f"{metrics['trace.wall_s']:.4f} s"
    )
    return metrics


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    root = Path.cwd()
    if not (root / "src" / "repro" / "__main__.py").is_file():
        print(
            "perfbench: no src/repro here; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"python={platform.python_version()} "
        f"nproc={len(os.sched_getaffinity(0))} "
        f"loadavg={'/'.join(f'{x:.2f}' for x in os.getloadavg())}",
        flush=True,
    )
    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        env = child_env(root, work / "tmp")
        # Compile src/ and warm the page cache before anything is timed.
        run_child(["-m", "compileall", "-q", "src/repro"], env, 60.0)
        run_child(["-m", "repro", "--help"], env, 60.0)
        if args.trace:
            run_dirs, children = run_traced(args, env, work, deadline)
        else:
            metrics, run_dirs, children = measure_cli(args, env, work, deadline)
        checked = run_checker(args.workload, run_dirs, env, deadline, work)
        counts = [run["counts"] for run in checked["runs"]]
        if args.trace:
            metrics = traced_metrics(root, args.workload, run_dirs, children, counts)
        attempted, failed, failures = tally(
            checked,
            [c.returncode for c in children],
            counts_check(root, args.workload, counts),
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = dict(spanlib.PER_LAYER if args.trace else END_TO_END)
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} {shown} {units[name]}")
    print(
        f"fail_ratio {failed / attempted:.6g} ratio ({failed} of "
        f"{attempted} operations failed)"
    )
    for name, value in sorted(counts[-1].items()):
        print(f"count {name} {value}")
    for name, _, detail in failures:
        print(f"FAILED {name}: {detail}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
