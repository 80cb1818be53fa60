"""Do one workload's work in-process through public calls, traced.

    python3 perfbench/traced.py WORKLOAD RUN_DIR [--plain]

The work is what the workload's CLI command does: a ``SweepRunner``
sweep journaled and saved like ``sweep --out``, or, for fig9, the
``calibrate_app`` plus ``boundary_for_app`` calls of ``render_fig9``.
Without ``--plain`` the stage cache opens a span around every stage
lookup, disk store and disk load, and one more span wraps each
``boundary_for_app`` call; the spans, the cache counters and the plan
memo's build count are written to ``RUN_DIR/trace.json`` once the work
is done.  With ``--plain`` the same work runs on a plain ``StageCache``,
so the difference between the two processes' wall times is the
tracing overhead.  Outputs land where the CLI puts them, so check.py
reads either.  Run by run.py with the checkout's ``src/`` on
``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from repro.core.calibration import calibrate_app
from repro.core.report import format_fig9
from repro.core.sensitivity import FIGURE9_VARIANTS, boundary_for_app
from repro.network.plan import plan_memo_stats
from repro.network.policies import POLICIES
from repro.runner.cache import StageCache
from repro.runner.sweep import GridSpec, SweepRunner, fig6x_grid, journal_path

import spans as spanlib
from workloads import CACHE_DIR, OUT_JSON, STDOUT_TXT, TRACE_JSON, WORKLOADS

GRIDS = {
    "fig6x-cold": fig6x_grid,
    "im32-cold": lambda: GridSpec(apps=("im",), policies=(2, 5, 6), distance=5),
}
"""The grids the sweep workloads' CLI arguments build."""


class TracingCache(StageCache):
    """A disk-backed ``StageCache`` whose lookups, stores and loads each
    run inside one span."""

    def __init__(self, disk_dir: Path, tracer: spanlib.Tracer):
        super().__init__(disk_dir)
        self.tracer = tracer

    def get_or_compute(self, key, compute, *args, **kwargs):
        point = key.digest if key.stage == "point" else None
        family = None
        if key.stage == "braid_sim":
            policy = json.loads(dict(key.params)["policy"])
            family = POLICIES[policy].family
        with self.tracer.span(key.stage, point=point, family=family):
            return super().get_or_compute(key, compute, *args, **kwargs)

    def store_payload(self, key, payload):
        with self.tracer.span("store_payload"):
            super().store_payload(key, payload)

    def load_payload(self, key):
        with self.tracer.span("load_payload"):
            return super().load_payload(key)


class _NoTracer:
    group = None

    def span(self, name, point=None, family=None):
        return contextlib.nullcontext()


def run_sweep(name: str, run_dir: Path, cache: StageCache, tracer) -> None:
    out = run_dir / OUT_JSON
    with tracer.span("root"):
        result = SweepRunner(cache=cache, workers=1).run(
            GRIDS[name](), journal=journal_path(out)
        )
        result.save(out)
        if result.ok:
            journal_path(out).unlink(missing_ok=True)


def run_fig9(run_dir: Path, cache: StageCache, tracer) -> None:
    lines = []
    with tracer.span("root"):
        for app, inline_depth in FIGURE9_VARIANTS:
            tracer.group = (
                app if inline_depth is None else f"{app}-inline{inline_depth}"
            )
            calibration = calibrate_app(app, inline_depth, cache=cache)
            with tracer.span("crossover"):
                lines.append(
                    boundary_for_app(
                        app, inline_depth, calibration=calibration
                    )
                )
        table = format_fig9(lines)
    (run_dir / STDOUT_TXT).write_text(table + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("run_dir", type=Path)
    parser.add_argument("--plain", action="store_true")
    args = parser.parse_args(argv)
    cache_dir = args.run_dir / CACHE_DIR
    if args.plain:
        tracer = _NoTracer()
        cache = StageCache(cache_dir)
    else:
        tracer = spanlib.Tracer()
        cache = TracingCache(cache_dir, tracer)
    if WORKLOADS[args.workload].sweep:
        run_sweep(args.workload, args.run_dir, cache, tracer)
    else:
        run_fig9(args.run_dir, cache, tracer)
    if not args.plain:
        (args.run_dir / TRACE_JSON).write_text(
            json.dumps(
                {
                    "spans": tracer.spans,
                    "plan_builds": plan_memo_stats()["builds"],
                    "stats": cache.stats.as_dict(),
                }
            ),
            encoding="utf-8",
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
