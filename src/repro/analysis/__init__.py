"""Static analysis layer: IR verifier, determinism linter, diagnostics.

Two prongs over the compiled toolflow:

* :mod:`.ir_checks` + :mod:`.verify` — multi-pass invariant
  verification of compiled artifacts (circuit, DAG, placement,
  :class:`~repro.network.plan.BraidPlan`).  ``python -m repro
  check`` (:func:`.verify.check_grid`) is the one path that runs the
  passes over the toolflow's artifacts; the runner itself carries no
  verification hook.
* :mod:`.lint` — an AST determinism/purity linter over the source
  tree (``python -m repro lint``), catching nondeterministic inputs to
  cache keys, stage parameters that never reach their key, and
  mutation of frozen shared plan state.

Both report through :class:`.diagnostics.Diagnostic`.  Only
:mod:`.diagnostics` is imported eagerly: IR modules depend on it for
their guard exceptions, while the checker passes depend on the IR
modules — the lazy submodule access below keeps that from becoming an
import cycle.
"""

from .diagnostics import (
    AnalysisError,
    Diagnostic,
    PlanMismatchError,
    Severity,
)

__all__ = [
    "AnalysisError",
    "Diagnostic",
    "PlanMismatchError",
    "Severity",
    "check_circuit",
    "check_dag",
    "check_placement",
    "check_plan",
    "check_sched",
    "check_point_artifacts",
    "check_grid",
    "lint_source",
    "lint_paths",
]

_LAZY = {
    "check_circuit": "ir_checks",
    "check_dag": "ir_checks",
    "check_placement": "ir_checks",
    "check_plan": "ir_checks",
    "check_sched": "ir_checks",
    "check_point_artifacts": "ir_checks",
    "CheckReport": "verify",
    "check_grid": "verify",
    "lint_source": "lint",
    "lint_paths": "lint",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None and name in ("ir_checks", "lint", "verify"):
        module_name = name
    if module_name is not None:
        import importlib

        module = importlib.import_module(f".{module_name}", __name__)
        value = module if name == module_name else getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
