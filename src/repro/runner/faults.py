"""Fault isolation and injection for sweep execution.

A sweep must survive partial failure: one point that raises, or one
worker OOM-killed mid-chunk, must not lose the whole sweep.  This
module provides the primitives the
:class:`~repro.runner.sweep.SweepRunner` builds on:

* :class:`PointFailure` -- the structured record a failed grid point
  leaves behind (spec, failing stage, exception repr, attempts,
  elapsed), JSON round-trippable so sweep reports carry it.
* :func:`execute_point` -- run one grid point once; an exception
  becomes a :class:`PointFailure`.  Every stage is a pure function of
  its :class:`~repro.runner.keys.StageKey`, so a point that raised
  would raise again: nothing retries it within the run, and ``sweep
  --resume`` re-runs it in a later one.
* :exc:`SweepAborted` -- raised by the runner when failures exceed its
  ``max_failures`` budget (``0`` keeps the historical fail-fast
  behavior).
* :class:`FaultPlan` -- a deterministic fault-injection plan (raise on
  the nth stage call, kill the worker process, corrupt, truncate or
  checksum-flip the just-written disk entry) wired into
  :class:`~repro.runner.cache.StageCache` behind
  :func:`set_fault_plan` / the ``REPRO_FAULT_PLAN`` environment
  variable, so every failure mode above is reproducibly testable.

Fault injection is **off** unless a plan is installed; the hooks cost
one module-attribute read per stage miss.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (stages
    # imports cache, cache hooks into this module)
    from .keys import StageKey
    from .stages import PointResult, PointSpec

__all__ = [
    "InjectedFault",
    "SweepAborted",
    "PointFailure",
    "FaultAction",
    "FaultPlan",
    "FAULT_PLAN_ENV",
    "set_fault_plan",
    "active_plan",
    "execute_point",
]

FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"
"""Environment variable carrying a serialized :class:`FaultPlan` into
worker processes (set by :func:`set_fault_plan`)."""


class InjectedFault(RuntimeError):
    """Deterministic failure raised by an active :class:`FaultPlan`."""


class SweepAborted(RuntimeError):
    """Failure count exceeded the sweep's ``max_failures`` budget.

    Attributes:
        failures: Every :class:`PointFailure` collected before the
            abort, including the one that crossed the budget.
    """

    def __init__(self, message: str, failures: list["PointFailure"]):
        super().__init__(message)
        self.failures = failures


@dataclasses.dataclass(frozen=True)
class PointFailure:
    """Structured record of one grid point that failed.

    Attributes:
        spec: The failed point's spec (JSON round-trippable).
        stage: Innermost pipeline stage the error escaped from
            (``"pool"`` for a chunk lost with its worker in every pool
            round).
        error: ``repr`` of the exception.
        error_type: Exception class name.
        attempts: 1 for a point that raised; the number of pool rounds
            for a point whose chunk was lost.
        elapsed_seconds: Wall-clock of the failed run (0 for a lost
            chunk).
    """

    spec: "PointSpec"
    stage: str
    error: str
    error_type: str
    attempts: int
    elapsed_seconds: float

    def to_jsonable(self) -> dict:
        return {
            "spec": self.spec.to_jsonable(),
            "stage": self.stage,
            "error": self.error,
            "error_type": self.error_type,
            "attempts": self.attempts,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_jsonable(cls, payload: dict) -> "PointFailure":
        from .stages import PointSpec

        return cls(
            spec=PointSpec.from_jsonable(payload["spec"]),
            stage=payload["stage"],
            error=payload["error"],
            error_type=payload.get("error_type", "Exception"),
            attempts=payload.get("attempts", 1),
            elapsed_seconds=payload.get("elapsed_seconds", 0.0),
        )


# ---------------------------------------------------------------------------
# Deterministic fault injection


_ACTION_SITES = {
    "raise": "compute",
    "kill": "compute",
    "corrupt": "store",
    "torn": "store",
    "flip": "store",
}


@dataclasses.dataclass(frozen=True)
class FaultAction:
    """One injected fault.

    Attributes:
        op: ``raise`` (exception inside a stage computation), ``kill``
            (hard-exit the worker process, producing
            ``BrokenProcessPool``), ``corrupt`` (overwrite the
            just-persisted disk entry with garbage), ``torn`` (truncate
            the just-persisted entry mid-write, simulating a crash
            between write and rename durability), ``flip`` (rewrite
            the entry with a wrong sha256, simulating bit rot).
        stage: Stage name the action targets.
        nth: Fire on the nth *matching* call seen by the process
            (1-based; counters are per process).
        match: Optional substring that must appear in the stage key's
            canonical description (e.g. ``'"policy": 0'`` to hit
            only policy-0 simulations).
        once: Fire at most once.  With a plan ``state_dir`` the marker
            is a file, so the "once" holds across worker processes --
            a killed-and-restarted worker does not re-fire.
    """

    op: str
    stage: Optional[str] = None
    nth: int = 1
    match: Optional[str] = None
    once: bool = True

    def __post_init__(self) -> None:
        if self.op not in _ACTION_SITES:
            raise ValueError(
                f"unknown fault op {self.op!r}; "
                f"available: {tuple(_ACTION_SITES)}"
            )
        if self.nth < 1:
            raise ValueError("nth is 1-based and must be >= 1")

    @property
    def site(self) -> str:
        return _ACTION_SITES[self.op]

    def to_jsonable(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_jsonable(cls, payload: dict) -> "FaultAction":
        return cls(**payload)


class FaultPlan:
    """A replayable set of injected faults.

    The plan is consulted by :class:`~repro.runner.cache.StageCache` on
    every stage miss (``compute`` site) and disk write (``store``
    site).  Install with :func:`set_fault_plan`; worker processes
    inherit it through the :data:`FAULT_PLAN_ENV` environment variable.

    Args:
        actions: The faults to inject.
        state_dir: Directory for cross-process once-markers.  Without
            it, ``once`` is tracked per process only -- a ``kill``
            action would then re-fire in every replacement worker.
    """

    def __init__(
        self,
        actions: list[FaultAction],
        state_dir: Optional[Union[str, os.PathLike]] = None,
        installer_pid: Optional[int] = None,
    ):
        self.actions = list(actions)
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.installer_pid = installer_pid
        self._counts = [0] * len(self.actions)
        self._fired = [False] * len(self.actions)
        self._lock = threading.Lock()

    # -- serialization (environment transport to workers) ----------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "state_dir": (
                    str(self.state_dir) if self.state_dir else None
                ),
                "installer_pid": self.installer_pid,
                "actions": [a.to_jsonable() for a in self.actions],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        return cls(
            actions=[
                FaultAction.from_jsonable(a) for a in payload["actions"]
            ],
            state_dir=payload.get("state_dir"),
            installer_pid=payload.get("installer_pid"),
        )

    # -- firing -----------------------------------------------------------

    def _acquire_once(self, index: int) -> bool:
        """True if this process may fire action ``index`` right now."""
        action = self.actions[index]
        if not action.once:
            return True
        if self._fired[index]:
            return False
        if self.state_dir is not None:
            marker = self.state_dir / f"action-{index}.fired"
            try:
                marker.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(
                    marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                self._fired[index] = True
                return False
            os.close(fd)
        self._fired[index] = True
        return True

    def _matching(self, site: str, key: Optional["StageKey"]):
        description = (
            json.dumps(key.describe(), sort_keys=True)
            if key is not None
            else ""
        )
        for index, action in enumerate(self.actions):
            if action.site != site:
                continue
            if action.stage is not None and (
                key is None or key.stage != action.stage
            ):
                continue
            if action.match is not None and action.match not in description:
                continue
            yield index, action

    def check(
        self, site: str, key: Optional["StageKey"] = None
    ) -> list[FaultAction]:
        """Count one call at ``site`` and fire any due actions.

        ``raise``/``kill`` actions raise (or exit) from here; fired
        ``corrupt`` / ``torn`` / ``flip`` actions are *returned* so the
        caller (the cache's disk writer) can apply the damage itself.
        """
        due: list[tuple[int, FaultAction]] = []
        with self._lock:
            for index, action in self._matching(site, key):
                self._counts[index] += 1
                if self._counts[index] >= action.nth and self._acquire_once(
                    index
                ):
                    due.append((index, action))
        fired: list[FaultAction] = []
        for index, action in due:
            label = key.stage if key is not None else site
            if action.op == "raise":
                raise InjectedFault(
                    f"injected raise at {label} "
                    f"(action {index}, call {action.nth})"
                )
            if action.op == "kill":
                if (
                    self.installer_pid is not None
                    and os.getpid() == self.installer_pid
                ):
                    # Never hard-exit the installing (main) process:
                    # degrade to an exception the runner can isolate.
                    raise InjectedFault(
                        f"injected kill at {label} refused in main "
                        "process; raising instead"
                    )
                os._exit(73)
            fired.append(action)
        return fired


_PLAN: Optional[FaultPlan] = None
_PLAN_LOADED = False


def set_fault_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install (or clear, with None) the process-wide fault plan.

    The plan is also exported through :data:`FAULT_PLAN_ENV` so worker
    processes spawned afterwards inherit it.  Returns the previous
    plan.
    """
    global _PLAN, _PLAN_LOADED
    previous = _PLAN
    if plan is not None and plan.installer_pid is None:
        plan.installer_pid = os.getpid()
    _PLAN = plan
    _PLAN_LOADED = True
    if plan is None:
        os.environ.pop(FAULT_PLAN_ENV, None)
    else:
        os.environ[FAULT_PLAN_ENV] = plan.to_json()
    return previous


def active_plan() -> Optional[FaultPlan]:
    """The installed fault plan, loading from the environment once.

    Worker processes never call :func:`set_fault_plan` themselves;
    their first injection check materializes the parent's plan from
    :data:`FAULT_PLAN_ENV`.
    """
    global _PLAN, _PLAN_LOADED
    if not _PLAN_LOADED:
        _PLAN_LOADED = True
        text = os.environ.get(FAULT_PLAN_ENV)
        if text:
            try:
                _PLAN = FaultPlan.from_json(text)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                _PLAN = None
    return _PLAN


# ---------------------------------------------------------------------------
# Isolated execution


def execute_point(
    spec: "PointSpec", cache
) -> Union["PointResult", "PointFailure"]:
    """Run one grid point once; never raises.

    An exception escaping the point becomes a :class:`PointFailure`.
    Its stage is the innermost stage the exception escaped from, which
    :class:`~repro.runner.cache.StageCache` tags on it, or ``"point"``
    for one raised outside any stage.
    """
    from .stages import run_point

    spec = spec.normalized()
    start = time.perf_counter()
    try:
        return run_point(spec, cache)
    except Exception as error:  # noqa: BLE001 - isolation boundary
        return PointFailure(
            spec=spec,
            stage=getattr(error, "_repro_stage", "point"),
            error=repr(error),
            error_type=type(error).__name__,
            attempts=1,
            elapsed_seconds=time.perf_counter() - start,
        )
