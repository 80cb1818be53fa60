"""Fault tolerance for sweep execution: isolation, retry, injection.

Production sweeps must survive partial failure: one point that raises,
one worker OOM-killed mid-chunk, or one hung simulation must not lose
the whole sweep.  This module provides the primitives the
:class:`~repro.runner.sweep.SweepRunner` builds on:

* :class:`RetryPolicy` -- bounded attempts with deterministic
  exponential backoff (jitter derived from a seed, never from
  wall-clock entropy) and an optional per-point deadline.
* :class:`PointFailure` -- the structured record a failed grid point
  leaves behind (spec, failing stage, exception repr, attempts,
  elapsed), JSON round-trippable so sweep reports carry it.
* :func:`execute_point` -- run one grid point under a policy: catch,
  retry with backoff and enforce the deadline before giving up.
* :exc:`SweepAborted` -- raised by the runner when failures exceed its
  ``max_failures`` budget (``0`` keeps the historical fail-fast
  behavior).
* :class:`FaultPlan` -- a seeded, deterministic fault-injection plan
  (raise on the nth stage call, sleep past the deadline, kill the
  worker process, corrupt the just-written disk entry, stall a chunk)
  wired into :class:`~repro.runner.cache.StageCache` behind
  :func:`set_fault_plan` / the ``REPRO_FAULT_PLAN`` environment
  variable, so every failure mode above is reproducibly testable.

Fault injection is **off** unless a plan is installed; the hooks cost
one module-attribute read per stage miss.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (stages
    # imports cache, cache hooks into this module)
    from .keys import StageKey
    from .stages import PointResult, PointSpec

__all__ = [
    "InjectedFault",
    "PointTimeout",
    "SweepAborted",
    "RetryPolicy",
    "PointFailure",
    "FaultAction",
    "FaultPlan",
    "FAULT_PLAN_ENV",
    "set_fault_plan",
    "active_plan",
    "call_with_deadline",
    "execute_point",
    "failure_stage",
]

FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"
"""Environment variable carrying a serialized :class:`FaultPlan` into
worker processes (set by :func:`set_fault_plan`)."""


class InjectedFault(RuntimeError):
    """Deterministic failure raised by an active :class:`FaultPlan`."""


class PointTimeout(RuntimeError):
    """A grid point exceeded its :attr:`RetryPolicy.timeout_s` deadline."""


class SweepAborted(RuntimeError):
    """Failure count exceeded the sweep's ``max_failures`` budget.

    Attributes:
        failures: Every :class:`PointFailure` collected before the
            abort, including the one that crossed the budget.
    """

    def __init__(self, message: str, failures: list["PointFailure"]):
        super().__init__(message)
        self.failures = failures


def failure_stage(error: BaseException) -> str:
    """The pipeline stage an exception escaped from.

    :class:`~repro.runner.cache.StageCache` tags exceptions raised
    inside stage computations with the innermost stage's name; untagged
    exceptions (raised outside any stage) report as ``"point"``.
    """
    if isinstance(error, PointTimeout):
        return "timeout"
    return getattr(error, "_repro_stage", "point")


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    Attributes:
        max_attempts: Attempts per point (1 = no retry).
        base_delay: Backoff before attempt 2 in seconds; attempt ``n``
            waits ``base_delay * backoff**(n-2)`` (capped by
            ``max_delay``) plus deterministic jitter.
        backoff: Exponential growth factor between attempts.
        max_delay: Upper bound on any single backoff sleep.
        jitter_seed: Seed for the deterministic jitter fraction (the
            jitter is a hash of seed, point identity, and attempt --
            never wall-clock entropy, so schedules replay exactly).
        timeout_s: Per-point deadline in seconds (None = unbounded).
    """

    max_attempts: int = 1
    base_delay: float = 0.0
    backoff: float = 2.0
    max_delay: float = 30.0
    jitter_seed: int = 0
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.backoff < 1:
            raise ValueError("base_delay must be >= 0 and backoff >= 1")

    def delay(self, attempt: int, token: str = "") -> float:
        """Backoff before ``attempt`` (2-based; attempt 1 never waits).

        The jitter fraction in ``[0, 1)`` is derived from
        ``(jitter_seed, token, attempt)`` so two processes retrying the
        same point desynchronize identically on every replay.
        """
        if attempt <= 1 or self.base_delay <= 0:
            return 0.0
        raw = self.base_delay * self.backoff ** (attempt - 2)
        seed = f"{self.jitter_seed}:{token}:{attempt}".encode("utf-8")
        word = int.from_bytes(hashlib.sha256(seed).digest()[:8], "big")
        jitter = word / 2**64  # deterministic fraction in [0, 1)
        return min(raw * (1.0 + jitter), self.max_delay)

    def to_jsonable(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_jsonable(cls, payload: dict) -> "RetryPolicy":
        return cls(**payload)


@dataclasses.dataclass(frozen=True)
class PointFailure:
    """Structured record of one grid point that exhausted its policy.

    Attributes:
        spec: The failed point's spec (JSON round-trippable).
        stage: Innermost pipeline stage the final error escaped from
            (``"timeout"`` for deadline misses, ``"pool"`` for worker
            crashes the pool could not recover from).
        error: ``repr`` of the final exception.
        error_type: Final exception class name.
        attempts: How many executions were tried (degradation retries
            included).
        elapsed_seconds: Wall-clock spent across every attempt.
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


_ACTION_OPS = (
    "raise",
    "sleep",
    "kill",
    "corrupt",
    "stall",
    "torn",
    "flip",
)

_ACTION_SITES = {
    "raise": "compute",
    "sleep": "compute",
    "kill": "compute",
    "corrupt": "store",
    "stall": "chunk",
    "torn": "store",
    "flip": "store",
}


@dataclasses.dataclass(frozen=True)
class FaultAction:
    """One injected fault.

    Attributes:
        op: ``raise`` (exception inside a stage computation), ``sleep``
            (delay a stage past its deadline), ``kill`` (hard-exit the
            worker process, producing ``BrokenProcessPool``),
            ``corrupt`` (overwrite the just-persisted disk entry with
            garbage), ``stall`` (non-cooperative delay at the start of
            a parallel chunk, simulating a wedged worker), ``torn``
            (truncate the just-persisted entry mid-write, simulating a
            crash between write and rename durability), ``flip``
            (rewrite the entry with a wrong sha256, simulating bit
            rot).
        stage: Stage name the action targets (ignored for ``stall``).
        nth: Fire on the nth *matching* call seen by the process
            (1-based; counters are per process).
        seconds: Sleep/stall duration.
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
    seconds: float = 0.0
    match: Optional[str] = None
    once: bool = True

    def __post_init__(self) -> None:
        if self.op not in _ACTION_OPS:
            raise ValueError(
                f"unknown fault op {self.op!r}; available: {_ACTION_OPS}"
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
    """A seeded, replayable set of injected faults.

    The plan is consulted by :class:`~repro.runner.cache.StageCache` on
    every stage miss (``compute`` site) and disk write (``store``
    site), and by the parallel chunk runner (``chunk`` site).  Install
    with :func:`set_fault_plan`; worker processes inherit it through
    the :data:`FAULT_PLAN_ENV` environment variable.

    Args:
        actions: The faults to inject.
        seed: Recorded for report provenance (jitter and ordering are
            derived from action definitions, not from this seed).
        state_dir: Directory for cross-process once-markers.  Without
            it, ``once`` is tracked per process only -- a ``kill``
            action would then re-fire in every replacement worker.
    """

    def __init__(
        self,
        actions: list[FaultAction],
        seed: int = 0,
        state_dir: Optional[Union[str, os.PathLike]] = None,
        installer_pid: Optional[int] = None,
    ):
        self.actions = list(actions)
        self.seed = seed
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.installer_pid = installer_pid
        self._counts = [0] * len(self.actions)
        self._fired = [False] * len(self.actions)
        self._lock = threading.Lock()

    # -- serialization (environment transport to workers) ----------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
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
            seed=payload.get("seed", 0),
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

        ``raise``/``kill`` actions raise (or exit) from here; ``sleep``
        and ``stall`` block here; fired ``corrupt`` / ``torn`` /
        ``flip`` actions are *returned* so the caller (the cache's disk
        writer) can apply the damage itself.
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
            if action.op in ("sleep", "stall"):
                time.sleep(action.seconds)
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
# Deadlines and isolated execution


def call_with_deadline(
    fn: Callable[[], Any],
    timeout_s: Optional[float],
    label: str = "point",
) -> Any:
    """Run ``fn`` with a cooperative wall-clock deadline.

    The computation runs on a daemon worker thread; exceeding the
    deadline raises :exc:`PointTimeout` and abandons the thread (pure
    stage computations write idempotent values into the cache, so a
    straggler finishing late is harmless).  ``timeout_s=None`` calls
    ``fn`` inline with no thread.
    """
    if timeout_s is None:
        return fn()
    outcome: dict[str, Any] = {}

    def target() -> None:
        try:
            outcome["value"] = fn()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            outcome["error"] = error

    thread = threading.Thread(
        target=target, name=f"deadline-{label}", daemon=True
    )
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise PointTimeout(
            f"{label} exceeded its {timeout_s:g}s deadline"
        )
    if "error" in outcome:
        # Popped, or outcome -> error -> traceback -> target's frame ->
        # outcome would be a reference cycle.
        raise outcome.pop("error")
    return outcome["value"]


def execute_point(
    spec: "PointSpec",
    cache,
    retry: Optional[RetryPolicy] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Union["PointResult", "PointFailure"]:
    """Run one grid point under a retry policy; never raises.

    The point is attempted up to ``retry.max_attempts`` times with
    deterministic backoff between attempts and the per-point deadline
    enforced on each.  Exhausted points return a :class:`PointFailure`
    instead of raising.
    """
    from .stages import run_point

    retry = retry if retry is not None else RetryPolicy()
    spec = spec.normalized()
    token = spec.key().digest
    start = time.perf_counter()
    attempts = 0
    # The last error is kept as text: holding the exception in a local
    # would tie it to this frame through its traceback, in a cycle.
    failure: Optional[tuple[str, str, str]] = None
    for attempt in range(1, retry.max_attempts + 1):
        attempts = attempt
        pause = retry.delay(attempt, token)
        if pause:
            sleep(pause)
        try:
            return call_with_deadline(
                lambda: run_point(spec, cache),
                retry.timeout_s,
                label=f"point {spec.app}[{spec.size}] p{spec.policy}",
            )
        except Exception as error:  # noqa: BLE001 - isolation boundary
            failure = (
                failure_stage(error), repr(error), type(error).__name__
            )
    assert failure is not None
    stage, message, error_type = failure
    return PointFailure(
        spec=spec,
        stage=stage,
        error=message,
        error_type=error_type,
        attempts=attempts,
        elapsed_seconds=time.perf_counter() - start,
    )
