"""Deterministic fault injection for the runner's tests.

:func:`injected` patches :class:`~repro.runner.cache.StageCache` at
class level for the length of a ``with`` block:

* ``get_or_compute`` wraps the ``compute`` closure it is given, so
  ``raise`` and ``kill`` faults fire where a stage computes: on a miss,
  after the single-flight lock is taken, and inside the frame that tags
  an escaping exception with its stage;
* ``store_payload`` damages the entry it has just written: ``corrupt``
  (garbage), ``torn`` (a crash mid-write left half the bytes) or
  ``flip`` (bit rot: the payload no longer hashes to its checksum).

Processes forked inside the block (``SweepRunner`` pool workers,
``multiprocessing`` children) inherit the patched class, so a fault
fires in whichever process reaches it.  That needs the ``fork`` start
method: a ``spawn`` or ``forkserver`` child imports a fresh, unpatched
class, so :func:`injected` refuses to start under either (``fork`` is
the default on Linux before Python 3.14).  With a ``state_dir`` a
``once`` fault leaves a marker file there, so it fires once across
processes: a kill does not fire again in the pool that replaces the
one it broke.  A ``kill`` never hard-exits the process that entered
the block (the test runner itself); it raises there instead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import multiprocessing
import os
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.runner.cache import StageCache
from repro.runner.keys import StageKey

COMPUTE_OPS = ("raise", "kill")
STORE_OPS = ("corrupt", "torn", "flip")
KILL_EXIT_CODE = 73


class InjectedFault(RuntimeError):
    """The exception a ``raise`` fault (or a refused ``kill``) raises."""


@dataclasses.dataclass(frozen=True)
class Fault:
    """One planned fault.

    Attributes:
        op: One of :data:`COMPUTE_OPS` or :data:`STORE_OPS`.
        stage: The stage whose compute (or store) it hits.
        nth: Fire on the nth matching call in a process (1-based).
        match: A substring the stage key's canonical description must
            contain (e.g. ``'"policy": 0'``).
        once: Fire at most once (across processes with a
            ``state_dir``).
    """

    op: str
    stage: str
    nth: int = 1
    match: Optional[str] = None
    once: bool = True

    def __post_init__(self) -> None:
        if self.op not in COMPUTE_OPS + STORE_OPS:
            raise ValueError(f"unknown fault op {self.op!r}")


class FaultPlan:
    """The faults of one :func:`injected` block and their counters."""

    def __init__(
        self,
        faults: tuple[Fault, ...],
        state_dir: Optional[Union[str, os.PathLike]] = None,
    ):
        self.faults = faults
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.installer_pid = os.getpid()
        self._counts = [0] * len(faults)
        self._fired = [False] * len(faults)

    def marker(self, index: int) -> Path:
        """The once-marker fault ``index`` leaves in ``state_dir``."""
        assert self.state_dir is not None
        return self.state_dir / f"fault-{index}.fired"

    def due(
        self, ops: tuple[str, ...], key: StageKey
    ) -> list[tuple[int, Fault]]:
        """Count one call at a site and return the faults due now."""
        description = json.dumps(key.describe(), sort_keys=True)
        due = []
        for index, fault in enumerate(self.faults):
            if fault.op not in ops or fault.stage != key.stage:
                continue
            if fault.match is not None and fault.match not in description:
                continue
            self._counts[index] += 1
            if self._counts[index] >= fault.nth and self._claim(index):
                due.append((index, fault))
        return due

    def _claim(self, index: int) -> bool:
        if not self.faults[index].once:
            return True
        if self._fired[index]:
            return False
        self._fired[index] = True
        if self.state_dir is None:
            return True
        self.state_dir.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(
                self.marker(index), os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def fire_compute(self, key: StageKey) -> None:
        for index, fault in self.due(COMPUTE_OPS, key):
            if fault.op == "kill" and os.getpid() != self.installer_pid:
                os._exit(KILL_EXIT_CODE)
            raise InjectedFault(
                f"injected {fault.op} at {key.stage} (fault {index})"
            )

    def damage_store(self, cache: StageCache, key: StageKey) -> None:
        path = cache.disk.entry_path(key.stage, key.digest)
        for _, fault in self.due(STORE_OPS, key):
            if fault.op == "corrupt":
                path.write_text("{corrupt", encoding="utf-8")
            elif fault.op == "torn":
                data = path.read_bytes()
                path.write_bytes(data[: max(1, len(data) // 2)])
            else:
                record = cache.disk.load(key.stage, key.digest)
                sha = record["sha256"]
                record["sha256"] = ("1" if sha[0] == "0" else "0") + sha[1:]
                cache.disk.store(key.stage, key.digest, record)


@contextlib.contextmanager
def injected(
    *faults: Fault, state_dir: Optional[Union[str, os.PathLike]] = None
) -> Iterator[FaultPlan]:
    """Inject ``faults`` into every ``StageCache`` while the block runs."""
    method = multiprocessing.get_start_method()
    if method != "fork":
        raise RuntimeError(
            f"fault injection needs the 'fork' start method, not "
            f"{method!r}: other child processes would not inherit the "
            "patched StageCache"
        )
    plan = FaultPlan(faults, state_dir)
    get_or_compute = StageCache.get_or_compute
    store_payload = StageCache.store_payload

    def faulty_get_or_compute(self, key, compute, *args, **kwargs):
        def faulty_compute():
            plan.fire_compute(key)
            return compute()

        return get_or_compute(self, key, faulty_compute, *args, **kwargs)

    def faulty_store_payload(self, key, payload):
        store_payload(self, key, payload)
        if self.disk is not None:
            plan.damage_store(self, key)

    StageCache.get_or_compute = faulty_get_or_compute
    StageCache.store_payload = faulty_store_payload
    try:
        yield plan
    finally:
        StageCache.get_or_compute = get_or_compute
        StageCache.store_payload = store_payload
