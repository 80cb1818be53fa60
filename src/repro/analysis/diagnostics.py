"""Structured diagnostics shared by the static verifier and runtime guards.

Every check in :mod:`repro.analysis` — the IR verifier passes, the
determinism linter, the cache payload validator — reports through one
:class:`Diagnostic` shape (severity, pass, artifact, location,
message), so ``python -m repro check`` output, linter findings, and the
runtime plan-mismatch guards all read identically and serialize to the
same JSON.

:class:`AnalysisError` carries a batch of diagnostics as an exception;
:class:`PlanMismatchError` is its runtime-guard specialization and
still *is a* ``ValueError``, so pre-existing callers (and tests)
catching ``ValueError`` around plan reuse keep working unchanged.

This module is dependency-free on purpose: IR modules
(:mod:`repro.network.plan`, :mod:`repro.arch.tiled`) import it for
their guard exceptions without pulling the checker passes — which
import those IR modules — into a cycle.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterable, Optional, Sequence

__all__ = [
    "Severity",
    "Diagnostic",
    "AnalysisError",
    "PlanMismatchError",
    "max_severity",
]


class Severity(enum.Enum):
    """How bad a finding is; ordered for filtering and exit codes."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return ("info", "warning", "error").index(self.value)

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.value


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One finding of one analysis pass.

    Attributes:
        severity: :class:`Severity` of the finding.
        pass_name: Which pass produced it (``circuit``, ``dag``,
            ``placement``, ``plan``, a linter rule id, or
            ``runtime-guard``).
        artifact: What was checked (e.g. ``sha1[size=180]/d=5`` or a
            source path for linter findings).
        location: Where inside the artifact (``op 42``, ``segment 1 of
            op 7``, ``line 13``); empty when the finding is global.
        message: Human-readable description of the defect.
    """

    severity: Severity
    pass_name: str
    artifact: str
    location: str
    message: str

    def format(self) -> str:
        """One-line rendering: ``severity pass artifact location: msg``."""
        where = f"{self.artifact} {self.location}".strip()
        return f"{self.severity.value} [{self.pass_name}] {where}: {self.message}"

    def to_jsonable(self) -> dict:
        return {
            "severity": self.severity.value,
            "pass": self.pass_name,
            "artifact": self.artifact,
            "location": self.location,
            "message": self.message,
        }

    @classmethod
    def from_jsonable(cls, payload: dict) -> "Diagnostic":
        return cls(
            severity=Severity(payload["severity"]),
            pass_name=payload["pass"],
            artifact=payload.get("artifact", ""),
            location=payload.get("location", ""),
            message=payload["message"],
        )

    @classmethod
    def error(
        cls, pass_name: str, artifact: str, location: str, message: str
    ) -> "Diagnostic":
        return cls(Severity.ERROR, pass_name, artifact, location, message)

    @classmethod
    def warning(
        cls, pass_name: str, artifact: str, location: str, message: str
    ) -> "Diagnostic":
        return cls(Severity.WARNING, pass_name, artifact, location, message)


def max_severity(
    diagnostics: Iterable[Diagnostic],
) -> Optional[Severity]:
    """The worst severity present, or None for an empty batch."""
    worst: Optional[Severity] = None
    for diag in diagnostics:
        if worst is None or diag.severity.rank > worst.rank:
            worst = diag.severity
    return worst


class AnalysisError(Exception):
    """An exception carrying one or more :class:`Diagnostic` findings.

    Raised, as :class:`PlanMismatchError`, by runtime guards; the
    message lists every finding, one per line, in
    :meth:`Diagnostic.format` form.
    """

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics: tuple[Diagnostic, ...] = tuple(diagnostics)
        super().__init__(
            "\n".join(diag.format() for diag in self.diagnostics)
            or "analysis failed with no diagnostics"
        )


class PlanMismatchError(AnalysisError, ValueError):
    """Runtime guard: a cached/shared artifact no longer matches its use.

    Unifies the previously ad-hoc ``ValueError``s raised when a planned
    circuit was mutated, a plan is simulated at the wrong distance, or
    a config disagrees with the plan's compiled detour radius.  Still a
    ``ValueError`` for backward compatibility; additionally carries the
    structured :class:`Diagnostic` so runtime guards and ``repro
    check`` report through the same shape.
    """

    def __init__(
        self,
        message: str,
        *,
        artifact: str = "",
        location: str = "",
        pass_name: str = "runtime-guard",
    ):
        diagnostic = Diagnostic(
            Severity.ERROR, pass_name, artifact, location, message
        )
        AnalysisError.__init__(self, (diagnostic,))
        # Present the plain guard message (tests match substrings of it).
        self.args = (message,)
