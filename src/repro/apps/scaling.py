"""Application scaling models: extrapolating beyond generatable sizes.

Figures 7--9 sweep computation sizes up to 1/pL = 1e24 logical
operations -- far beyond anything that can be generated and simulated
directly.  The paper handles this the same way: small instances are
compiled and simulated; their characteristics (qubit count vs. operation
count, parallelism factor, T fraction) are then extrapolated.  Here a
calibration instance is summarized straight from its hierarchical
program (:func:`calibration_estimate`): only its estimate is kept, so
its flat and lowered circuits are never built.

:class:`AppScalingModel` fits log-log linear models (power laws) of
``logical qubits`` and ``critical path`` against ``total operations``
over a calibration set of generated instances, and carries forward the
(size-stable) parallelism factor and gate-mix fractions.  Power laws are
the right family: circuit families here have polynomial resource scaling
in the problem size by construction.
"""

from __future__ import annotations

import dataclasses
import math
from statistics import fmean
from typing import Optional, Sequence

from ..frontend.estimate import LogicalEstimate, estimate_program
from .registry import AppSpec, get_app

__all__ = [
    "PowerLaw",
    "AppScalingModel",
    "calibrate",
    "calibration_estimate",
    "calibration_sizes",
    "fit_scaling_model",
    "CALIBRATION_SIZES",
]

CALIBRATION_SIZES: dict[str, tuple[int, ...]] = {
    "gse": (3, 4, 6, 8),
    "sq": (2, 3, 4, 5),
    "sha1": (1, 2, 3),  # Grover iterations at fixed width (scaling_build)
    "im": (4, 6, 8, 12),
}


@dataclasses.dataclass(frozen=True)
class PowerLaw:
    """``y = coefficient * x ** exponent`` fitted in log-log space."""

    coefficient: float
    exponent: float

    def __call__(self, x: float) -> float:
        if x <= 0:
            raise ValueError(f"power law defined for x > 0, got {x}")
        return self.coefficient * x**self.exponent

    @staticmethod
    def fit(xs: Sequence[float], ys: Sequence[float]) -> "PowerLaw":
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("need >= 2 paired samples to fit a power law")
        if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
            raise ValueError("power-law fit requires positive samples")
        # Closed-form degree-1 least squares on the logs (what a
        # polynomial fit of degree 1 computes): slope = cov/var.
        log_x = [math.log(float(x)) for x in xs]
        log_y = [math.log(float(y)) for y in ys]
        mean_x = fmean(log_x)
        mean_y = fmean(log_y)
        var = fmean([(lx - mean_x) ** 2 for lx in log_x])
        if var == 0.0:
            raise ValueError("power-law fit requires distinct x samples")
        cov = fmean(
            [
                (lx - mean_x) * (ly - mean_y)
                for lx, ly in zip(log_x, log_y)
            ]
        )
        exponent = cov / var
        intercept = mean_y - exponent * mean_x
        return PowerLaw(
            coefficient=float(math.exp(intercept)), exponent=float(exponent)
        )


@dataclasses.dataclass(frozen=True)
class AppScalingModel:
    """Extrapolated application characteristics at arbitrary size.

    Attributes:
        app_name: Registry name of the application.
        qubits_vs_ops: Logical qubit count as a power law of total ops.
        depth_vs_ops: Critical path length as a power law of total ops.
        parallelism_factor: Mean measured ideal concurrency (size-stable
            by construction of the workloads).
        t_fraction: Mean fraction of ops consuming a magic state.
        two_qubit_fraction: Mean fraction of 2-qubit ops.
        calibration_ops: Total-op counts of the calibration instances.
    """

    app_name: str
    qubits_vs_ops: PowerLaw
    depth_vs_ops: PowerLaw
    parallelism_factor: float
    t_fraction: float
    two_qubit_fraction: float
    calibration_ops: tuple[int, ...]

    def logical_qubits(self, total_operations: float) -> int:
        """Extrapolated logical data-qubit count for a K-op computation."""
        return max(2, round(self.qubits_vs_ops(total_operations)))

    def critical_path(self, total_operations: float) -> float:
        """Extrapolated dependence-limited depth (logical cycles)."""
        return max(1.0, self.depth_vs_ops(total_operations))

    def t_count(self, total_operations: float) -> float:
        return self.t_fraction * total_operations

    def communication_ops(self, total_operations: float) -> float:
        """Operations requiring network service (2q gates + T states)."""
        return (self.two_qubit_fraction + self.t_fraction) * total_operations


def calibration_sizes(app: str | AppSpec) -> tuple[int, ...]:
    """The default calibration size knobs for an application."""
    spec = get_app(app) if isinstance(app, str) else app
    return CALIBRATION_SIZES[spec.name]


def calibration_estimate(app: str | AppSpec, size: int) -> LogicalEstimate:
    """Estimate one calibration instance, named ``app[scaling:size]``.

    Builds the app's *scaling-regime* program (``scaling_build`` when
    the asymptotic family differs from the size knob) and summarizes
    it with :func:`~repro.frontend.estimate.estimate_program`, which
    gives the estimate of its flattened, Clifford+T-lowered circuit
    without building either.  This is the expensive half of a
    calibration, shared by the uncached :func:`calibrate` path and the
    cached ``scaling_calib`` stage
    (:func:`repro.runner.stages.compute_scaling`).
    """
    spec = get_app(app) if isinstance(app, str) else app
    return estimate_program(
        spec.scaling_program(size), f"{spec.name}[scaling:{size}]"
    )


def fit_scaling_model(
    app_name: str, estimates: Sequence[LogicalEstimate]
) -> AppScalingModel:
    """Fit the power-law model from per-size calibration estimates."""
    if len(estimates) < 2:
        raise ValueError("need at least two calibration sizes")
    ops = [e.total_operations for e in estimates]
    return AppScalingModel(
        app_name=app_name,
        qubits_vs_ops=PowerLaw.fit(ops, [e.num_qubits for e in estimates]),
        depth_vs_ops=PowerLaw.fit(ops, [e.critical_path for e in estimates]),
        parallelism_factor=fmean(
            [e.parallelism_factor for e in estimates]
        ),
        t_fraction=fmean([e.t_fraction for e in estimates]),
        two_qubit_fraction=fmean(
            [e.two_qubit_count / e.total_operations for e in estimates]
        ),
        calibration_ops=tuple(ops),
    )


def calibrate(
    app: str | AppSpec,
    sizes: Optional[Sequence[int]] = None,
) -> AppScalingModel:
    """Fit an :class:`AppScalingModel` from instances compiled afresh
    (the uncached reference for :func:`repro.runner.stages.compute_scaling`).

    Args:
        app: Application name or spec.
        sizes: Calibration size knobs; defaults to
            :data:`CALIBRATION_SIZES` for the app.
    """
    spec = get_app(app) if isinstance(app, str) else app
    chosen = tuple(sizes) if sizes is not None else CALIBRATION_SIZES[spec.name]
    if len(chosen) < 2:
        raise ValueError("need at least two calibration sizes")
    return fit_scaling_model(
        spec.name, [calibration_estimate(spec, size) for size in chosen]
    )
