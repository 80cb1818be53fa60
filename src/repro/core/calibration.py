"""Simulator-backed calibration of the analytic resource model.

The resource estimator (``core.resources``) extrapolates to computation
sizes far beyond what the cycle-accurate simulators can execute; its
application-dependent congestion inputs come from running those
simulators on small instances:

* **Braid congestion** -- the tiled-architecture braid simulator's
  schedule-to-critical-path ratio under a given policy (Figure 6's
  converged value).  High-parallelism applications congest more, which
  is exactly the effect that moves their planar/double-defect crossover
  (Figures 8 and 9).
* **EPR stall overhead** -- the Multi-SIMD pipeline's fractional latency
  increase at the default window (Section 8.1 reports <= ~4%).

The simulations run through :mod:`repro.runner.stages`, so they share
results with any sweep using the same stage cache: a Figure 6 policy
sweep at the calibration sizes leaves the policy-6 braid results the
calibration needs already cached, and vice versa.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from ..apps.registry import get_app
from ..apps.scaling import CALIBRATION_SIZES, AppScalingModel, fit_scaling_model

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runner.cache import StageCache

__all__ = ["AppCalibration", "calibrate_app"]


@dataclasses.dataclass(frozen=True)
class AppCalibration:
    """Calibrated inputs for one application (+ inlining variant).

    Attributes:
        scaling: Power-law scaling model (qubits, depth, gate mix).
        braid_congestion: Braid schedule / critical-path ratio, policy 6.
        epr_overhead: Fractional EPR stall overhead at default window.
    """

    scaling: AppScalingModel
    braid_congestion: float
    epr_overhead: float


def calibrate_app(
    app_name: str,
    inline_depth: Optional[int] = None,
    policy: int = 6,
    distance: int = 5,
    cache: Optional["StageCache"] = None,
) -> AppCalibration:
    """Measure the calibration inputs for one application variant.

    Args:
        app_name: Registry name.
        inline_depth: Flattening depth (None = fully inlined; 0 = the
            paper's "semi-inlined" variant).
        policy: Braid policy used for the congestion measurement.
        distance: Code distance for the calibration simulations.
        cache: Stage cache for the underlying simulations (the
            process-wide default cache if omitted).
    """
    from ..runner import stages

    spec = get_app(app_name)
    stage_cache = cache if cache is not None else stages.default_cache()

    if inline_depth is None:
        # Routed through the `scaling` stage: the calibration circuits
        # compile once per app per cache (and persist to its disk level).
        scaling = stages.compute_scaling(stage_cache, spec.name)
    else:
        # Variant-specific scaling, fitted from the two largest
        # calibration sizes of this variant's (cached) frontends.
        scaling = fit_scaling_model(
            f"{spec.name}-inline{inline_depth}",
            [
                stages.compute_frontend(
                    stage_cache, spec.name, s, inline_depth
                ).logical
                for s in CALIBRATION_SIZES[spec.name][-2:]
            ],
        )

    braid = stages.compute_braid(
        stage_cache,
        spec.name,
        spec.sim_size,
        inline_depth,
        policy=policy,
        distance=distance,
        optimize_layout=True,
    )
    congestion = max(1.0, braid.schedule_to_critical_ratio)

    epr = stages.compute_epr(
        stage_cache,
        spec.name,
        spec.sim_size,
        inline_depth,
        regions=4,
        distance=distance,
    )
    overhead = max(0.0, epr.latency_overhead)

    return AppCalibration(
        scaling=scaling,
        braid_congestion=congestion,
        epr_overhead=overhead,
    )
