"""Explicit, independently-invokable stages of the Figure 4 toolflow.

The monolithic pipeline is split into explicit stages, each memoized
through a :class:`~repro.runner.cache.StageCache` under a
:class:`~repro.runner.keys.StageKey`:

* ``lowered`` — build + Clifford+T lowering of one instance (memory
  only: lowering again costs less than reviving a stored circuit).
* ``frontend`` — lowered circuit + DAG + logical estimate.
* ``layout`` — the data-qubit placement of one instance (naive or
  interaction-aware), shared by both machines.
* ``braid_plan`` — the tiled (double-defect) machine around a layout
  and its policy-independent simulation plan for one distance: tasks,
  prebound routes, DAG arrays (shared by all policy points of a design
  point).
* ``braid_sim`` — braid network simulation for one (policy, distance).
* ``simd`` — the Multi-SIMD machine around the interaction-aware
  layout, and its logical schedule.
* ``simd_epr`` — pipelined EPR distribution over that schedule.
* ``scaling`` — power-law scaling model fitted from calibration
  instances (each instance's estimate cached under ``scaling_calib``,
  which estimates the instance straight from its program: its flat
  and lowered circuits are never built).
* ``accounting`` — planar/double-defect space-time estimates.

Stage compute closures request their upstream stages *through the
cache*, so a downstream hit (e.g. a braid result revived from disk)
skips the whole prefix.  :func:`run_point` composes the stages for one
grid point and is itself cached under the ``point`` stage, which is
what the sweep runner and the CLI persist and report from.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from ..apps.registry import get_app
from ..apps.scaling import (
    AppScalingModel,
    PowerLaw,
    calibration_estimate,
    calibration_sizes,
    fit_scaling_model,
)
from ..arch.multisimd import MultiSimdMachine, build_multisimd_machine
from ..arch.tiled import build_tiled_machine
from ..core.resources import (
    DEFAULT_CONSTANTS,
    CommunicationConstants,
    SpaceTimeEstimate,
    estimate_double_defect,
    estimate_planar,
)
from ..frontend.decompose import decompose_circuit
from ..frontend.estimate import LogicalEstimate, estimate_circuit
from ..frontend.schedule import LogicalSchedule
from ..network.braidsim import BraidSimResult, simulate_plan
from ..network.plan import BraidPlan
from ..network.epr import EprPipelineResult
from ..network.policies import POLICIES
from ..partition.layout import Placement, circuit_layout
from ..qasm.circuit import Circuit
from ..qasm.dag import CircuitDag
from ..qec.distance import choose_distance
from ..tech import (
    CURRENT,
    INTERMEDIATE,
    OPTIMISTIC,
    Technology,
    technology_for_error_rate,
)
from .cache import StageCache
from .keys import StageKey

__all__ = [
    "FrontendArtifacts",
    "SimdArtifacts",
    "AccountingResult",
    "PointSpec",
    "PointResult",
    "TECH_PRESETS",
    "default_cache",
    "reset_default_cache",
    "frontend_key",
    "scaling_key",
    "compute_lowered",
    "compute_frontend",
    "compute_layout",
    "compute_braid_plan",
    "compute_braid",
    "compute_simd",
    "compute_epr",
    "compute_scaling",
    "compute_accounting",
    "run_point",
]

TECH_PRESETS: dict[str, Technology] = {
    "current": CURRENT,
    "intermediate": INTERMEDIATE,
    "optimistic": OPTIMISTIC,
}

_DEFAULT_CACHE = StageCache()


def default_cache() -> StageCache:
    """Process-wide cache shared by :func:`run_point` (when no cache is
    given) and calibration."""
    return _DEFAULT_CACHE


def reset_default_cache() -> StageCache:
    """Replace the process-wide cache (mainly for tests)."""
    global _DEFAULT_CACHE
    _DEFAULT_CACHE = StageCache()
    return _DEFAULT_CACHE


# ---------------------------------------------------------------------------
# Stage artifacts


@dataclasses.dataclass(frozen=True)
class FrontendArtifacts:
    """Live products of the frontend stage (memory cache only)."""

    circuit: Circuit
    dag: CircuitDag
    logical: LogicalEstimate


@dataclasses.dataclass(frozen=True)
class SimdArtifacts:
    """Live products of the Multi-SIMD sizing stage (memory only)."""

    machine: MultiSimdMachine
    schedule: LogicalSchedule


@dataclasses.dataclass(frozen=True)
class AccountingResult:
    """Space-time estimates for both codes at one design point."""

    planar: SpaceTimeEstimate
    double_defect: SpaceTimeEstimate


# ---------------------------------------------------------------------------
# Stage keys and computations


def _resolve(app: str, size: Optional[int]) -> tuple[str, int]:
    spec = get_app(app)
    return spec.name, spec.default_size if size is None else size


def frontend_key(
    app: str, size: Optional[int] = None, inline_depth: Optional[int] = None
) -> StageKey:
    name, size = _resolve(app, size)
    return StageKey.make(
        "frontend", app=name, size=size, inline_depth=inline_depth
    )


def compute_lowered(
    cache: StageCache,
    app: str,
    size: Optional[int] = None,
    inline_depth: Optional[int] = None,
) -> Circuit:
    """Build and lower one instance to a flat Clifford+T circuit.

    The stage is memory-only: building and lowering an instance costs
    about half of what reviving a stored circuit does, so a cold
    process lowers again instead of reading one back.
    """
    name, size = _resolve(app, size)
    key = StageKey.make(
        "lowered", app=name, size=size, inline_depth=inline_depth
    )

    def build() -> Circuit:
        spec = get_app(name)
        return decompose_circuit(spec.circuit(size, inline_depth=inline_depth))

    return cache.get_or_compute(key, build)


def compute_frontend(
    cache: StageCache,
    app: str,
    size: Optional[int] = None,
    inline_depth: Optional[int] = None,
) -> FrontendArtifacts:
    """Flatten, decompose and estimate one application instance."""
    name, size = _resolve(app, size)

    def build() -> FrontendArtifacts:
        circuit = compute_lowered(cache, name, size, inline_depth)
        dag = CircuitDag(circuit)
        logical = estimate_circuit(circuit, dag)
        return FrontendArtifacts(circuit=circuit, dag=dag, logical=logical)

    return cache.get_or_compute(
        frontend_key(name, size, inline_depth),
        build,
        # The live circuit and DAG stay memory-only; the logical
        # estimate is persisted for cache inspection (nothing revives
        # it -- reports read whole grid-point payloads instead).
        to_jsonable=lambda fe: dataclasses.asdict(fe.logical),
    )


def compute_layout(
    cache: StageCache,
    app: str,
    size: Optional[int] = None,
    inline_depth: Optional[int] = None,
    optimize_layout: bool = True,
) -> Placement:
    """Place one instance's qubits on its data grid: the ``braid_plan``
    stage builds the tiled machine around it, and the ``simd`` stage
    the Multi-SIMD machine around the interaction-aware one."""
    name, size = _resolve(app, size)
    key = StageKey.make(
        "layout",
        app=name,
        size=size,
        inline_depth=inline_depth,
        optimize_layout=optimize_layout,
    )

    def build() -> Placement:
        fe = compute_frontend(cache, name, size, inline_depth)
        return circuit_layout(fe.circuit, optimize=optimize_layout)

    return cache.get_or_compute(key, build)


def compute_braid_plan(
    cache: StageCache,
    app: str,
    size: Optional[int] = None,
    inline_depth: Optional[int] = None,
    optimize_layout: bool = True,
    distance: int = 5,
) -> BraidPlan:
    """Build (or reuse) the policy-independent braid simulation plan.

    One plan serves every policy point of a (app, size, layout,
    distance) design point: the sweep's multi-policy braid stage pays
    for task building, route binding, and DAG array extraction exactly
    once.  The stage is memory-only (plans hold live circuit/route
    objects); its self time is what ``repro.runner.bench`` reports as
    ``braid_plan``, separating plan builds from pure simulation time.
    """
    name, size = _resolve(app, size)
    key = StageKey.make(
        "braid_plan",
        app=name,
        size=size,
        inline_depth=inline_depth,
        optimize_layout=optimize_layout,
        distance=distance,
    )

    def build() -> BraidPlan:
        fe = compute_frontend(cache, name, size, inline_depth)
        placement = compute_layout(
            cache, name, size, inline_depth, optimize_layout
        )
        machine = build_tiled_machine(fe.circuit, placement)
        return machine.plan(distance, dag=fe.dag)

    return cache.get_or_compute(key, build)


def compute_braid(
    cache: StageCache,
    app: str,
    size: Optional[int] = None,
    inline_depth: Optional[int] = None,
    policy: int = 6,
    distance: int = 5,
    optimize_layout: Optional[bool] = None,
) -> BraidSimResult:
    """Simulate the braid network for one (policy, distance).

    ``optimize_layout`` defaults to the policy's own layout flag
    (Policies 2+ use the interaction-aware layout, as in Figure 6).
    """
    name, size = _resolve(app, size)
    try:
        policy_obj = POLICIES[policy]
    except KeyError:
        raise KeyError(
            f"unknown braid policy {policy!r}; available: {sorted(POLICIES)}"
        ) from None
    if optimize_layout is None:
        optimize_layout = policy_obj.optimized_layout
    key = StageKey.make(
        "braid_sim",
        app=name,
        size=size,
        inline_depth=inline_depth,
        policy=policy,
        distance=distance,
        optimize_layout=optimize_layout,
    )

    def simulate() -> BraidSimResult:
        plan = compute_braid_plan(
            cache, name, size, inline_depth, optimize_layout, distance
        )
        return simulate_plan(plan, policy_obj)

    return cache.get_or_compute(
        key,
        simulate,
        to_jsonable=dataclasses.asdict,
        from_jsonable=lambda payload: BraidSimResult(**payload),
    )


def compute_simd(
    cache: StageCache,
    app: str,
    size: Optional[int] = None,
    inline_depth: Optional[int] = None,
    regions: int = 4,
) -> SimdArtifacts:
    """Size the Multi-SIMD machine and build its logical schedule."""
    name, size = _resolve(app, size)
    key = StageKey.make(
        "simd", app=name, size=size, inline_depth=inline_depth, regions=regions
    )

    def build() -> SimdArtifacts:
        fe = compute_frontend(cache, name, size, inline_depth)
        placement = compute_layout(
            cache, name, size, inline_depth, optimize_layout=True
        )
        machine = build_multisimd_machine(
            fe.circuit, placement, regions=regions
        )
        return SimdArtifacts(machine=machine, schedule=machine.schedule(fe.dag))

    return cache.get_or_compute(key, build)


def compute_epr(
    cache: StageCache,
    app: str,
    size: Optional[int] = None,
    inline_depth: Optional[int] = None,
    regions: int = 4,
    distance: int = 5,
    window: int = 64,
) -> EprPipelineResult:
    """Run the pipelined EPR distribution for one (regions, distance)."""
    name, size = _resolve(app, size)
    key = StageKey.make(
        "simd_epr",
        app=name,
        size=size,
        inline_depth=inline_depth,
        regions=regions,
        distance=distance,
        window=window,
    )

    def simulate() -> EprPipelineResult:
        simd = compute_simd(cache, name, size, inline_depth, regions)
        return simd.machine.epr_pipeline(simd.schedule, distance, window=window)

    return cache.get_or_compute(
        key,
        simulate,
        to_jsonable=dataclasses.asdict,
        from_jsonable=lambda payload: EprPipelineResult(**payload),
    )


def scaling_key(
    app: str, sizes: Optional[Sequence[int]] = None
) -> StageKey:
    """Key of one scaling-model fit: app + explicit calibration sizes."""
    name = get_app(app).name
    chosen = tuple(sizes) if sizes is not None else calibration_sizes(name)
    return StageKey.make("scaling", app=name, sizes=chosen)


def compute_scaling(
    cache: StageCache,
    app: str,
    sizes: Optional[Sequence[int]] = None,
) -> AppScalingModel:
    """Fit (or revive) the power-law scaling model for one application.

    The model extrapolates qubit count and depth to the Figure 7-9
    computation sizes.  Each calibration instance's compile+estimate is
    its own ``scaling_calib`` stage keyed on ``(app, size)``, so two
    fits over overlapping size lists — or repeated sweeps — compile
    every instance at most once per cache (and never again once the
    disk level holds its estimate).  The stage estimates the instance
    through :func:`~repro.apps.scaling.calibration_estimate`, which
    summarizes its program without flattening or lowering it, so no
    calibration circuit is ever built.
    """
    name = get_app(app).name
    chosen = tuple(sizes) if sizes is not None else calibration_sizes(name)

    def estimate_one(size: int) -> LogicalEstimate:
        key = StageKey.make("scaling_calib", app=name, size=size)
        return cache.get_or_compute(
            key,
            lambda: calibration_estimate(name, size),
            to_jsonable=dataclasses.asdict,
            from_jsonable=lambda payload: LogicalEstimate(**payload),
        )

    def fit() -> AppScalingModel:
        return fit_scaling_model(
            name, [estimate_one(size) for size in chosen]
        )

    return cache.get_or_compute(
        scaling_key(name, chosen),
        fit,
        to_jsonable=dataclasses.asdict,
        from_jsonable=lambda payload: AppScalingModel(
            app_name=payload["app_name"],
            qubits_vs_ops=PowerLaw(**payload["qubits_vs_ops"]),
            depth_vs_ops=PowerLaw(**payload["depth_vs_ops"]),
            parallelism_factor=payload["parallelism_factor"],
            t_fraction=payload["t_fraction"],
            two_qubit_fraction=payload["two_qubit_fraction"],
            calibration_ops=tuple(payload["calibration_ops"]),
        ),
    )


def compute_accounting(
    cache: StageCache,
    app: str,
    computation_size: float,
    tech: Technology,
    congestion: float,
    constants: CommunicationConstants = DEFAULT_CONSTANTS,
) -> AccountingResult:
    """Space-time accounting for both codes from calibrated inputs.

    The scaling model arrives through the ``scaling`` stage, so its
    calibration circuits compile once per app across a whole sweep.
    The analytic model consumes the measured braid congestion; the EPR
    stall overhead stays a reported metric (it is <= ~4% at the default
    window, Section 8.1) and does not enter the estimates.
    """
    name = get_app(app).name
    key = StageKey.make(
        "accounting",
        app=name,
        computation_size=computation_size,
        tech=tech,
        congestion=congestion,
        constants=constants,
    )

    def estimate() -> AccountingResult:
        scaling = compute_scaling(cache, name)
        planar = estimate_planar(scaling, computation_size, tech, constants)
        dd = estimate_double_defect(
            scaling,
            computation_size,
            tech,
            congestion=congestion,
            constants=constants,
        )
        return AccountingResult(planar=planar, double_defect=dd)

    return cache.get_or_compute(
        key,
        estimate,
        to_jsonable=dataclasses.asdict,
        from_jsonable=lambda payload: AccountingResult(
            planar=SpaceTimeEstimate(**payload["planar"]),
            double_defect=SpaceTimeEstimate(**payload["double_defect"]),
        ),
    )


# ---------------------------------------------------------------------------
# Grid points: one full pipeline pass, cached end to end


@dataclasses.dataclass(frozen=True)
class PointSpec:
    """One design/grid point of the paper's evaluation space.

    Attributes:
        app: Registry application name.
        size: Problem size knob (None = app default).
        inline_depth: Flattening depth (None = fully inlined).
        policy: Braid scheduling policy (0-8).
        regions: SIMD region count for the planar machine.
        tech_name: Technology preset name (ignored if ``error_rate``).
        error_rate: Explicit physical error rate overriding the preset.
        distance: Code distance override (None = derived from the
            frontend's error budget and the technology).
        window: EPR look-ahead window in logical cycles.
        optimize_layout: Tiled layout override (None = policy default).
    """

    app: str
    size: Optional[int] = None
    inline_depth: Optional[int] = None
    policy: int = 6
    regions: int = 4
    tech_name: str = "intermediate"
    error_rate: Optional[float] = None
    distance: Optional[int] = None
    window: int = 64
    optimize_layout: Optional[bool] = None

    def normalized(self) -> "PointSpec":
        """Canonical app name and resolved size, for stable keys."""
        name, size = _resolve(self.app, self.size)
        return dataclasses.replace(self, app=name, size=size)

    def technology(self) -> Technology:
        if self.error_rate is not None:
            return technology_for_error_rate(self.error_rate)
        try:
            return TECH_PRESETS[self.tech_name]
        except KeyError:
            raise KeyError(
                f"unknown technology preset {self.tech_name!r}; "
                f"available: {sorted(TECH_PRESETS)}"
            ) from None

    def key(self) -> StageKey:
        spec = self.normalized()
        return StageKey.make(
            "point",
            app=spec.app,
            size=spec.size,
            inline_depth=spec.inline_depth,
            policy=spec.policy,
            regions=spec.regions,
            tech=spec.technology(),
            distance=spec.distance,
            window=spec.window,
            optimize_layout=spec.optimize_layout,
        )

    def to_jsonable(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_jsonable(cls, payload: dict) -> "PointSpec":
        # Points saved while the runner had an engine axis carry an
        # ``engine`` key; every engine gave bit-identical results.
        return cls(**{k: v for k, v in payload.items() if k != "engine"})


@dataclasses.dataclass(frozen=True)
class PointResult:
    """All pipeline outputs for one grid point (JSON round-trippable)."""

    spec: PointSpec
    distance: int
    logical: LogicalEstimate
    braid: BraidSimResult
    epr: EprPipelineResult
    planar: SpaceTimeEstimate
    double_defect: SpaceTimeEstimate

    @property
    def preferred_code(self) -> str:
        """The code with the smaller qubits x time product."""
        if self.planar.spacetime <= self.double_defect.spacetime:
            return self.planar.code_name
        return self.double_defect.code_name

    def to_jsonable(self) -> dict:
        return {
            "spec": self.spec.to_jsonable(),
            "distance": self.distance,
            "logical": dataclasses.asdict(self.logical),
            "braid": dataclasses.asdict(self.braid),
            "epr": dataclasses.asdict(self.epr),
            "planar": dataclasses.asdict(self.planar),
            "double_defect": dataclasses.asdict(self.double_defect),
            "derived": {
                "schedule_to_critical_ratio": (
                    self.braid.schedule_to_critical_ratio
                ),
                "mean_utilization": self.braid.mean_utilization,
                "epr_overhead": self.epr.latency_overhead,
                "preferred_code": self.preferred_code,
            },
        }

    @classmethod
    def from_jsonable(cls, payload: dict) -> "PointResult":
        return cls(
            spec=PointSpec.from_jsonable(payload["spec"]),
            distance=payload["distance"],
            logical=LogicalEstimate(**payload["logical"]),
            braid=BraidSimResult(**payload["braid"]),
            epr=EprPipelineResult(**payload["epr"]),
            planar=SpaceTimeEstimate(**payload["planar"]),
            double_defect=SpaceTimeEstimate(**payload["double_defect"]),
        )


def run_point(
    spec: PointSpec, cache: Optional[StageCache] = None
) -> PointResult:
    """Run (or revive) the full staged pipeline for one grid point."""
    cache = cache if cache is not None else default_cache()
    spec = spec.normalized()

    def compute() -> PointResult:
        tech = spec.technology()
        fe = compute_frontend(cache, spec.app, spec.size, spec.inline_depth)
        distance = (
            spec.distance
            if spec.distance is not None
            else choose_distance(fe.logical.target_pl, tech)
        )
        braid = compute_braid(
            cache,
            spec.app,
            spec.size,
            spec.inline_depth,
            policy=spec.policy,
            distance=distance,
            optimize_layout=spec.optimize_layout,
        )
        epr = compute_epr(
            cache,
            spec.app,
            spec.size,
            spec.inline_depth,
            regions=spec.regions,
            distance=distance,
            window=spec.window,
        )
        accounting = compute_accounting(
            cache,
            spec.app,
            fe.logical.computation_size,
            tech,
            congestion=max(1.0, braid.schedule_to_critical_ratio),
        )
        return PointResult(
            spec=spec,
            distance=distance,
            logical=fe.logical,
            braid=braid,
            epr=epr,
            planar=accounting.planar,
            double_defect=accounting.double_defect,
        )

    return cache.get_or_compute(
        spec.key(),
        compute,
        to_jsonable=lambda result: result.to_jsonable(),
        from_jsonable=PointResult.from_jsonable,
    )
