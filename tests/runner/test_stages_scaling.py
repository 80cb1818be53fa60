"""The ``scaling`` / ``scaling_calib`` stages and their cache behavior."""

import dataclasses
import sys

import pytest

from repro.apps import get_app
from repro.apps.scaling import (
    calibrate,
    calibration_sizes,
    fit_scaling_model,
)
from repro.frontend import decompose_circuit, estimate_circuit, flatten
from repro.core.calibration import calibrate_app
from repro.runner import StageCache, compute_scaling
from repro.runner.stages import (
    compute_accounting,
    compute_frontend,
    run_point,
    scaling_key,
    PointSpec,
)
from repro.tech import INTERMEDIATE

APP = "sq"  # smallest calibration family; keeps these tests fast


def chain_calibration(app, sizes):
    """The fit from instances flattened, lowered and then estimated."""
    spec = get_app(app)
    estimates = []
    for size in sizes:
        circuit = decompose_circuit(flatten(spec.scaling_program(size)))
        circuit.name = f"{spec.name}[scaling:{size}]"
        estimates.append(estimate_circuit(circuit))
    return fit_scaling_model(spec.name, estimates)


@pytest.fixture
def no_circuits(monkeypatch):
    """Make flattening or lowering fail under any name a module holds."""

    def refuse(*args, **kwargs):
        raise AssertionError("calibration builds no circuit")

    real = {flatten, decompose_circuit}
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro."):
            for name, value in list(vars(module).items()):
                if callable(value) and value in real:
                    monkeypatch.setattr(module, name, refuse)


class TestComputeScaling:
    @pytest.fixture(scope="class")
    def cache(self):
        return StageCache()

    def test_matches_direct_calibration(self, cache):
        staged = compute_scaling(cache, APP)
        direct = calibrate(APP)
        assert staged == direct
        assert staged == chain_calibration(APP, calibration_sizes(APP))

    def test_builds_no_circuit(self, no_circuits):
        sizes = (2, 3)
        expected = calibrate(APP, sizes)
        assert compute_scaling(StageCache(), APP, sizes) == expected
        # The simulated-instance path still flattens, and fails here.
        with pytest.raises(AssertionError, match="builds no circuit"):
            get_app(APP).circuit(2)

    def test_fit_and_compiles_are_cached(self, cache):
        compute_scaling(cache, APP)
        misses_before = dict(cache.stats.misses)
        compute_scaling(cache, APP)
        assert cache.stats.misses == misses_before  # everything reused
        assert cache.stats.hits.get("scaling", 0) >= 1

    def test_overlapping_sizes_share_per_size_compiles(self, cache):
        compute_scaling(cache, APP)
        calib_misses = cache.stats.misses.get("scaling_calib", 0)
        subset = calibration_sizes(APP)[:2]
        compute_scaling(cache, APP, sizes=subset)
        # A new fit (different key) but zero new calibration compiles.
        assert cache.stats.misses.get("scaling_calib", 0) == calib_misses
        assert cache.stats.misses.get("scaling", 0) >= 2

    def test_key_includes_resolved_sizes(self):
        default = scaling_key(APP)
        explicit = scaling_key(APP, calibration_sizes(APP))
        assert default == explicit
        assert default != scaling_key(APP, calibration_sizes(APP)[:2])

    def test_disk_round_trip(self, tmp_path):
        disk = tmp_path / "cache"
        first = StageCache(disk)
        model = compute_scaling(first, APP)
        revived_cache = StageCache(disk)
        revived = compute_scaling(revived_cache, APP)
        assert revived == model
        assert revived_cache.stats.disk_hits.get("scaling") == 1
        # The fit revived whole; no per-size compile was touched.
        assert revived_cache.stats.misses.get("scaling_calib", 0) == 0


class TestScalingInThePipeline:
    def test_accounting_reuses_one_scaling_fit(self):
        cache = StageCache()
        for congestion in (1.0, 1.5, 2.0):
            compute_accounting(
                cache, APP, 1e10, INTERMEDIATE, congestion=congestion
            )
        assert cache.stats.misses.get("scaling", 0) == 1
        assert cache.stats.misses.get("accounting", 0) == 3

    def test_scaling_self_time_recorded(self):
        cache = StageCache()
        run_point(PointSpec(app=APP, size=2, distance=3), cache)
        seconds = cache.stats.seconds
        assert "scaling" in seconds
        assert "scaling_calib" in seconds
        # Self-time attribution: the accounting row no longer absorbs
        # the calibration compiles.
        assert seconds["accounting"] < seconds["scaling_calib"] + 1.0
        assert "scaling" in cache.stats.summary()

    def test_calibrate_app_shares_the_stage_cache(self):
        cache = StageCache()
        compute_scaling(cache, APP)
        misses = dict(cache.stats.misses)
        cal = calibrate_app(APP, policy=6, distance=3, cache=cache)
        assert cache.stats.misses.get("scaling", 0) == misses.get(
            "scaling", 0
        )  # the fit was served from the stage cache
        assert cal.scaling == compute_scaling(cache, APP)

    def test_inline_variant_fits_its_own_frontends(self):
        # A semi-inlined variant is fitted from its two largest
        # calibration frontends, compiled through the stage cache.
        cache = StageCache()
        cal = calibrate_app(APP, inline_depth=0, distance=3, cache=cache)
        frontends = cache.stats.computed("frontend")
        estimates = [
            compute_frontend(cache, APP, size, 0).logical
            for size in calibration_sizes(APP)[-2:]
        ]
        assert cache.stats.computed("frontend") == frontends
        assert cal.scaling == fit_scaling_model(f"{APP}-inline0", estimates)
        assert cal.scaling.calibration_ops == tuple(
            e.total_operations for e in estimates
        )
        assert cache.stats.computed("scaling") == 0

    def test_point_results_unchanged_by_staging(self):
        # The staged fit must be numerically identical to the direct
        # calibration the accounting stage used before.
        cache = StageCache()
        point = run_point(PointSpec(app=APP, size=2, distance=3), cache)
        direct = calibrate(APP)
        staged = compute_scaling(cache, APP)
        assert staged == direct
        assert point.planar.spacetime > 0
        assert (
            dataclasses.asdict(staged)["qubits_vs_ops"]
            == dataclasses.asdict(direct)["qubits_vs_ops"]
        )
