"""Integration tests: the full Figure 4 toolflow end to end."""

import pytest

from repro.core import run_toolflow
from repro.runner import StageCache
from repro.runner.stages import compute_braid_plan
from repro.tech import INTERMEDIATE


@pytest.fixture(scope="module")
def im_result():
    return run_toolflow("im", size=6, tech=INTERMEDIATE, policy=6)


class TestToolflow:
    def test_all_stages_present(self, im_result):
        assert im_result.logical.total_operations == len(im_result.circuit)
        assert im_result.distance >= 3
        assert im_result.braid_result.operations == len(im_result.circuit)
        assert im_result.epr_result.total_pairs > 0

    def test_braid_schedule_bounded_below(self, im_result):
        assert (
            im_result.braid_result.schedule_length
            >= im_result.braid_result.critical_path
        )

    def test_estimates_consistent(self, im_result):
        planar = im_result.planar_estimate
        dd = im_result.double_defect_estimate
        assert planar.computation_size == dd.computation_size
        assert planar.distance == dd.distance
        assert dd.physical_qubits > planar.physical_qubits

    def test_preferred_code_matches_spacetime(self, im_result):
        planar = im_result.planar_estimate
        dd = im_result.double_defect_estimate
        expected = (
            planar.code_name
            if planar.spacetime <= dd.spacetime
            else dd.code_name
        )
        assert im_result.preferred_code == expected

    def test_small_instances_prefer_planar(self, im_result):
        # At instance sizes this small, planar must win (Figure 8).
        assert im_result.preferred_code == "planar"

    def test_machines_share_one_placement(self, im_result):
        # Both machines map the same interaction-aware layout: the
        # tiled one moves it in by the factory ring.
        simd = im_result.simd_machine.placement
        tiled = im_result.tiled_machine.placement
        assert tiled.positions == {
            q: (r + 1, c + 1) for q, (r, c) in simd.positions.items()
        }

    def test_tiled_machine_is_the_simulated_one(self):
        # The reported machine carries the placement the braids ran on.
        cache = StageCache()
        result = run_toolflow("sq", size=2, policy=6, cache=cache)
        plan = compute_braid_plan(
            cache, "sq", 2, optimize_layout=True, distance=result.distance
        )
        assert cache.stats.computed("braid_plan") == 1
        assert result.tiled_machine.placement == plan.placement
        assert result.tiled_machine.grid == plan.placement.grid

    def test_inline_depth_variant_runs(self):
        result = run_toolflow(
            "im", size=6, tech=INTERMEDIATE, policy=1, inline_depth=0
        )
        assert result.logical.total_operations > 0

    @pytest.mark.parametrize("app,size", [("gse", 3), ("sq", 2)])
    def test_serial_apps_run(self, app, size):
        result = run_toolflow(app, size=size, tech=INTERMEDIATE, policy=6)
        assert (
            result.braid_result.schedule_to_critical_ratio
            < 2.0
        ), "serial apps should schedule near the critical path"
