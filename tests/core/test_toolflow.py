"""Integration tests: the full Figure 4 toolflow end to end, one grid
point through the staged pipeline."""

import pytest

from repro.runner import PointSpec, run_point


@pytest.fixture(scope="module")
def im_result():
    return run_point(PointSpec("im", size=6, policy=6))


class TestToolflow:
    def test_all_stages_present(self, im_result):
        assert im_result.braid.operations == (
            im_result.logical.total_operations
        )
        assert im_result.distance >= 3
        assert im_result.epr.total_pairs > 0

    def test_braid_schedule_bounded_below(self, im_result):
        assert (
            im_result.braid.schedule_length >= im_result.braid.critical_path
        )

    def test_estimates_consistent(self, im_result):
        planar = im_result.planar
        dd = im_result.double_defect
        assert planar.computation_size == dd.computation_size
        assert planar.distance == dd.distance
        assert dd.physical_qubits > planar.physical_qubits

    def test_preferred_code_matches_spacetime(self, im_result):
        planar = im_result.planar
        dd = im_result.double_defect
        expected = (
            planar.code_name
            if planar.spacetime <= dd.spacetime
            else dd.code_name
        )
        assert im_result.preferred_code == expected

    def test_small_instances_prefer_planar(self, im_result):
        # At instance sizes this small, planar must win (Figure 8).
        assert im_result.preferred_code == "planar"

    def test_inline_depth_variant_runs(self):
        result = run_point(
            PointSpec("im", size=6, policy=1, inline_depth=0)
        )
        assert result.logical.total_operations > 0

    @pytest.mark.parametrize("app,size", [("gse", 3), ("sq", 2)])
    def test_serial_apps_run(self, app, size):
        result = run_point(PointSpec(app, size=size, policy=6))
        assert (
            result.braid.schedule_to_critical_ratio
            < 2.0
        ), "serial apps should schedule near the critical path"
