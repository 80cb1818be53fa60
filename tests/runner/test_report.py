"""Report rendering from cached grid points."""

import shutil

import pytest

from repro.frontend.estimate import LogicalEstimate
from repro.network.braidsim import BraidSimResult
from repro.network.epr import EprPipelineResult
from repro.core.resources import SpaceTimeEstimate
from repro.runner import StageCache
from repro.runner.cli import main
from repro.runner.keys import StageKey
from repro.runner.report import load_points, render_fig6, render_table2
from repro.runner.stages import PointResult, PointSpec


def _point(app="sq", size=2, policy=6, distance=3, ratio=1.5, ops=100):
    braid = BraidSimResult(
        schedule_length=int(ratio * 100),
        critical_path=100,
        mean_utilization=0.05,
        operations=ops,
        braids=ops,
        adaptive_routes=0,
        drops=0,
    )
    logical = LogicalEstimate(
        name=f"{app}[{size}]",
        num_qubits=10,
        total_operations=ops,
        t_count=10,
        two_qubit_count=20,
        measurement_count=1,
        critical_path=50,
        parallelism_factor=2.0,
        gate_histogram={"H": ops},
        target_pl=1e-6,
    )
    epr = EprPipelineResult(
        schedule_length=100.0,
        ideal_length=100,
        stall_cycles=0.0,
        peak_epr_pairs=2,
        total_pairs=10,
        mean_lifetime=3.0,
    )
    est = SpaceTimeEstimate(
        code_name="planar",
        computation_size=1e6,
        distance=distance,
        logical_qubits=10,
        physical_qubits=1e3,
        cycles=1e4,
        seconds=1e-2,
    )
    return PointResult(
        spec=PointSpec(app=app, size=size, policy=policy, distance=distance),
        distance=distance,
        logical=logical,
        braid=braid,
        epr=epr,
        planar=est,
        double_defect=est,
    )


class TestRenderFig6:
    def test_rows_labeled_by_app_and_size(self):
        out = render_fig6([_point(policy=0), _point(policy=6)])
        assert "sq[2]" in out

    def test_heterogeneous_sweeps_stay_separate(self):
        """Points from different sweeps (size/distance) must not
        silently overwrite one another's policies."""
        mixed = [
            _point(size=2, distance=3, policy=6, ratio=1.2),
            _point(size=3, distance=5, policy=6, ratio=1.8),
        ]
        out = render_fig6(mixed)
        assert "sq[2]" in out and "sq[3]" in out
        assert "1.20" in out and "1.80" in out

    def test_same_app_size_different_distance_disambiguated(self):
        mixed = [
            _point(size=2, distance=3, policy=6),
            _point(size=2, distance=5, policy=6),
        ]
        out = render_fig6(mixed)
        assert "d=3" in out and "d=5" in out

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="Figure 6"):
            render_fig6([])


class TestRenderTable2:
    def test_largest_instance_wins(self):
        out = render_table2(
            [_point(size=2, ops=100), _point(size=3, ops=500)]
        )
        assert "Square Root" in out

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="Table 2"):
            render_table2([])


class TestOneSweepTwoSources:
    """A sweep renders the same from its results file and from its
    cache, whatever order the cache's digest files list the points in;
    a point cached under two keys renders once, and two cached points
    of one spec that disagree are an error."""

    @pytest.fixture(scope="class")
    def swept(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("sweep")
        argv = [
            "sweep", "--apps", "sq,gse", "--size", "small",
            "--policies", "0-2", "--distance", "3",
            "--cache-dir", str(root / "cache"),
            "--out", str(root / "sweep.json"),
        ]
        assert main(argv) == 0
        return root

    @staticmethod
    def _report(capsys, *argv):
        capsys.readouterr()
        code = main(["report", *argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def _copy_point(cache_dir, edit=None):
        """Store one cached point again under another key."""
        cache = StageCache(cache_dir)
        payload = next(cache.iter_payloads("point"))["value"]
        if edit is not None:
            edit(payload)
        cache.store_payload(StageKey.make("point", copy=1), payload)
        return PointSpec.from_jsonable(payload["spec"])

    @pytest.mark.parametrize("figure", ("fig6", "table2"))
    def test_results_and_cache_render_alike(self, swept, capsys, figure):
        code, from_results, _ = self._report(
            capsys, figure, "--results", str(swept / "sweep.json")
        )
        assert code == 0
        code, from_cache, _ = self._report(
            capsys, figure, "--cache-dir", str(swept / "cache")
        )
        assert code == 0
        assert from_cache == from_results
        if figure == "fig6":
            assert from_cache.index("gse[4]") < from_cache.index("sq[3]")

    def test_equal_duplicate_renders_once(self, swept, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        shutil.copytree(swept / "cache", cache_dir)
        before = load_points(StageCache(cache_dir))
        self._copy_point(cache_dir)
        assert load_points(StageCache(cache_dir)) == before
        assert len(before) == 6
        code, out, _ = self._report(
            capsys, "fig6", "--cache-dir", str(cache_dir)
        )
        assert code == 0
        _, expected, _ = self._report(
            capsys, "fig6", "--results", str(swept / "sweep.json")
        )
        assert out == expected

    def test_conflicting_duplicate_exits_2(self, swept, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        shutil.copytree(swept / "cache", cache_dir)

        def slower(payload):
            payload["braid"]["schedule_length"] += 1

        spec = self._copy_point(cache_dir, edit=slower)
        for figure in ("fig6", "table2"):
            code, out, err = self._report(
                capsys, figure, "--cache-dir", str(cache_dir)
            )
            assert code == 2
            assert out == ""
            assert "conflicting" in err and repr(spec) in err
