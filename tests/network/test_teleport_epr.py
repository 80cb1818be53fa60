"""Tests for teleportation costs and the pipelined EPR distributor."""

import pytest

from repro.frontend import asap_schedule
from repro.network import (
    DEFAULT_TELEPORT_MODEL,
    EprDemand,
    EprPipelineConfig,
    TeleportModel,
    demands_from_schedule,
    simulate_epr_pipeline,
)
from repro.partition import GridShape, naive_layout
from repro.qasm import Circuit


class TestTeleportModel:
    def test_teleport_is_distance_independent(self):
        m = DEFAULT_TELEPORT_MODEL
        near = m.communication_cycles((0, 0), (0, 1), (0, 2), 9, prefetched=True)
        far = m.communication_cycles((0, 0), (5, 5), (9, 9), 9, prefetched=True)
        assert near == far == m.teleport_cycles

    def test_unprefetched_pays_distribution(self):
        m = DEFAULT_TELEPORT_MODEL
        cost = m.communication_cycles((0, 0), (0, 3), (0, 1), 9, prefetched=False)
        assert cost == pytest.approx(3 * 9 + m.teleport_cycles)

    def test_distribution_scales_with_distance_and_hops(self):
        m = DEFAULT_TELEPORT_MODEL
        assert m.distribution_cycles((0, 0), (0, 2), (0, 0), 9) == 18
        assert m.distribution_cycles((0, 0), (0, 2), (0, 0), 18) == 36

    def test_slower_endpoint_binds(self):
        m = DEFAULT_TELEPORT_MODEL
        assert m.distribution_cycles((0, 0), (0, 1), (4, 4), 2) == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            TeleportModel(teleport_cycles=0)
        with pytest.raises(ValueError):
            DEFAULT_TELEPORT_MODEL.distribution_cycles((0, 0), (0, 1), (0, 1), 0)
        with pytest.raises(ValueError):
            DEFAULT_TELEPORT_MODEL.swap_chain_cycles(2, 0)

    def test_distribution_is_the_swap_chain_of_the_farther_half(self):
        m = TeleportModel(swap_cycles_per_tile=1.5)
        assert m.distribution_cycles((1, 1), (0, 1), (4, 3), 3) == (
            m.swap_chain_cycles(5, 3)
        ) == 22.5
        # A pair made at its endpoint still takes one cycle.
        assert m.swap_chain_cycles(0, 9) == 1.0


def _simple_demands(count: int, spacing: int, hops: int = 2, offset: int = 0):
    return [
        EprDemand(i, offset + i * spacing, (0, hops), (0, 0))
        for i in range(count)
    ]


class TestEprPipeline:
    def test_empty_demands(self):
        result = simulate_epr_pipeline([], EprPipelineConfig())
        assert result.total_pairs == 0
        assert result.stall_cycles == 0.0

    def test_ample_window_no_stalls(self):
        # Sparse demand, big window, and enough lead time before the
        # first use (a demand at cycle 0 can never be prefetched).
        demands = _simple_demands(10, spacing=50, offset=500)
        config = EprPipelineConfig(window=200, bandwidth=4, distance=9)
        result = simulate_epr_pipeline(demands, config)
        assert result.stall_cycles == 0.0
        assert result.latency_overhead == 0.0

    def test_zero_window_stalls(self):
        demands = _simple_demands(10, spacing=1)
        config = EprPipelineConfig(window=0, bandwidth=4, distance=9)
        result = simulate_epr_pipeline(demands, config)
        assert result.stall_cycles > 0

    def test_larger_window_reduces_stalls(self):
        demands = _simple_demands(50, spacing=2)
        stalls = []
        for window in (0, 8, 64, 512):
            config = EprPipelineConfig(window=window, bandwidth=2, distance=9)
            stalls.append(simulate_epr_pipeline(demands, config).stall_cycles)
        assert stalls[0] >= stalls[1] >= stalls[2] >= stalls[3]

    def test_larger_window_raises_peak_occupancy(self):
        demands = _simple_demands(60, spacing=4)
        small = simulate_epr_pipeline(
            demands, EprPipelineConfig(window=4, bandwidth=8, distance=3)
        )
        huge = simulate_epr_pipeline(
            demands, EprPipelineConfig(window=100_000, bandwidth=8, distance=3)
        )
        assert huge.peak_epr_pairs >= small.peak_epr_pairs
        assert huge.peak_epr_pairs > 1

    def test_peak_bounded_by_total(self):
        demands = _simple_demands(30, spacing=3)
        result = simulate_epr_pipeline(
            demands, EprPipelineConfig(window=1000, bandwidth=4)
        )
        assert result.peak_epr_pairs <= result.total_pairs == 30
        assert result.peak_epr_qubits == 2 * result.peak_epr_pairs

    def test_bandwidth_relieves_stalls(self):
        demands = _simple_demands(40, spacing=1)
        narrow = simulate_epr_pipeline(
            demands, EprPipelineConfig(window=16, bandwidth=1, distance=9)
        )
        wide = simulate_epr_pipeline(
            demands, EprPipelineConfig(window=16, bandwidth=16, distance=9)
        )
        assert wide.stall_cycles <= narrow.stall_cycles

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EprPipelineConfig(window=-1)
        with pytest.raises(ValueError):
            EprPipelineConfig(bandwidth=0)
        with pytest.raises(ValueError):
            EprPipelineConfig(distance=0)

    @pytest.mark.parametrize("second_op", (1, 0))
    def test_demands_sharing_an_op_index_both_count(self, second_op):
        # One server: the far pair (15 cycles) launches at 0, the near one
        # (3 cycles) at 15.  Each demand is its own pair, whatever its
        # op_index, so lifetimes are 15 and 3 and the pairs never overlap.
        demands = [
            EprDemand(0, 0, (0, 5), (0, 0)),
            EprDemand(second_op, 0, (0, 1), (0, 0)),
        ]
        config = EprPipelineConfig(window=0, bandwidth=1, distance=3)
        result = simulate_epr_pipeline(demands, config)
        assert result.peak_epr_pairs == 1
        assert result.mean_lifetime == 9.0
        assert result.stall_cycles == 18.0
        assert result.total_pairs == 2


class TestDemandsFromSchedule:
    def test_extracts_teleports(self):
        c = Circuit(qubits=["a", "b", "c"])
        c.apply("H", "a")          # local: no demand
        c.apply("CNOT", "a", "b")  # teleport
        c.apply("T", "c")          # magic state delivery
        placement = naive_layout(["a", "b", "c"], GridShape(2, 2))
        schedule = asap_schedule(c)
        demands = demands_from_schedule(schedule, placement)
        assert len(demands) == 2
        kinds = {d.op_index for d in demands}
        assert kinds == {1, 2}

    def test_use_cycles_match_schedule(self):
        c = Circuit(qubits=["a", "b"])
        c.apply("CNOT", "a", "b")
        c.apply("CNOT", "a", "b")
        placement = naive_layout(["a", "b"], GridShape(1, 2))
        demands = demands_from_schedule(asap_schedule(c), placement)
        assert [d.use_cycle for d in demands] == [0, 1]
