"""Differential tests: the flat Multi-SIMD path vs its object-level loops.

:func:`~repro.arch.simd_schedule` keeps its ready ops in per-gate
groups, :meth:`MultiSimdMachine.epr_pipeline` compiles the schedule
straight into use-cycle and duration lists, and the pipeline core runs
over positional arrays.  The loops they replaced are kept below as
reference code (``reference_*``): the per-cycle regrouping scheduler,
the per-op-dict pipeline with its event-sort peak count, and the
compile through one :class:`EprDemand` per teleport.  Hypothesis
checks the new code against them on random demand lists and random
small Clifford+T circuits, and checks the compile against
:func:`demands_from_schedule`, the public object API.
"""

import dataclasses
import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import build_multisimd_machine, simd_schedule
from repro.frontend import asap_schedule
from repro.frontend.schedule import LogicalSchedule
from repro.network import (
    DEFAULT_TELEPORT_MODEL,
    EprDemand,
    EprPipelineConfig,
    EprPipelineResult,
    demands_from_schedule,
    simulate_epr_pipeline,
)
from repro.partition import circuit_layout
from repro.qasm import Circuit, CircuitDag

from ..qasm.conftest import clifford_t_circuits



# -- reference code: the loops the flat path replaced -----------------------


def reference_simd_schedule(circuit, regions, dag=None):
    if regions < 1:
        raise ValueError(f"regions must be >= 1, got {regions}")
    dag = dag or CircuitDag(circuit)
    remaining = [dag.in_degree(i) for i in range(dag.num_nodes)]
    ready = set(dag.sources())
    cycles = []
    done = 0
    while done < dag.num_nodes:
        groups = {}
        for op in ready:
            groups.setdefault(circuit[op].gate, []).append(op)
        chosen = sorted(
            groups.values(), key=lambda ops: (-len(ops), circuit[ops[0]].gate)
        )[:regions]
        issued = [op for group in chosen for op in sorted(group)]
        if not issued:
            raise RuntimeError("SIMD scheduler stalled with work remaining")
        for op in issued:
            ready.discard(op)
        for op in issued:
            for succ in dag.successors(op):
                remaining[succ] -= 1
                if remaining[succ] == 0:
                    ready.add(succ)
        cycles.append(tuple(issued))
        done += len(issued)
    return LogicalSchedule(circuit, tuple(cycles))


def reference_simulate_epr_pipeline(
    demands, config, factory=(0, 0), ideal_length=None
):
    if ideal_length is None:
        ideal_length = 1 + max((d.use_cycle for d in demands), default=-1)
    ordered = sorted(demands, key=lambda d: (d.use_cycle, d.op_index))
    if not ordered:
        return EprPipelineResult(
            schedule_length=float(ideal_length),
            ideal_length=ideal_length,
            stall_cycles=0.0,
            peak_epr_pairs=0,
            total_pairs=0,
            mean_lifetime=0.0,
        )
    servers = [0.0] * config.bandwidth
    heapq.heapify(servers)
    slip = 0.0
    launch_times = {}
    ready_times = {}
    consume_times = {}
    cursor = 0
    for demand in ordered:
        use_nominal = demand.use_cycle
        while cursor < len(ordered):
            candidate = ordered[cursor]
            if candidate.use_cycle - config.window > use_nominal:
                break
            earliest = max(candidate.use_cycle - config.window + slip, 0.0)
            server_free = heapq.heappop(servers)
            start = max(earliest, server_free)
            duration = config.model.distribution_cycles(
                factory, candidate.endpoint_a, candidate.endpoint_b,
                config.distance,
            )
            finish = start + duration
            heapq.heappush(servers, finish)
            launch_times[candidate.op_index] = start
            ready_times[candidate.op_index] = finish
            cursor += 1
        actual_use = use_nominal + slip
        ready = ready_times[demand.op_index]
        if ready > actual_use:
            slip += ready - actual_use
            actual_use = ready
        consume_times[demand.op_index] = actual_use
    lifetimes = [
        consume_times[d.op_index] - launch_times[d.op_index] for d in ordered
    ]
    peak = reference_peak_concurrent(
        [(launch_times[d.op_index], consume_times[d.op_index]) for d in ordered]
    )
    return EprPipelineResult(
        schedule_length=ideal_length + slip,
        ideal_length=ideal_length,
        stall_cycles=slip,
        peak_epr_pairs=peak,
        total_pairs=len(ordered),
        mean_lifetime=sum(lifetimes) / len(lifetimes),
    )


def reference_peak_concurrent(intervals):
    events = []
    for start, end in intervals:
        events.append((start, 1))
        events.append((max(end, start), -1))
    events.sort(key=lambda e: (e[0], e[1]))
    peak = current = 0
    for _, delta in events:
        current += delta
        peak = max(peak, current)
    return peak


def provisioned_bandwidth(machine, schedule, distance):
    """Swap channels for ~2/3 utilization at the mean demand."""
    demands = demands_from_schedule(
        schedule, machine.placement, factory=machine.epr_factory
    )
    service = sum(
        DEFAULT_TELEPORT_MODEL.distribution_cycles(
            machine.epr_factory, d.endpoint_a, d.endpoint_b, distance
        )
        for d in demands
    )
    return max(4, round(1.5 * service / max(1, schedule.length * distance)))


def reference_epr_pipeline(machine, schedule, distance, window):
    """The compile through per-teleport demand objects."""
    demands = demands_from_schedule(
        schedule, machine.placement, factory=machine.epr_factory
    )
    scaled = [
        dataclasses.replace(d, use_cycle=d.use_cycle * distance)
        for d in demands
    ]
    config = EprPipelineConfig(
        window=window * distance,
        bandwidth=provisioned_bandwidth(machine, schedule, distance),
        distance=distance,
    )
    return reference_simulate_epr_pipeline(
        scaled,
        config,
        factory=machine.epr_factory,
        ideal_length=schedule.length * distance,
    )


# -- strategies --------------------------------------------------------------

routers = st.tuples(st.integers(0, 6), st.integers(0, 6))


@st.composite
def demand_lists(draw):
    """Demands with distinct op indices and many use-cycle ties."""
    count = draw(st.integers(0, 40))
    op_indices = draw(st.permutations(range(count + draw(st.integers(0, 5)))))
    span = draw(st.integers(0, 30))
    return [
        EprDemand(
            op_indices[i], draw(st.integers(0, span)), draw(routers),
            draw(routers),
        )
        for i in range(count)
    ]


# -- the pipeline core -------------------------------------------------------


class TestPipelineCore:
    @settings(max_examples=300, deadline=None)
    @given(
        demands=demand_lists(),
        window=st.integers(0, 50),
        bandwidth=st.integers(1, 8),
        distance=st.integers(1, 9),
        factory=routers,
        ideal_length=st.one_of(st.none(), st.integers(0, 400)),
    )
    def test_matches_reference(
        self, demands, window, bandwidth, distance, factory, ideal_length
    ):
        config = EprPipelineConfig(
            window=window, bandwidth=bandwidth, distance=distance
        )
        assert simulate_epr_pipeline(
            demands, config, factory, ideal_length
        ) == reference_simulate_epr_pipeline(
            demands, config, factory, ideal_length
        )

    def test_end_before_start_at_equal_times(self):
        # One server: the second pair launches the cycle the first is
        # consumed, so the two never overlap.
        demands = [
            EprDemand(0, 0, (0, 2), (0, 0)),
            EprDemand(1, 0, (0, 2), (0, 0)),
        ]
        config = EprPipelineConfig(window=0, bandwidth=1, distance=1)
        result = simulate_epr_pipeline(demands, config)
        assert result.peak_epr_pairs == 1
        assert result == reference_simulate_epr_pipeline(demands, config)


# -- the SIMD scheduler ------------------------------------------------------


class _CyclicDag:
    """A one-node DAG whose node waits on itself: nothing is ever ready."""

    num_nodes = 1

    def in_degree(self, index):
        return 1

    def in_degrees(self):
        return [1]

    def sources(self):
        return []

    def successors(self, index):
        return [0]

    def successor_tuples(self):
        return ((0,),)


class TestSimdSchedule:
    @settings(max_examples=200, deadline=None)
    @given(circuit=clifford_t_circuits(), regions=st.integers(1, 5))
    def test_matches_reference(self, circuit, regions):
        dag = CircuitDag(circuit)
        schedule = simd_schedule(circuit, regions, dag)
        assert schedule == reference_simd_schedule(circuit, regions, dag)
        schedule.validate(dag)

    def test_stall_raises(self):
        c = Circuit()
        c.apply("H", "a")
        with pytest.raises(RuntimeError, match="stalled"):
            simd_schedule(c, 2, _CyclicDag())
        with pytest.raises(RuntimeError, match="stalled"):
            reference_simd_schedule(c, 2, _CyclicDag())


# -- the EPR compile ---------------------------------------------------------


class TestEprCompile:
    @settings(max_examples=120, deadline=None)
    @given(
        circuit=clifford_t_circuits(),
        regions=st.integers(1, 4),
        distance=st.integers(1, 9),
        window=st.one_of(st.integers(0, 50), st.just(10**9)),
        asap=st.booleans(),
    )
    def test_matches_reference(self, circuit, regions, distance, window, asap):
        machine = build_multisimd_machine(
            circuit, circuit_layout(circuit), regions=regions
        )
        schedule = asap_schedule(circuit) if asap else machine.schedule()
        assert machine.epr_pipeline(
            schedule, distance, window=window
        ) == reference_epr_pipeline(machine, schedule, distance, window)

    @settings(max_examples=120, deadline=None)
    @given(
        circuit=clifford_t_circuits(),
        regions=st.integers(1, 4),
        distance=st.integers(1, 9),
        window=st.integers(0, 50),
    )
    def test_equals_the_object_api(self, circuit, regions, distance, window):
        # The compile is simulate_epr_pipeline over demands_from_schedule,
        # scaled by d, at the provisioned bandwidth.
        machine = build_multisimd_machine(
            circuit, circuit_layout(circuit), regions=regions
        )
        schedule = machine.schedule()
        demands = [
            dataclasses.replace(d, use_cycle=d.use_cycle * distance)
            for d in demands_from_schedule(
                schedule, machine.placement, factory=machine.epr_factory
            )
        ]
        config = EprPipelineConfig(
            window=window * distance,
            bandwidth=provisioned_bandwidth(machine, schedule, distance),
            distance=distance,
        )
        assert machine.epr_pipeline(
            schedule, distance, window=window
        ) == simulate_epr_pipeline(
            demands,
            config,
            factory=machine.epr_factory,
            ideal_length=schedule.length * distance,
        )

    def test_rejects_bad_inputs(self):
        c = Circuit()
        c.apply("CNOT", "a", "b")
        c.apply("T", "a")
        machine = build_multisimd_machine(c, circuit_layout(c), regions=2)
        schedule = machine.schedule()
        with pytest.raises(ValueError, match="distance"):
            machine.epr_pipeline(schedule, 0)
        with pytest.raises(ValueError, match="window"):
            machine.epr_pipeline(schedule, 3, window=-1)
        with pytest.raises(TypeError):
            machine.epr_pipeline(schedule, 3, bandwidth=4)
