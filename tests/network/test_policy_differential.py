"""Differential harness: the flat engine vs the seed loop, event by event.

The flat engine (:mod:`repro.network.braidsim`) and the preserved seed
loop (:mod:`repro.network._braidsim_reference`) implement the same
semantics through very different code paths (a per-cycle event
calendar, link bitmasks and epoch early-outs vs a tuple event heap and
a route search per attempt), so Hypothesis-generated circuits run
through both and must agree not just on the final counters but on the
*entire event order* — every successful segment open, every close,
every op completion, at the same cycle in the same sequence.

The flat engine records its own trace: with ``trace`` set to a list,
its loop appends ``("open", t, op, segment)`` for every successful
open, ``("close", t, op, segment)`` for every close and ``("done", t,
op)`` for every completion.  The seed loop's trace comes from a mixin
that hooks the three methods making those decisions (``_try_open``
success, ``_close_segment``, ``_complete``).  Every policy but 7 runs
on both.  Policy 7 issues on reserved cycles the seed loop cannot
follow, so the fixed scenarios check it against its planner instead
(simulated length == reservation makespan, no drops, no adaptive
routes); its property tests live in ``test_policies_sched.py``.

Zero-cycle local ops pin the loop's timestep contract: an event
scheduled for the current cycle forms a new timestep at that cycle,
after the current one's issue rounds, exactly as in the seed loop.

Beyond the small random plans, the sq[2] and gse[3] plans of the staged
pipeline are traced in full (about 1k and 13k ops), with their real
local-op latencies and with zero-cycle locals.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import build_tiled_machine
from repro.network import (
    BraidMesh,
    BraidSimConfig,
    ReferenceBraidSimulator,
    build_reservation,
)
from repro.network.braidsim import BraidSimulator, simulate_plan
from repro.network.events import build_tasks
from repro.network.plan import BraidPlan
from repro.network.policies import ALL_POLICIES, POLICIES
from repro.partition import GridShape, naive_layout
from repro.qasm import Circuit
from repro.runner import StageCache
from repro.runner.stages import compute_frontend, compute_layout

ALL_POLICY_NUMBERS = tuple(p.number for p in ALL_POLICIES)
SEED_POLICY_NUMBERS = tuple(
    p.number for p in ALL_POLICIES if p.family != "reservation"
)

_MESHES = ((1, 2), (2, 2), (2, 3), (3, 3))

# Golden-grid instances small enough to trace in full at d=3.
_APPS = (("sq", 2), ("gse", 3))


@st.composite
def small_plans(draw):
    """A small random circuit compiled to a BraidPlan on a tiny mesh."""
    rows, cols = draw(st.sampled_from(_MESHES))
    n = draw(st.integers(2, min(6, rows * cols)))
    qubits = [f"q{i}" for i in range(n)]
    with_factory = draw(st.booleans())
    factories = ((rows, 0),) if with_factory else ()
    gates = ("CNOT", "H", "X") + (("T",) if with_factory else ())
    circuit = Circuit(qubits=qubits)
    for _ in range(draw(st.integers(1, 12))):
        gate = draw(st.sampled_from(gates))
        i = draw(st.integers(0, n - 1))
        if gate == "CNOT":
            j = draw(st.integers(0, n - 2))
            if j >= i:
                j += 1
            circuit.apply("CNOT", qubits[i], qubits[j])
        else:
            circuit.apply(gate, qubits[i])
    return BraidPlan.build(
        circuit,
        naive_layout(qubits, GridShape(rows, cols)),
        BraidMesh(rows, cols),
        distance=3,
        factory_routers=factories,
    )


class _TraceMixin:
    """Record the seed loop's scheduling decisions as (kind, time, op[,
    segment]), in the flat engine's ``trace`` format, by hooking the
    three methods that make them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trace = []

    def _try_open(self, op, time):
        segment = self._segment_index[op]
        opened = super()._try_open(op, time)
        if opened:
            self.trace.append(("open", time, op, segment))
        return opened

    def _close_segment(self, op, time):
        self.trace.append(("close", time, op, self._segment_index[op]))
        super()._close_segment(op, time)

    def _complete(self, op, time):
        self.trace.append(("done", time, op))
        super()._complete(op, time)


class _TracingFlat(BraidSimulator):
    """The flat engine with its own event trace switched on."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trace = []


class _TracingSeed(_TraceMixin, ReferenceBraidSimulator):
    pass


def _traced_run(cls, plan, policy, config=None):
    sim = cls(policy=POLICIES[policy], plan=plan, config=config)
    return sim.run(), sim.trace


def _traced_seed_run(plan, policy, config=None):
    sim = _TracingSeed(
        plan.circuit,
        plan.placement,
        BraidMesh(plan.rows, plan.cols),
        POLICIES[policy],
        plan.distance,
        code=plan.code,
        factory_routers=plan.factory_routers,
        config=config,
        dag=plan.dag,
    )
    return sim.run(), sim.trace


def _zero_cycle_tasks(plan):
    """The plan's tasks rebuilt with every local op taking 0 cycles."""
    return [
        task if task.is_braid else dataclasses.replace(task, local_cycles=0)
        for task in build_tasks(
            plan.circuit,
            plan.placement,
            BraidMesh(plan.rows, plan.cols),
            plan.code,
            plan.distance,
            plan.factory_routers,
        )
    ]


def _assert_zero_cycle_locals_match(plan, policy, config=None):
    """Flat vs the seed loop on tasks whose local ops finish at once."""
    tasks = _zero_cycle_tasks(plan)
    zero_plan = BraidPlan.build(
        plan.circuit,
        plan.placement,
        BraidMesh(plan.rows, plan.cols),
        plan.code,
        plan.distance,
        plan.factory_routers,
        plan.max_detour,
        dag=plan.dag,
        tasks=tasks,
    )
    flat = _TracingFlat(zero_plan, POLICIES[policy], config)
    seed = _TracingSeed(
        plan.circuit,
        plan.placement,
        BraidMesh(plan.rows, plan.cols),
        POLICIES[policy],
        plan.distance,
        code=plan.code,
        factory_routers=plan.factory_routers,
        config=config,
        dag=plan.dag,
        tasks=tasks,
    )
    assert flat.run() == seed.run()
    assert flat.trace == seed.trace


def _assert_matches_oracle(plan, policy, config=None):
    """Flat vs the seed loop (results and traces), or Policy 7 vs its
    planner."""
    flat_result, flat_trace = _traced_run(
        _TracingFlat, plan, policy, config
    )
    if POLICIES[policy].family == "reservation":
        schedule = build_reservation(plan)
        assert flat_result.schedule_length == schedule.makespan
        assert flat_result.drops == flat_result.adaptive_routes == 0
        return flat_result, flat_trace
    seed_result, seed_trace = _traced_seed_run(plan, policy, config)
    assert flat_result == seed_result, (
        f"policy {policy}: flat result diverged from the seed loop"
    )
    assert flat_trace == seed_trace, (
        f"policy {policy}: engines agree on totals but took different "
        "scheduling decisions"
    )
    return flat_result, flat_trace


def _wide_plan():
    """8 simultaneously-ready crossing CNOTs: wide issue rounds."""
    qubits = [f"q{i}" for i in range(16)]
    placement = naive_layout(qubits, GridShape(4, 4))
    circuit = Circuit(qubits=qubits)
    for i in range(8):
        circuit.apply("CNOT", f"q{i}", f"q{15 - i}")
    for i in range(8):
        circuit.apply("CNOT", f"q{i}", f"q{(i + 8) % 16}")
    return BraidPlan.build(
        circuit, placement, BraidMesh(4, 4), distance=3
    )


class TestDifferentialHypothesis:
    """Random circuits: flat and the seed loop make identical decisions."""

    @pytest.mark.parametrize("policy", SEED_POLICY_NUMBERS)
    @given(plan=small_plans())
    @settings(max_examples=25, deadline=None)
    def test_flat_vs_seed_traces(self, policy, plan):
        result, trace = _assert_matches_oracle(plan, policy)
        assert result.operations == plan.num_ops
        done = [entry for entry in trace if entry[0] == "done"]
        assert len(done) == plan.num_ops

    @pytest.mark.parametrize("policy", SEED_POLICY_NUMBERS)
    @given(plan=small_plans())
    @settings(max_examples=15, deadline=None)
    def test_flat_vs_seed_under_contention_config(self, policy, plan):
        config = BraidSimConfig(adaptive_timeout=1, drop_timeout=3)
        _assert_matches_oracle(plan, policy, config)

    @pytest.mark.parametrize("policy", SEED_POLICY_NUMBERS)
    @given(plan=small_plans())
    @settings(max_examples=25, deadline=None)
    def test_zero_cycle_locals_form_new_timesteps(self, policy, plan):
        _assert_zero_cycle_locals_match(plan, policy)

    @pytest.mark.parametrize("policy", SEED_POLICY_NUMBERS)
    @given(plan=small_plans())
    @settings(max_examples=15, deadline=None)
    def test_zero_cycle_locals_under_contention_config(self, policy, plan):
        # Retry wakes and drops then fall on cycles that zero-cycle
        # completions also reach.
        config = BraidSimConfig(adaptive_timeout=1, drop_timeout=3)
        _assert_zero_cycle_locals_match(plan, policy, config)


class TestDifferentialFixed:
    """Deterministic scenarios covering every policy against its oracle."""

    @pytest.mark.parametrize("policy", ALL_POLICY_NUMBERS)
    def test_wide_batched_rounds(self, policy):
        plan = _wide_plan()
        result, _ = _assert_matches_oracle(plan, policy)
        assert result.operations == 16

    @pytest.mark.parametrize("policy", ALL_POLICY_NUMBERS)
    def test_factories_and_locals(self, policy):
        qubits = [f"q{i}" for i in range(6)]
        circuit = Circuit(qubits=qubits)
        for i in range(6):
            circuit.apply("T", f"q{i}")
        for i in range(5):
            circuit.apply("CNOT", f"q{i}", f"q{i + 1}")
        circuit.apply("H", "q0")
        plan = BraidPlan.build(
            circuit,
            naive_layout(qubits, GridShape(2, 3)),
            BraidMesh(2, 3),
            distance=3,
            factory_routers=((2, 0), (2, 3)),
        )
        _assert_matches_oracle(plan, policy)

    @pytest.mark.parametrize("policy", SEED_POLICY_NUMBERS)
    def test_zero_cycle_local_chain(self, policy):
        # Two zero-cycle locals in a row gate braid 2, whose route
        # crosses braid 3's.  The second local finishes in a new
        # timestep at cycle 0, after braid 3's first issue round.
        qubits = [f"q{i}" for i in range(4)]
        circuit = Circuit(qubits=qubits)
        circuit.apply("H", "q0")
        circuit.apply("X", "q0")
        circuit.apply("CNOT", "q0", "q2")
        circuit.apply("CNOT", "q1", "q3")
        plan = BraidPlan.build(
            circuit,
            naive_layout(qubits, GridShape(1, 4)),
            BraidMesh(1, 4),
            distance=3,
        )
        _assert_zero_cycle_locals_match(plan, policy)

    @pytest.mark.parametrize("policy", ALL_POLICY_NUMBERS)
    def test_max_cycles_below_schedule_raises(self, policy):
        plan = _wide_plan()
        length = simulate_plan(plan, policy).schedule_length
        config = BraidSimConfig(max_cycles=length - 1)
        with pytest.raises(RuntimeError, match="likely livelock"):
            _traced_run(_TracingFlat, plan, policy, config)
        if POLICIES[policy].family != "reservation":
            with pytest.raises(RuntimeError, match="likely livelock"):
                _traced_seed_run(plan, policy, config)
        # At the schedule length itself the guard stays quiet.
        config = BraidSimConfig(max_cycles=length)
        assert _traced_run(_TracingFlat, plan, policy, config)[0] == (
            simulate_plan(plan, policy)
        )

    @pytest.mark.parametrize("policy", ALL_POLICY_NUMBERS)
    def test_engine_selector_agrees_with_traced_run(self, policy):
        plan = _wide_plan()
        traced, _ = _traced_run(_TracingFlat, plan, policy)
        assert simulate_plan(plan, policy, engine="flat") == traced
        if POLICIES[policy].family == "reservation":
            with pytest.raises(ValueError, match="check_sched"):
                simulate_plan(plan, policy, engine="reference")
        else:
            assert simulate_plan(plan, policy, engine="reference") == traced
        with pytest.raises(KeyError, match="unknown braid engine"):
            simulate_plan(plan, policy, engine="turbo")


class TestDifferentialApplications:
    """Real application plans from the staged pipeline: the same event
    order as the seed loop, thousands of events long."""

    @pytest.fixture(scope="class")
    def plans(self):
        cache = StageCache()
        plans = {}
        for app, size in _APPS:
            fe = compute_frontend(cache, app, size, None)
            machine = build_tiled_machine(
                fe.circuit, compute_layout(cache, app, size, None, True)
            )
            plans[app, size] = machine.plan(3, dag=fe.dag)
        return plans

    @pytest.mark.parametrize("policy", ALL_POLICY_NUMBERS)
    @pytest.mark.parametrize("app,size", _APPS)
    def test_app_traces_match(self, plans, app, size, policy):
        plan = plans[app, size]
        result, trace = _assert_matches_oracle(plan, policy)
        assert result.operations == plan.num_ops
        done = [entry for entry in trace if entry[0] == "done"]
        assert len(done) == plan.num_ops

    @pytest.mark.parametrize("policy", SEED_POLICY_NUMBERS)
    @pytest.mark.parametrize("app,size", _APPS)
    def test_app_zero_cycle_locals(self, plans, app, size, policy):
        _assert_zero_cycle_locals_match(plans[app, size], policy)


class TestFlatDeterminism:
    """The flat engine replays identically, Policy 7 included."""

    @pytest.mark.parametrize("policy", ALL_POLICY_NUMBERS)
    @given(plan=small_plans())
    @settings(max_examples=10, deadline=None)
    def test_flat_trace_is_deterministic(self, policy, plan):
        first = _traced_run(_TracingFlat, plan, policy)
        second = _traced_run(_TracingFlat, plan, policy)
        assert first == second

    def test_nine_policies_registered(self):
        assert ALL_POLICY_NUMBERS == tuple(range(9))
