"""The flat braid engine against the seed loop at Fig. 6x scale (d=5).

Tier-1 traces both engines event by event on small plans and on sq[2]
and gse[3] at d=3 (``tests/network/test_policy_differential.py``), and
``python -m repro bench --reference`` replays the ``fig6`` and
``tiny`` grids, which run policies 0-6 only.  This driver replays
larger runs through the seed loop (``simulate_plan(...,
engine="reference")``) on the optimized layout at d=5 and asserts
bit-identical results:

* Policy 8 (the scoreboard) on the four Fig. 6x plans at sim sizes,
  which no bench grid replays;
* Policies 5 and 6 on im[12], two Fig. 6 points whose schedules depend
  on the FIFO re-stamp of a dropped braid.
"""

import time

import pytest

from repro.network.braidsim import simulate_plan
from repro.runner import StageCache
from repro.runner.stages import compute_braid_plan

REPLAYS = (
    ("gse", 8),
    ("sq", 8),
    ("sha1", 8),
    ("im", 8),
    ("im", 5),
    ("im", 6),
)


@pytest.fixture(scope="module")
def plans(fig6_sim_sizes):
    cache = StageCache()
    return {
        app: compute_braid_plan(cache, app, size, None, True, 5)
        for app, size in fig6_sim_sizes.items()
    }


@pytest.mark.parametrize("app,policy", REPLAYS)
def test_flat_matches_seed_loop(plans, fig6_sim_sizes, app, policy, benchmark):
    plan = plans[app]
    start = time.perf_counter()
    flat = simulate_plan(plan, policy)
    flat_seconds = time.perf_counter() - start
    start = time.perf_counter()
    seed = benchmark.pedantic(
        simulate_plan,
        args=(plan, policy),
        kwargs={"engine": "reference"},
        rounds=1,
        iterations=1,
    )
    seed_seconds = time.perf_counter() - start
    assert flat == seed, f"{app}[{fig6_sim_sizes[app]}] policy {policy}"
    print(
        f"\n{app}[{fig6_sim_sizes[app]}] p{policy} d=5: schedule "
        f"{flat.schedule_length}, drops {flat.drops}; flat "
        f"{flat_seconds:.2f}s, seed loop {seed_seconds:.2f}s"
    )
