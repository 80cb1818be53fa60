"""Shared fixtures for the paper-reproduction benchmark harness.

Each ``bench_*`` module regenerates one table or figure of the paper.
Run with ``pytest benchmarks/ --benchmark-only -s`` to see the tables.
Calibrations are cached per session so figures sharing inputs do not
re-simulate.
"""

import pytest

from repro.core import calibrate_app


@pytest.fixture(scope="session")
def calibrations():
    """Calibrated (scaling + congestion) inputs for all app variants."""
    variants = [
        ("gse", None),
        ("sq", None),
        ("sha1", None),
        ("im", 0),
        ("im", None),
    ]
    return {
        (name, inline): calibrate_app(name, inline)
        for name, inline in variants
    }


@pytest.fixture(scope="session")
def fig6_sim_sizes():
    """Instance sizes for the Figure 6 braid-policy sweep: small enough
    to simulate 7 policies per app in seconds-to-minutes, large enough
    to exhibit each application's contention regime (the registry's
    per-app ``sim_size`` knobs)."""
    from repro.apps.registry import SIM_SIZES

    return dict(SIM_SIZES)
