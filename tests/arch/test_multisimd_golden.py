"""Golden pin of the Multi-SIMD path: SIMD schedules and EPR pipelines.

``golden_multisimd.json`` records, for six staged instances, a sha256
of ``repr(schedule.cycles)`` from :func:`~repro.arch.simd_schedule` at
several region counts, and every :class:`EprPipelineResult` field
(floats by ``repr``) from :meth:`MultiSimdMachine.epr_pipeline` on the
stage's 4-region schedule over a grid of distances and windows.  The
file was recorded with the object-level loops that
``test_multisimd_differential.py`` keeps as reference code; the tests
recompute each case and compare it field by field, so any change in a
cycle's op order or in float arithmetic order fails here.

Regenerate only for a deliberate semantic change::

    PYTHONPATH=src python tests/arch/test_multisimd_golden.py
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.arch import simd_schedule
from repro.runner import StageCache
from repro.runner.stages import compute_frontend, compute_simd

GOLDEN_PATH = Path(__file__).parent / "golden_multisimd.json"

CASES = (
    ("gse", 4, None),
    ("sq", 3, None),
    ("sha1", 4, None),
    ("im", 12, None),
    ("im", 12, 0),
    ("im", 32, None),
)
REGIONS = (1, 4, 8)
DISTANCES = (3, 5)
WINDOWS = (0, 1, 64, 10**9)
LARGE_DISTANCES = (5,)
"""im[32] is pinned at d=5 alone: it is the slowest case by far."""


def case_id(app, size, inline_depth):
    return f"{app}[{size}]/inline={inline_depth}"


def compute_case(cache, app, size, inline_depth):
    """One case's record, in the golden file's shape."""
    fe = compute_frontend(cache, app, size, inline_depth)
    schedules = {
        str(regions): hashlib.sha256(
            repr(simd_schedule(fe.circuit, regions, fe.dag).cycles).encode()
        ).hexdigest()
        for regions in REGIONS
    }
    simd = compute_simd(cache, app, size, inline_depth, regions=4)
    distances = LARGE_DISTANCES if size >= 32 else DISTANCES
    epr = {}
    for distance in distances:
        for window in WINDOWS:
            result = simd.machine.epr_pipeline(
                simd.schedule, distance, window=window
            )
            epr[f"d={distance},window={window}"] = {
                field.name: repr(getattr(result, field.name))
                for field in dataclasses.fields(result)
            }
    return {"schedules": schedules, "epr": epr}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def cache():
    return StageCache()


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case_id(*case))
def test_matches_golden(case, golden, cache):
    expected = golden[case_id(*case)]
    actual = compute_case(cache, *case)
    assert actual["schedules"] == expected["schedules"]
    assert sorted(actual["epr"]) == sorted(expected["epr"])
    for point, fields in expected["epr"].items():
        assert actual["epr"][point] == fields, point


if __name__ == "__main__":
    shared = StageCache()
    record = {case_id(*case): compute_case(shared, *case) for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} cases to {GOLDEN_PATH}")
