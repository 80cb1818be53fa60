"""Top-level analysis: resources, calibration, crossover, sensitivity."""

from .calibration import AppCalibration, calibrate_app
from .crossover import (
    CrossoverAnalysis,
    RatioPoint,
    analyze_crossover,
    sweep_sizes,
)
from .report import (
    format_fig6,
    format_fig7,
    format_fig8,
    format_fig9,
    format_table1,
    format_table2_rows,
)
from .resources import (
    ANCILLA_TILE_FACTOR,
    DEFAULT_CONSTANTS,
    CommunicationConstants,
    SpaceTimeEstimate,
    estimate_double_defect,
    estimate_planar,
)
from .sensitivity import (
    FIGURE9_VARIANTS,
    BoundaryLine,
    boundary_for_app,
    sweep_error_rates,
)

__all__ = [
    "AppCalibration",
    "calibrate_app",
    "CommunicationConstants",
    "DEFAULT_CONSTANTS",
    "ANCILLA_TILE_FACTOR",
    "SpaceTimeEstimate",
    "estimate_planar",
    "estimate_double_defect",
    "RatioPoint",
    "CrossoverAnalysis",
    "analyze_crossover",
    "sweep_sizes",
    "BoundaryLine",
    "boundary_for_app",
    "sweep_error_rates",
    "FIGURE9_VARIANTS",
    "format_table1",
    "format_table2_rows",
    "format_fig6",
    "format_fig7",
    "format_fig8",
    "format_fig9",
]
