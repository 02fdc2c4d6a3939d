"""ERMES design-space exploration (Section 5): configurations, the two ILP
formulations, the iterative explorer, and reporting."""

from repro.dse.config import SystemConfiguration
from repro.dse.explorer import ExplorationResult, Explorer, explore
from repro.dse.memory import (
    CoOptimizationResult,
    co_optimize,
    volume_proportional_slot_area,
)
from repro.dse.report import (
    convergence_rows,
    format_convergence,
    iteration_table,
    series,
    summarize,
)
from repro.dse.sweep import (
    SweepPoint,
    pareto_points,
    sweep_table,
    sweep_targets,
)

__all__ = [
    "CoOptimizationResult",
    "ExplorationResult",
    "Explorer",
    "SweepPoint",
    "SystemConfiguration",
    "co_optimize",
    "convergence_rows",
    "explore",
    "format_convergence",
    "iteration_table",
    "pareto_points",
    "series",
    "summarize",
    "sweep_table",
    "sweep_targets",
    "volume_proportional_slot_area",
]
