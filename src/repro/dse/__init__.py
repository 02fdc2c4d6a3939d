"""ERMES design-space exploration (Section 5): configurations, the two ILP
formulations, the iterative explorer, and reporting."""

from repro.dse.config import SystemConfiguration
from repro.dse.explorer import (
    ExplorationResult,
    Explorer,
    IterationRecord,
    explore,
)
from repro.dse.problems import (
    AREA_BUDGET,
    LATENCY_BUDGET,
    area_recovery_problem,
    timing_optimization_problem,
)
from repro.dse.memory import (
    CoOptimizationResult,
    co_optimize,
    memory_area,
    volume_proportional_slot_area,
)
from repro.dse.report import (
    convergence_rows,
    format_convergence,
    iteration_table,
    series,
    summarize,
    to_csv,
)
from repro.dse.sweep import SweepPoint, pareto_points, sweep_table, sweep_targets

__all__ = [
    "AREA_BUDGET",
    "CoOptimizationResult",
    "ExplorationResult",
    "Explorer",
    "IterationRecord",
    "LATENCY_BUDGET",
    "SweepPoint",
    "SystemConfiguration",
    "area_recovery_problem",
    "co_optimize",
    "convergence_rows",
    "explore",
    "format_convergence",
    "iteration_table",
    "memory_area",
    "pareto_points",
    "series",
    "summarize",
    "sweep_table",
    "sweep_targets",
    "timing_optimization_problem",
    "to_csv",
    "volume_proportional_slot_area",
]
