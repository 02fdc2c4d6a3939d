"""ERMES design-space exploration (Section 5): configurations, the two ILP
formulations, the iterative explorer, and reporting."""

import typing

from repro import _lazy

if typing.TYPE_CHECKING:
    from repro.dse.config import SystemConfiguration as SystemConfiguration
    from repro.dse.explorer import (
        ExplorationResult as ExplorationResult,
        Explorer as Explorer,
        explore as explore,
    )
    from repro.dse.memory import (
        CoOptimizationResult as CoOptimizationResult,
        co_optimize as co_optimize,
        volume_proportional_slot_area as volume_proportional_slot_area,
    )
    from repro.dse.report import (
        convergence_rows as convergence_rows,
        format_convergence as format_convergence,
        iteration_table as iteration_table,
        series as series,
        summarize as summarize,
    )
    from repro.dse.sweep import (
        SweepPoint as SweepPoint,
        pareto_points as pareto_points,
        sweep_table as sweep_table,
        sweep_targets as sweep_targets,
    )
else:
    __all__, __getattr__ = _lazy.exports(__name__, {
        ".config": ("SystemConfiguration",),
        ".explorer": ("ExplorationResult", "Explorer", "explore"),
        ".memory": (
            "CoOptimizationResult", "co_optimize", "volume_proportional_slot_area",
        ),
        ".report": (
            "convergence_rows", "format_convergence", "iteration_table", "series",
            "summarize",
        ),
        ".sweep": ("SweepPoint", "pareto_points", "sweep_table", "sweep_targets"),
    })
