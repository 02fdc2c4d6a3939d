"""Section 3 performance-model construction: system → Timed Marked Graph.

``repro.model.build`` writes down the paper's blocking-protocol model
once, as integer transition and place rows; ``build_structure`` lowers
them straight to the integer event graph every analysis runs on, and
``build_tmg`` instantiates it under the process latencies (its ``tmg``,
the bipartite TMG decoded from the same rows, is built on demand).  A
channel with a FIFO ``capacity`` is modelled as split put/get
transitions joined by data and credit places (the non-blocking extension
of the companion technical report), so the all-FIFO model of a system is
``build_tmg(system.with_channel_capacities(...))``.  ``analyze_system``
is the one-call façade used by the methodology.
"""

import typing

from repro import _lazy

if typing.TYPE_CHECKING:
    from repro.model.build import (
        StructureEntry as StructureEntry,
        SystemTmg as SystemTmg,
        build_structure as build_structure,
        build_tmg as build_tmg,
    )
    from repro.model.performance import (
        SystemPerformance as SystemPerformance,
        analyze_system as analyze_system,
        deadlock_cycle as deadlock_cycle,
    )
    from repro.model.sensitivity import (
        SensitivityReport as SensitivityReport,
        format_sensitivity as format_sensitivity,
        sensitivity_report as sensitivity_report,
    )
else:
    __all__, __getattr__ = _lazy.exports(__name__, {
        ".build": ("StructureEntry", "SystemTmg", "build_structure", "build_tmg"),
        ".performance": ("SystemPerformance", "analyze_system", "deadlock_cycle"),
        ".sensitivity": (
            "SensitivityReport", "format_sensitivity", "sensitivity_report",
        ),
    })
