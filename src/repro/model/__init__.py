"""Section 3 performance-model construction: system → Timed Marked Graph.

``repro.model.build`` writes down the paper's blocking-protocol model
once, as integer transition and place rows; ``build_structure`` lowers
them straight to the integer event graph every analysis runs on, and
``build_tmg`` instantiates it under the process latencies (its ``tmg``,
the bipartite TMG decoded from the same rows, is built on demand); ``build_nonblocking_tmg`` gives every channel a
FIFO first (the extension from the companion technical report);
``analyze_system`` is the one-call façade used by the methodology.
"""

from repro.model.build import (
    StructureEntry,
    SystemTmg,
    build_structure,
    build_tmg,
    effective_latencies,
)
from repro.model.nonblocking import build_nonblocking_tmg
from repro.model.performance import (
    SystemPerformance,
    analyze_system,
    deadlock_cycle,
)
from repro.model.sensitivity import (
    ChannelSensitivity,
    ProcessSensitivity,
    SensitivityReport,
    channel_sensitivity_report,
    format_sensitivity,
    sensitivity_report,
)

__all__ = [
    "ChannelSensitivity",
    "ProcessSensitivity",
    "SensitivityReport",
    "SystemPerformance",
    "StructureEntry",
    "SystemTmg",
    "analyze_system",
    "build_nonblocking_tmg",
    "build_structure",
    "build_tmg",
    "channel_sensitivity_report",
    "deadlock_cycle",
    "effective_latencies",
    "format_sensitivity",
    "sensitivity_report",
]
