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
    CHANNEL_PREFIX,
    PROCESS_PREFIX,
    StructureEntry,
    SystemTmg,
    build_structure,
    build_tmg,
    channel_transition,
    effective_latencies,
    process_transition,
    statement_place,
)
from repro.model.nonblocking import build_nonblocking_tmg
from repro.model.performance import (
    SystemPerformance,
    analyze_system,
    deadlock_cycle,
    is_deadlock_free,
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
    "CHANNEL_PREFIX",
    "ChannelSensitivity",
    "PROCESS_PREFIX",
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
    "channel_transition",
    "deadlock_cycle",
    "effective_latencies",
    "format_sensitivity",
    "is_deadlock_free",
    "sensitivity_report",
    "process_transition",
    "statement_place",
]
