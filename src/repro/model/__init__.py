"""Section 3 performance-model construction: system → Timed Marked Graph.

``marked_transitions``/``marked_places`` write down the paper's
blocking-protocol model once, as transition and place rows; ``build_tmg``
loads them into a TMG; ``build_nonblocking_tmg`` gives every channel a
FIFO first (the extension from the companion technical report);
``analyze_system`` is the one-call façade used by the methodology.
"""

from repro.model.build import (
    CHANNEL_PREFIX,
    PROCESS_PREFIX,
    SystemTmg,
    build_tmg,
    channel_transition,
    effective_latencies,
    marked_places,
    marked_transitions,
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
    "SystemTmg",
    "analyze_system",
    "build_nonblocking_tmg",
    "build_tmg",
    "channel_sensitivity_report",
    "channel_transition",
    "deadlock_cycle",
    "effective_latencies",
    "format_sensitivity",
    "is_deadlock_free",
    "marked_places",
    "marked_transitions",
    "sensitivity_report",
    "process_transition",
    "statement_place",
]
