"""Timed Marked Graph engine: the paper's performance model (Section 3).

Provides the TMG data structure (Definition 1), the token game, liveness
checking, and the cycle-time engine: Howard's policy iteration, the
paper's choice, over exact integer arrays.  Lawler's parametric search,
brute-force cycle enumeration and the timed earliest-firing execution are
test oracles (``tests/tmg``).
"""

from repro.tmg.analysis import (
    PerformanceReport,
    analyze,
    analyze_event_graph,
    cycle_time,
)
from repro.tmg.deadlock import find_token_free_cycle, is_live
from repro.tmg.dot import tmg_to_dot
from repro.tmg.event_graph import (
    Edge,
    EventGraph,
    build_event_graph,
    strongly_connected_components,
)
from repro.tmg.graph import Place, TimedMarkedGraph, Transition
from repro.tmg.howard import CycleRatioResult, maximum_cycle_ratio

__all__ = [
    "CycleRatioResult",
    "Edge",
    "EventGraph",
    "PerformanceReport",
    "Place",
    "TimedMarkedGraph",
    "Transition",
    "analyze",
    "analyze_event_graph",
    "build_event_graph",
    "cycle_time",
    "find_token_free_cycle",
    "is_live",
    "maximum_cycle_ratio",
    "strongly_connected_components",
    "tmg_to_dot",
]
