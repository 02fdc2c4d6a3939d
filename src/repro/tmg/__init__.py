"""Timed Marked Graph engine: the paper's performance model (Section 3).

Provides the TMG data structure (Definition 1), the token game, liveness
checking, and three interchangeable cycle-time engines — Howard's policy
iteration (the paper's choice), Lawler's parametric search, and brute-force
cycle enumeration.
"""

from repro.tmg.analysis import (
    Engine,
    PerformanceReport,
    analyze,
    analyze_event_graph,
    cycle_time,
    deadlock_witness,
    is_deadlocked,
)
from repro.tmg.deadlock import assert_live, find_token_free_cycle, is_live
from repro.tmg.dot import tmg_to_dot
from repro.tmg.enumeration import (
    EnumeratedCycle,
    enumerate_cycles,
    maximum_cycle_ratio_enumerated,
)
from repro.tmg.event_graph import (
    Edge,
    EventGraph,
    build_event_graph,
    strongly_connected_components,
)
from repro.tmg.firing import (
    FiringRecord,
    earliest_firing_times,
    measured_cycle_time,
)
from repro.tmg.graph import Place, TimedMarkedGraph, Transition
from repro.tmg.howard import CycleRatioResult, maximum_cycle_ratio
from repro.tmg.lawler import maximum_cycle_ratio_lawler

__all__ = [
    "CycleRatioResult",
    "Edge",
    "Engine",
    "EnumeratedCycle",
    "EventGraph",
    "FiringRecord",
    "PerformanceReport",
    "Place",
    "TimedMarkedGraph",
    "Transition",
    "analyze",
    "analyze_event_graph",
    "assert_live",
    "build_event_graph",
    "cycle_time",
    "deadlock_witness",
    "earliest_firing_times",
    "enumerate_cycles",
    "find_token_free_cycle",
    "is_deadlocked",
    "is_live",
    "maximum_cycle_ratio",
    "maximum_cycle_ratio_enumerated",
    "maximum_cycle_ratio_lawler",
    "measured_cycle_time",
    "strongly_connected_components",
    "tmg_to_dot",
]
