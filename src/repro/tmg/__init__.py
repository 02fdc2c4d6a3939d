"""Timed Marked Graph engine: the paper's performance model (Section 3).

Provides the TMG data structure (Definition 1), the token game, liveness
checking, and the cycle-time engine: Howard's policy iteration, the
paper's choice, over exact integer arrays.  Lawler's parametric search,
brute-force cycle enumeration and the timed earliest-firing execution are
test oracles (``tests/tmg``).
"""

from repro.tmg.analysis import PerformanceReport, analyze
from repro.tmg.dot import tmg_to_dot
from repro.tmg.event_graph import EventGraph, build_event_graph

__all__ = [
    "EventGraph",
    "PerformanceReport",
    "analyze",
    "build_event_graph",
    "tmg_to_dot",
]
