"""System-level performance analysis of Timed Marked Graphs (Section 3).

The façade :func:`analyze` ties the pieces together: liveness check,
maximum-cycle-ratio computation with Howard's algorithm, and a
:class:`PerformanceReport` carrying the quantities the methodology consumes
— cycle time, throughput, and the critical cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.errors import NotLiveError, ReproError
from repro.tmg.deadlock import find_token_free_cycle
from repro.tmg.event_graph import EventGraph, build_event_graph
from repro.tmg.graph import TimedMarkedGraph
from repro.tmg.howard import _maximum_cycle_ratio


@dataclass(frozen=True)
class PerformanceReport:
    """Result of analyzing one TMG.

    Attributes:
        cycle_time: ``π(G)`` — the average separation between consecutive
            firings of any transition in steady state (Definition 2); the
            reciprocal of the system throughput.
        critical_cycle: Transition names around one critical cycle (a cycle
            whose mean equals the minimum — the throughput bottleneck).
        critical_places: The places along the critical cycle (one per
            step); useful to map the bottleneck back to processes/channels.
        critical_nodes: The event-graph node ids of ``critical_cycle``.
        critical_edges: The event-graph edge ids between them (edge
            ``critical_edges[j]`` leaves ``critical_nodes[j]``; its place
            row names ``critical_places[j]``).

    The ids are positions in the analyzed graph, whose node order follows
    the design's declaration order.
    """

    cycle_time: Fraction
    critical_cycle: tuple[str, ...]
    critical_places: tuple[str, ...]
    critical_nodes: tuple[int, ...]
    critical_edges: tuple[int, ...]

    @property
    def throughput(self) -> Fraction:
        """Tokens processed per cycle: ``1 / π(G)``."""
        if self.cycle_time == 0:
            raise ReproError("cycle time is zero; throughput undefined")
        return 1 / self.cycle_time


def analyze(graph: EventGraph | TimedMarkedGraph) -> PerformanceReport:
    """Compute cycle time and critical cycle of a live TMG.

    Args:
        graph: The event graph of the model (e.g. ``build_tmg(...).graph``),
            or a timed marked graph, which is contracted first; either is
            analyzed under its *initial* marking.

    Raises:
        NotLiveError: The TMG has a token-free cycle (deadlock).
        ReproError: The TMG is acyclic, which cannot arise from the
            Section 3 construction and indicates a malformed model.
    """
    if isinstance(graph, TimedMarkedGraph):
        graph = build_event_graph(graph)
    cycle = find_token_free_cycle(graph)
    if cycle is not None:
        raise NotLiveError(
            f"TMG {graph.name!r} is not live: token-free cycle through "
            + " -> ".join(cycle),
            cycle=cycle,
        )
    return analyze_event_graph(graph)


def analyze_event_graph(graph: EventGraph) -> PerformanceReport:
    """:func:`analyze` on an already-contracted event graph whose
    liveness the caller has established.

    This is the entry point of the incremental analysis path
    (:mod:`repro.perf`): liveness depends only on the graph structure and
    marking, never on delays, so a caller that patches edge delays
    between calls checks it once per structure
    (:attr:`repro.model.build.StructureEntry.circular_wait`).
    """
    result = _maximum_cycle_ratio(graph)
    if result is None:
        raise ReproError(f"TMG {graph.name!r} has no cycles; cycle time undefined")
    ratio, nodes, edges = result
    names, place, place_name = graph.names, graph.place, graph.place_name
    return PerformanceReport(
        cycle_time=ratio,
        critical_cycle=tuple(names[u] for u in nodes),
        critical_places=tuple(place_name(place[e]) for e in edges),
        critical_nodes=tuple(nodes),
        critical_edges=tuple(edges),
    )
