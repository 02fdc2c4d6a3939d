"""Name-keyed views of an integer event graph, for the test oracles.

``src/`` reads :class:`~repro.tmg.event_graph.EventGraph`'s CSR lists and
:class:`~repro.tmg.PerformanceReport`'s node and edge ids only.  The
Lawler, enumeration and Fraction-Howard oracles walk decoded edges, and
compare ``(ratio, cycle, places)`` triples; both are decoded here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.errors import NotLiveError, ReproError
from repro.tmg import analyze
from repro.tmg.event_graph import EventGraph, _components


@dataclass(frozen=True)
class Edge:
    """One decoded event-graph edge (a contracted place)."""

    source: str
    target: str
    tokens: int
    delay: int
    place: str


def succ(graph: EventGraph) -> dict[str, list[Edge]]:
    """``succ(graph)[name]`` lists the edges leaving transition ``name``,
    in CSR order."""
    names, start = graph.names, graph.start
    return {
        names[u]: [
            Edge(
                names[u],
                names[graph.target[e]],
                graph.tokens[e],
                graph.delay[e],
                graph.place_name(graph.place[e]),
            )
            for e in range(start[u], start[u + 1])
        ]
        for u in range(len(names))
    }


def edges(graph: EventGraph) -> list[Edge]:
    """Every decoded edge, in node order."""
    return [edge for out in succ(graph).values() for edge in out]


def strongly_connected_components(graph: EventGraph) -> list[list[str]]:
    """Tarjan SCCs of the event graph, as transition-name lists."""
    names = graph.names
    return [
        [names[u] for u in component]
        for component in _components(graph.start, graph.target)
    ]


@dataclass(frozen=True)
class CycleRatioResult:
    """A maximum cycle ratio with one critical cycle, by name."""

    ratio: Fraction
    cycle: tuple[str, ...]
    places: tuple[str, ...]


def analyzed(graph: EventGraph) -> CycleRatioResult | None:
    """:func:`repro.tmg.analyze` as a :class:`CycleRatioResult`, or
    ``None`` when the graph is acyclic (token-free cycles still raise
    :class:`~repro.errors.NotLiveError`)."""
    try:
        report = analyze(graph)
    except NotLiveError:
        raise
    except ReproError as error:
        if "has no cycles" in str(error):
            return None
        raise
    return CycleRatioResult(
        report.cycle_time, report.critical_cycle, report.critical_places
    )
