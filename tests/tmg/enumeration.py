"""Brute-force cycle-time computation by elementary-cycle enumeration.

Definition 3 computes the cycle time as the maximum, over all elementary
cycles, of ``Σ delay / Σ tokens``.  The paper dismisses direct enumeration
as impractical — the number of elementary cycles can be exponential — but
for small graphs it is the most trustworthy oracle, so the test suite uses
it to validate Howard's algorithm (:mod:`repro.tmg.howard`) and Lawler's
search (:mod:`tests.tmg.lawler`).  It is the only user of networkx, which
is therefore a test dependency only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import networkx as nx

from repro.errors import NotLiveError
from repro.tmg.event_graph import EventGraph
from repro.tmg.graph import TimedMarkedGraph

from tests.tmg.decoded import edges


@dataclass(frozen=True)
class EnumeratedCycle:
    """One elementary cycle with its aggregate weights."""

    nodes: tuple[str, ...]
    places: tuple[str, ...]
    delay: int
    tokens: int

    @property
    def ratio(self) -> Fraction | None:
        """``Σdelay/Σtokens``, or ``None`` for a token-free cycle."""
        if self.tokens == 0:
            return None
        return Fraction(self.delay, self.tokens)


def enumerate_cycles(graph: EventGraph) -> Iterator[EnumeratedCycle]:
    """Yield every elementary cycle of the event graph.

    Exponential in the worst case; intended for graphs with at most a few
    dozen nodes (test oracles, teaching examples).
    """
    nxg = nx.DiGraph()
    for edge in edges(graph):
        nxg.add_edge(
            edge.source,
            edge.target,
            delay=edge.delay,
            tokens=edge.tokens,
            place=edge.place,
        )
    for cycle in nx.simple_cycles(nxg):
        delay = 0
        tokens = 0
        places = []
        n = len(cycle)
        for i, u in enumerate(cycle):
            v = cycle[(i + 1) % n]
            data = nxg.edges[u, v]
            delay += data["delay"]
            tokens += data["tokens"]
            places.append(data["place"])
        yield EnumeratedCycle(
            nodes=tuple(cycle), places=tuple(places), delay=delay, tokens=tokens
        )


def maximum_cycle_ratio_enumerated(
    graph: EventGraph,
) -> tuple[Fraction, EnumeratedCycle] | None:
    """Exact maximum cycle ratio by full enumeration.

    Returns ``(ratio, witness cycle)`` or ``None`` for acyclic graphs;
    raises :class:`~repro.errors.NotLiveError` on a token-free cycle.
    """
    best: tuple[Fraction, EnumeratedCycle] | None = None
    for cycle in enumerate_cycles(graph):
        ratio = cycle.ratio
        if ratio is None:
            raise NotLiveError(
                "event graph has a token-free cycle through "
                + " -> ".join(cycle.nodes),
                cycle=list(cycle.nodes),
            )
        if best is None or ratio > best[0]:
            best = (ratio, cycle)
    return best


def tmg_cycles(tmg: TimedMarkedGraph) -> Iterator[list[str]]:
    """Yield the elementary cycles of a TMG as alternating transition/place
    name lists, starting at a transition.  Exponential; small graphs only.

    Parallel places between the same pair of transitions are collapsed
    to the one with the fewest tokens — the binding one for both cycle
    time (maximum delay/token ratio) and deadlock detection.
    """
    graph = nx.DiGraph()
    for place in tmg.places:
        edge = graph.edges.get((place.source, place.target))
        if edge is not None and tmg.place(edge["place"]).tokens <= place.tokens:
            continue
        graph.add_edge(place.source, place.target, place=place.name)
    for cycle in nx.simple_cycles(graph):
        expanded: list[str] = []
        n = len(cycle)
        for i, u in enumerate(cycle):
            v = cycle[(i + 1) % n]
            expanded.append(u)
            expanded.append(graph.edges[u, v]["place"])
        yield expanded
