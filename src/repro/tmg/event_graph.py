"""Reduction of a TMG to a weighted *event graph* over transitions.

Definition 3 defines the cycle mean ``µ(c) = M0(c) / Σ_{t∈c} d(t)`` and the
cycle time ``π(G)`` as the reciprocal of the minimum cycle mean.  Working
directly on the bipartite place/transition graph is awkward; instead we
contract every place into an edge between its producer and consumer
transition, annotated with

* ``tokens`` — the place's initial marking ``M0(p)``, and
* ``delay`` — the delay ``d`` of the edge's *target* transition.

Going around any cycle, each transition is the target of exactly one edge,
so the edge-delay sum equals the transition-delay sum and

``π(G) = max over cycles c of  Σ_e delay(e) / Σ_e tokens(e)``

— the maximum cycle *ratio* of the event graph.  A cycle with zero tokens
has infinite ratio: the system is not live (deadlock).

Parallel places between the same transition pair are kept (the reduction
produces a multigraph), but for ratio maximization only the minimum-token
parallel edge can be binding, so :func:`collapse_places` collapses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, TypeVar

from repro.tmg.graph import TimedMarkedGraph


@dataclass(frozen=True)
class Edge:
    """One event-graph edge (a contracted place)."""

    source: str
    target: str
    tokens: int
    delay: int
    place: str


@dataclass
class EventGraph:
    """Adjacency-list event graph: ``succ[u]`` lists edges leaving ``u``."""

    nodes: tuple[str, ...]
    succ: dict[str, list[Edge]]

    @property
    def edges(self) -> list[Edge]:
        return [e for edges in self.succ.values() for e in edges]

    def predecessors_view(self) -> dict[str, list[Edge]]:
        """Reverse adjacency (computed on demand)."""
        pred: dict[str, list[Edge]] = {n: [] for n in self.nodes}
        for edge in self.edges:
            pred[edge.target].append(edge)
        return pred


class _PlaceLike(Protocol):
    """What the contraction reads of a place (a TMG ``Place`` or a table
    row of :func:`repro.model.build.marked_places`)."""

    @property
    def name(self) -> str: ...

    @property
    def source(self) -> str: ...

    @property
    def target(self) -> str: ...

    @property
    def tokens(self) -> int: ...


_P = TypeVar("_P", bound=_PlaceLike)


def collapse_places(
    nodes: Iterable[str], places: Iterable[_P]
) -> dict[str, list[_P]]:
    """Per transition, in ``nodes`` order, the out-places that survive the
    parallel-place collapse, in order of first appearance.

    Parallel places with identical endpoints are collapsed to the one with
    the fewest tokens (the first on a tie), which is the only one that can
    bind the maximum cycle ratio or cause a deadlock.  Every event graph
    is contracted by this one function, so a graph patched from a cached
    skeleton and one built from a fresh TMG agree edge for edge.
    """
    best: dict[tuple[str, str], _P] = {}
    for place in places:
        key = (place.source, place.target)
        current = best.get(key)
        if current is None or place.tokens < current.tokens:
            best[key] = place
    succ: dict[str, list[_P]] = {node: [] for node in nodes}
    for place in best.values():
        succ[place.source].append(place)
    return succ


def build_event_graph(tmg: TimedMarkedGraph) -> EventGraph:
    """Contract places into weighted edges (see module docstring)."""
    delays = {t.name: t.delay for t in tmg.transitions}
    succ = {
        node: [
            Edge(p.source, p.target, p.tokens, delays[p.target], p.name)
            for p in kept
        ]
        for node, kept in collapse_places(tmg.transition_names, tmg.places).items()
    }
    return EventGraph(nodes=tmg.transition_names, succ=succ)


def strongly_connected_components(graph: EventGraph) -> list[list[str]]:
    """Tarjan SCCs of the event graph (iterative, recursion-free)."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0

    for root in graph.nodes:
        if root in index:
            continue
        # Iterative Tarjan with an explicit work stack of (node, edge-iter).
        work = [(root, iter(graph.succ[root]))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, edges = work[-1]
            advanced = False
            for edge in edges:
                child = edge.target
                if child not in index:
                    index[child] = lowlink[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(graph.succ[child])))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components
