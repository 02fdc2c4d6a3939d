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
parallel edge can be binding, so :func:`contract` collapses them.

The event graph is held as integer CSR lists: node ``u`` is named
``names[u]`` and its out-edges are ``start[u]:start[u + 1]``.  Liveness,
Tarjan and Howard run on those ints; names are decoded only for results
and errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from repro.tmg.graph import TimedMarkedGraph


@dataclass(frozen=True)
class Edge:
    """One decoded event-graph edge (a contracted place), for tests and
    oracles; the analyses read :class:`EventGraph`'s lists."""

    source: str
    target: str
    tokens: int
    delay: int
    place: str


@dataclass(frozen=True, eq=False)
class EventGraph:
    """An event graph as integer CSR lists.

    Attributes:
        name: The model's name (error messages).
        names: ``names[u]`` is the transition of node ``u``.
        start: Node ``u``'s out-edges are ``start[u]:start[u + 1]``.
        target: Per edge, its target node.
        tokens: Per edge, the contracted place's initial marking.
        delay: Per edge, its target transition's delay (an exact int).
        place: Per edge, the contracted place's row; ``place_name`` maps
            a row to the place's name.
    """

    name: str
    names: Sequence[str]
    start: list[int]
    target: list[int]
    tokens: list[int]
    delay: list[int]
    place: list[int]
    place_name: Callable[[int], str]

    @cached_property
    def succ(self) -> dict[str, list[Edge]]:
        """Decoded adjacency: ``succ[name]`` lists the edges leaving it
        (decoded once, on first access)."""
        names, start = self.names, self.start
        return {
            names[u]: [self._edge(u, e) for e in range(start[u], start[u + 1])]
            for u in range(len(names))
        }

    @property
    def edges(self) -> list[Edge]:
        """Every decoded edge, in node order."""
        return [edge for edges in self.succ.values() for edge in edges]

    def _edge(self, u: int, e: int) -> Edge:
        return Edge(
            self.names[u],
            self.names[self.target[e]],
            self.tokens[e],
            self.delay[e],
            self.place_name(self.place[e]),
        )


def contract(
    n: int, source: list[int], target: list[int], tokens: list[int]
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Contract place rows into CSR edges over ``n`` nodes.

    Row ``r`` is a place from node ``source[r]`` to node ``target[r]``
    holding ``tokens[r]``.  Parallel places with identical endpoints are
    collapsed to the one with the fewest tokens (the first on a tie), which
    is the only one that can bind the maximum cycle ratio or cause a
    deadlock.  Each node's kept edges appear in order of the first row
    between their endpoints.  Every event graph is contracted by this one
    function.

    Returns ``(start, target, tokens, rows)``: node ``u``'s edges are
    ``start[u]:start[u + 1]``, and ``rows[e]`` is edge ``e``'s place row.
    """
    best: dict[int, int] = {}
    for row, (s, t, m) in enumerate(zip(source, target, tokens)):
        key = s * n + t
        kept = best.get(key)
        if kept is None or m < tokens[kept]:
            best[key] = row
    start = [0] * (n + 1)
    for row in best.values():
        start[source[row] + 1] += 1
    for u in range(n):
        start[u + 1] += start[u]
    fill = start[:-1]
    rows = [0] * len(best)
    for row in best.values():
        u = source[row]
        rows[fill[u]] = row
        fill[u] += 1
    return (
        start,
        [target[row] for row in rows],
        [tokens[row] for row in rows],
        rows,
    )


def build_event_graph(tmg: TimedMarkedGraph) -> EventGraph:
    """Contract a TMG's places into weighted edges (see module docstring)."""
    index = {name: u for u, name in enumerate(tmg.transition_names)}
    places = tmg.places
    start, target, tokens, rows = contract(
        len(index),
        [index[p.source] for p in places],
        [index[p.target] for p in places],
        [p.tokens for p in places],
    )
    node_delay = [t.delay for t in tmg.transitions]
    return EventGraph(
        name=tmg.name,
        names=tmg.transition_names,
        start=start,
        target=target,
        tokens=tokens,
        delay=[node_delay[t] for t in target],
        place=rows,
        place_name=[p.name for p in places].__getitem__,
    )


def _components(graph: EventGraph) -> list[list[int]]:
    """Tarjan SCCs as node lists (iterative, recursion-free).

    Roots are taken in node order and edges in CSR order, so components
    and their members come out in one fixed order, which Howard's
    tie-breaks depend on.
    """
    start, target = graph.start, graph.target
    n = len(start) - 1
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] >= 0:
            continue
        # An explicit work stack of [node, next edge].
        work = [[root, start[root]]]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            frame = work[-1]
            node, e = frame
            end = start[node + 1]
            while e < end:
                child = target[e]
                e += 1
                if index[child] < 0:
                    frame[1] = e
                    index[child] = lowlink[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack[child] = True
                    work.append([child, start[child]])
                    break
                if on_stack[child] and index[child] < lowlink[node]:
                    lowlink[node] = index[child]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if lowlink[node] < lowlink[parent]:
                        lowlink[parent] = lowlink[node]
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


def strongly_connected_components(graph: EventGraph) -> list[list[str]]:
    """Tarjan SCCs of the event graph, as transition-name lists."""
    names = graph.names
    return [[names[u] for u in component] for component in _components(graph)]
