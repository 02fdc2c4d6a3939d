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
from itertools import accumulate
from typing import Callable, Iterable, Sequence

from repro.tmg.graph import TimedMarkedGraph


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
    keys = [s * n + t for s, t in zip(source, target)]
    kept: Iterable[int] = range(len(keys))
    if len(set(keys)) < len(keys):  # parallel places
        best: dict[int, int] = {}
        for row, key in enumerate(keys):
            held = best.get(key)
            if held is None or tokens[row] < tokens[held]:
                best[key] = row
        kept = best.values()
    # Stable: each node's edges stay in the order of their first row.
    rows = sorted(kept, key=source.__getitem__)
    counts = [0] * n
    for u in map(source.__getitem__, rows):
        counts[u] += 1
    return (
        list(accumulate(counts, initial=0)),
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


def _components(
    start: Sequence[int], target: Sequence[int]
) -> list[list[int]]:
    """Tarjan SCCs of a CSR graph as node lists (iterative,
    recursion-free): node ``u``'s out-edges are ``start[u]:start[u + 1]``
    and edge ``e`` leads to ``target[e]``.

    Roots are taken in node order and edges in CSR order, so components
    and their members come out in one fixed order, which Howard's
    tie-breaks depend on.
    """
    n = len(start) - 1
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    cursor = list(start[:-1])  # per node, its next unexplored edge
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] >= 0:
            continue
        # An explicit work stack: the depth-first path from the root.
        work = [root]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node = work[-1]
            e = cursor[node]
            end = start[node + 1]
            while e < end:
                child = target[e]
                e += 1
                if index[child] < 0:
                    cursor[node] = e
                    index[child] = lowlink[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack[child] = True
                    work.append(child)
                    break
                if on_stack[child] and index[child] < lowlink[node]:
                    lowlink[node] = index[child]
            else:
                work.pop()
                if work:
                    parent = work[-1]
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
