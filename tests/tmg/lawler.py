"""Lawler's parametric search for the maximum cycle ratio.

An independent test oracle for :mod:`repro.tmg.howard`, following the
classic reduction: a cycle with ratio ``Σdelay/Σtokens > λ`` exists iff the
graph re-weighted with ``w_e = delay_e − λ·tokens_e`` contains a
positive-weight cycle, detectable with Bellman–Ford.  Binary search on
``λ`` then brackets the maximum ratio.

Because all delays and token counts are integers, the optimum is a rational
``p/q`` with ``q ≤ Σ tokens``; searching to a resolution finer than
``1/q_max²`` and snapping to the nearest fraction with bounded denominator
recovers the exact value.  The implementation defaults to a float tolerance
adequate for testing; exact snapping is available via ``exact=True``.
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import NotLiveError
from repro.tmg.deadlock import find_token_free_cycle
from repro.tmg.event_graph import EventGraph


def _has_positive_cycle(graph: EventGraph, lam: float) -> bool:
    """Bellman–Ford: does any cycle have ``Σ(delay − λ·tokens) > 0``?

    Works on the longest-path variant: relax ``dist[v] = max(dist[v],
    dist[u] + w)``; an n-th relaxation round that still improves implies a
    positive cycle.  All nodes start at 0 (equivalent to a virtual source),
    so cycles anywhere in the graph are found.
    """
    nodes = graph.names
    dist = {u: 0.0 for u in nodes}
    for round_index in range(len(nodes)):
        changed = False
        for u in nodes:
            base = dist[u]
            for edge in graph.succ[u]:
                candidate = base + edge.delay - lam * edge.tokens
                if candidate > dist[edge.target] + 1e-12:
                    dist[edge.target] = candidate
                    changed = True
        if not changed:
            return False
    return True


def maximum_cycle_ratio_lawler(
    graph: EventGraph,
    exact: bool = False,
    tolerance: float = 1e-9,
) -> Fraction | float | None:
    """Maximum cycle ratio by parametric binary search.

    Returns ``None`` for acyclic graphs, raises
    :class:`~repro.errors.NotLiveError` when a token-free cycle exists
    (the ratio would be unbounded).

    Args:
        graph: Event graph to analyze.
        exact: Snap the result to the exact rational value (requires the
            true denominator to be at most the total token count, which
            always holds).
        tolerance: Bracket width at which the binary search stops.
    """
    cycle = find_token_free_cycle(graph)
    if cycle is not None:
        raise NotLiveError(
            "event graph has a token-free cycle through " + " -> ".join(cycle),
            cycle=cycle,
        )
    edges = graph.edges
    if not edges:
        return None

    # Any cycle ratio is at most Σdelay / 1 and at least 0.
    upper = float(sum(max(e.delay, 0) for e in edges)) + 1.0
    lower = 0.0
    if not _has_positive_cycle(graph, lower):
        # No cycle with positive delay at λ=0 means either no cycle at all
        # or only zero-delay cycles; both yield ratio 0 if a cycle exists.
        return _ratio_zero_or_none(graph, exact)

    while upper - lower > tolerance:
        mid = (lower + upper) / 2.0
        if _has_positive_cycle(graph, mid):
            lower = mid
        else:
            upper = mid

    estimate = (lower + upper) / 2.0
    if not exact:
        return estimate
    max_denominator = max(1, sum(max(e.tokens, 0) for e in edges))
    return Fraction(estimate).limit_denominator(max_denominator)


def _ratio_zero_or_none(graph: EventGraph, exact: bool) -> Fraction | float | None:
    """Distinguish 'graph is acyclic' (None) from 'best cycle ratio is 0'."""
    # Cycle detection over all edges (tokens already known non-zero-cycle).
    seen: set[str] = set()
    done: set[str] = set()
    for root in graph.names:
        if root in done:
            continue
        stack: list[tuple[str, int]] = [(root, 0)]
        seen.add(root)
        path = {root}
        while stack:
            node, i = stack[-1]
            succ = graph.succ[node]
            if i < len(succ):
                stack[-1] = (node, i + 1)
                child = succ[i].target
                if child in path:
                    return Fraction(0) if exact else 0.0
                if child not in done:
                    seen.add(child)
                    path.add(child)
                    stack.append((child, 0))
            else:
                stack.pop()
                path.discard(node)
                done.add(node)
    return None
