"""Liveness / deadlock detection on Timed Marked Graphs.

A strongly-connected TMG is live iff every cycle carries at least one token
(Commoner et al., 1971 — reference [3] of the paper).  Since the token count
of a cycle is invariant under firing, deadlock is a purely structural
property of ``(F, M0)``: the system deadlocks iff the subgraph of
*token-free* places contains a cycle.  That check is linear time — no
simulation required — which is what makes the paper's analysis practical.
"""

from __future__ import annotations

from repro.errors import NotLiveError
from repro.tmg.event_graph import EventGraph, build_event_graph
from repro.tmg.graph import TimedMarkedGraph


def find_token_free_cycle(graph: EventGraph) -> list[str] | None:
    """Return a token-free cycle as a transition-name list, or ``None``."""
    cycle = _token_free_cycle(graph.start, graph.target, graph.tokens)
    if cycle is None:
        return None
    return [graph.names[u] for u in cycle]


def _token_free_cycle(
    start: list[int], target: list[int], tokens: list[int]
) -> list[int] | None:
    """A token-free cycle of a CSR event graph as a node list, or ``None``.

    Runs a DFS over the subgraph of zero-token edges, roots in node order
    and edges in CSR order; the first back edge found closes the witness
    cycle.
    """
    n = len(start) - 1
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * n

    for root in range(n):
        if color[root] != WHITE:
            continue
        # Iterative DFS over [node, next edge] frames, keeping the gray
        # path for cycle extraction.
        path: list[int] = [root]
        work = [[root, start[root]]]
        color[root] = GRAY
        while work:
            frame = work[-1]
            node, e = frame
            end = start[node + 1]
            while e < end:
                if tokens[e] == 0:
                    child = target[e]
                    if color[child] == GRAY:
                        return path[path.index(child):]
                    if color[child] == WHITE:
                        frame[1] = e + 1
                        color[child] = GRAY
                        path.append(child)
                        work.append([child, start[child]])
                        break
                e += 1
            else:
                work.pop()
                path.pop()
                color[node] = BLACK
    return None


def is_live(tmg: TimedMarkedGraph) -> bool:
    """True iff no token-free cycle exists under the initial marking."""
    return find_token_free_cycle(build_event_graph(tmg)) is None


def assert_live(tmg: TimedMarkedGraph) -> None:
    """Raise :class:`~repro.errors.NotLiveError` with a witness cycle if the
    TMG can deadlock."""
    cycle = find_token_free_cycle(build_event_graph(tmg))
    if cycle is not None:
        raise NotLiveError(
            "timed marked graph is not live: token-free cycle through "
            + " -> ".join(cycle),
            cycle=cycle,
        )
