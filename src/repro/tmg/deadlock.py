"""Liveness / deadlock detection on Timed Marked Graphs.

A strongly-connected TMG is live iff every cycle carries at least one token
(Commoner et al., 1971 — reference [3] of the paper).  Since the token count
of a cycle is invariant under firing, deadlock is a purely structural
property of ``(F, M0)``: the system deadlocks iff the subgraph of
*token-free* places contains a cycle.  That check is linear time — no
simulation required — which is what makes the paper's analysis practical.
"""

from __future__ import annotations

from repro.tmg.event_graph import EventGraph


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
    cursor = list(start[:-1])  # per node, its next unexplored edge

    for root in range(n):
        if color[root] != WHITE:
            continue
        # Iterative DFS: the gray path is the work stack, and a back edge
        # closes the witness cycle on it.
        path: list[int] = [root]
        color[root] = GRAY
        while path:
            node = path[-1]
            e = cursor[node]
            end = start[node + 1]
            while e < end:
                if tokens[e] == 0:
                    child = target[e]
                    if color[child] == GRAY:
                        return path[path.index(child):]
                    if color[child] == WHITE:
                        cursor[node] = e + 1
                        color[child] = GRAY
                        path.append(child)
                        break
                e += 1
            else:
                path.pop()
                color[node] = BLACK
    return None
