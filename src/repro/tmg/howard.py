"""Howard's policy-iteration algorithm for the maximum cycle ratio.

The paper computes the cycle time ``π(G)`` — the reciprocal of the minimum
cycle mean of Definition 3 — with Howard's algorithm
[Cochet-Terrasson et al. 1998], a policy-iteration scheme from the
stochastic-control community that is, in practice, the fastest known
minimum/maximum cycle ratio algorithm (Dasdan–Irani–Gupta).

On the event graph (see :mod:`repro.tmg.event_graph`) the cycle time is the
*maximum* ratio ``Σ delay / Σ tokens`` over cycles.  This module implements
maximum-cycle-ratio policy iteration directly:

* a *policy* selects one outgoing edge per node of a strongly connected
  component;
* *evaluation* finds the cycles of the policy's functional graph, giving
  each node the ratio ``λ`` of the cycle it reaches and a potential ``v``
  measuring its transient offset;
* *improvement* switches a node's policy edge whenever a neighbour promises
  a larger ``λ`` or, at equal ``λ``, a larger potential.

The kernel is exact and runs in integer arithmetic only.  Each SCC becomes
CSR arrays (``target``, ``delay``, ``tokens`` per edge) and the policy a list
of edge indices.  Every ``λ = num/den`` is a reduced int pair, and every
node potential is held scaled by its ``λ``'s denominator, so the evaluation
recurrence ``v[u] = v[t] + d − λ·m`` becomes ``V[u] = V[t] + d·den − num·m``.
Potentials are only ever compared between nodes of equal ``λ`` (hence equal
``den``), and ratios by cross-multiplication, so every decision is the one
exact rational arithmetic would make.  ``fractions.Fraction`` appears only
at the result boundary; float mode converts that same exact result.

Precondition: the graph has no token-free cycle (checked by callers via
:mod:`repro.tmg.deadlock`); otherwise the ratio is unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import Union

from repro.errors import NotLiveError
from repro.tmg.event_graph import Edge, EventGraph, strongly_connected_components

Number = Union[Fraction, float]


@dataclass(frozen=True)
class CycleRatioResult:
    """Outcome of a maximum-cycle-ratio computation.

    Attributes:
        ratio: ``max_c Σdelay(c)/Σtokens(c)``; the system cycle time when
            the graph models a live TMG.
        cycle: Transition names around one critical cycle, in order.
        places: Names of the contracted places along that cycle (one per
            edge), in the same order.
    """

    ratio: Number
    cycle: tuple[str, ...]
    places: tuple[str, ...]


def maximum_cycle_ratio(
    graph: EventGraph, exact: bool = True
) -> CycleRatioResult | None:
    """Maximum cycle ratio of an event graph via Howard policy iteration.

    Args:
        graph: The event graph (delays on edges toward their target
            transition, tokens from the contracted place).
        exact: Return the ratio as a :class:`fractions.Fraction`; otherwise
            as the nearest float to that same exact ratio.  The search and
            the reported critical cycle do not depend on this flag.

    Returns:
        The best :class:`CycleRatioResult` over all strongly connected
        components, or ``None`` if the graph is acyclic (no steady-state
        constraint).

    Raises:
        NotLiveError: If a reachable cycle carries zero tokens.
    """
    best: tuple[int, int, list[str], list[str]] | None = None
    for component in strongly_connected_components(graph):
        scc = _Scc(component, graph.succ)
        if not scc.target:
            continue  # trivial SCC: no cycle through it
        num, den, nodes, edges = scc.howard()
        if best is None or num * best[1] > best[0] * den:
            best = (
                num,
                den,
                [component[u] for u in nodes],
                [scc.edges[e].place for e in edges],
            )
    if best is None:
        return None
    ratio = Fraction(best[0], best[1])
    return CycleRatioResult(
        ratio=ratio if exact else float(ratio),
        cycle=tuple(best[2]),
        places=tuple(best[3]),
    )


class _Scc:
    """One strongly connected component as integer CSR arrays.

    Node ``u`` is ``component[u]``; its out-edges inside the component are
    ``start[u]:start[u + 1]``, in the graph's edge order.
    """

    def __init__(self, component: list[str], succ: dict[str, list[Edge]]):
        local = {name: u for u, name in enumerate(component)}
        self.names = component
        self.start = [0]
        self.target: list[int] = []
        self.delay: list[int] = []
        self.tokens: list[int] = []
        self.edges: list[Edge] = []
        for name in component:
            for edge in succ[name]:
                t = local.get(edge.target)
                if t is not None:
                    self.target.append(t)
                    self.delay.append(edge.delay)
                    self.tokens.append(edge.tokens)
                    self.edges.append(edge)
            self.start.append(len(self.target))

    def howard(self) -> tuple[int, int, list[int], list[int]]:
        """Policy iteration: ``(num, den, cycle nodes, cycle edges)``.

        Policy iteration's potential-improvement step compares potentials
        that are only anchored *per policy cycle*; when the policy graph
        carries two or more equal-ratio cycles, those comparisons can
        flip-flop the policy forever without changing the (already maximal)
        ratio.  The loop therefore watches for stagnation — potential-only
        switches that stop raising the best ratio — and completes with the
        provably terminating cycle-ratio iteration (:meth:`complete`).
        """
        n = len(self.names)
        start, target, delay, tokens = self.start, self.target, self.delay, self.tokens
        policy = start[:-1]
        stagnation_limit = n + 8

        best_num, best_den = 0, 0  # den 0: no round evaluated yet
        best_nodes: list[int] = []
        best_edges: list[int] = []
        stagnant = 0

        for _ in range(10 * n + 1000):
            rank, pot, ratios, cycle = self._evaluate(policy)
            num, den = ratios[rank[cycle[0]]]
            if best_den == 0 or num * best_den > best_num * den:
                best_num, best_den = num, den
                best_nodes, best_edges = cycle, [policy[u] for u in cycle]
                stagnant = 0

            improved = False
            # First criterion: chase a strictly better cycle ratio.
            if len(ratios) > 1:
                for u in range(n):
                    ru = rank[u]
                    for e in range(start[u], start[u + 1]):
                        rt = rank[target[e]]
                        if rt > ru:
                            policy[u] = e
                            rank[u] = ru = rt
                            improved = True
            if improved:
                stagnant = 0
                continue
            # Second criterion: same ratio, better potential.
            for u in range(n):
                ru = rank[u]
                num, den = ratios[ru]
                pu = pot[u]
                for e in range(start[u], start[u + 1]):
                    t = target[e]
                    if rank[t] != ru:
                        continue
                    candidate = pot[t] + delay[e] * den - num * tokens[e]
                    if candidate > pu:
                        policy[u] = e
                        pot[u] = pu = candidate
                        improved = True
            if not improved:
                return best_num, best_den, best_nodes, best_edges
            stagnant += 1
            if stagnant > stagnation_limit:
                break
        return self.complete(best_num, best_den, best_nodes, best_edges)

    def _evaluate(
        self, policy: list[int]
    ) -> tuple[list[int], list[int], list[tuple[int, int]], list[int]]:
        """Evaluate a policy.

        The policy's functional graph decomposes into cycles with in-trees
        hanging off them.  Every node inherits the ratio of the cycle its
        policy path reaches; scaled potentials satisfy
        ``V[u] = V[t] + d·den − num·m`` with one node per cycle pinned to 0.

        Returns ``(rank, pot, ratios, cycle)``: ``rank[u]`` indexes node
        ``u``'s ratio in ``ratios`` (distinct ``(num, den)`` pairs in
        ascending order, so ranks compare as the ratios do), ``pot[u]`` its
        scaled potential, and ``cycle`` the nodes of the first-found policy
        cycle of maximal ratio.
        """
        n = len(self.names)
        target, delay, tokens = self.target, self.delay, self.tokens
        cls = [0] * n  # index into `found` of the cycle each node reaches
        pot = [0] * n
        state = [0] * n  # 0 = unvisited, 1 = on path, 2 = done
        found: list[tuple[int, int]] = []
        top = -1
        top_cycle: list[int] = []

        for root in range(n):
            if state[root]:
                continue
            # Walk the policy path until we hit a finished node or close a cycle.
            path = []
            node = root
            while not state[node]:
                state[node] = 1
                path.append(node)
                node = target[policy[node]]
            if state[node] == 1:
                # Closed a new cycle at `node`: evaluate it.
                cycle = path[path.index(node):]
                delay_sum = token_sum = 0
                for u in cycle:
                    e = policy[u]
                    delay_sum += delay[e]
                    token_sum += tokens[e]
                if token_sum == 0:
                    names = [self.names[u] for u in cycle]
                    raise NotLiveError(
                        "event graph has a token-free cycle through "
                        + " -> ".join(names),
                        cycle=names,
                    )
                g = gcd(delay_sum, token_sum)
                num, den = delay_sum // g, token_sum // g
                c = len(found)
                found.append((num, den))
                if top < 0 or num * found[top][1] > found[top][0] * den:
                    top, top_cycle = c, cycle
                # Pin the closing node, then propagate potentials backward
                # around the cycle.
                cls[node] = c
                for u in reversed(cycle[1:]):
                    e = policy[u]
                    cls[u] = c
                    pot[u] = pot[target[e]] + delay[e] * den - num * tokens[e]
                for u in cycle:
                    state[u] = 2
            # Resolve the remaining path (tree part) in reverse order.
            for u in reversed(path):
                if state[u] == 2:
                    continue
                e = policy[u]
                t = target[e]
                c = cls[t]
                num, den = found[c]
                cls[u] = c
                pot[u] = pot[t] + delay[e] * den - num * tokens[e]
                state[u] = 2

        if len(found) == 1:
            return cls, pot, found, top_cycle
        order = sorted(
            range(len(found)),
            key=cmp_to_key(
                lambda a, b: found[a][0] * found[b][1] - found[b][0] * found[a][1]
            ),
        )
        ratios: list[tuple[int, int]] = []
        rank_of = [0] * len(found)
        for c in order:
            if not ratios or found[c] != ratios[-1]:
                ratios.append(found[c])
            rank_of[c] = len(ratios) - 1
        return [rank_of[c] for c in cls], pot, ratios, top_cycle

    def complete(
        self, num: int, den: int, nodes: list[int], edges: list[int]
    ) -> tuple[int, int, list[int], list[int]]:
        """Exact completion: raise ``num/den`` through positive cycles until
        none remains.  Each found cycle has a strictly larger ratio and
        ratios come from the finite set of simple-cycle ratios, so this
        terminates; no positive cycle certifies optimality."""
        source = [
            u for u in range(len(self.names))
            for _ in range(self.start[u], self.start[u + 1])
        ]
        while True:
            found = self._positive_cycle(num, den, source)
            if found is None:
                return num, den, nodes, edges
            nodes = [source[e] for e in found]
            delay_sum = sum(self.delay[e] for e in found)
            token_sum = sum(self.tokens[e] for e in found)
            if token_sum == 0:
                names = [self.names[u] for u in nodes]
                raise NotLiveError(
                    "event graph has a token-free cycle through "
                    + " -> ".join(names),
                    cycle=names,
                )
            g = gcd(delay_sum, token_sum)
            num, den, edges = delay_sum // g, token_sum // g, found

    def _positive_cycle(
        self, num: int, den: int, source: list[int]
    ) -> list[int] | None:
        """Edges of a cycle with ``Σ(d·den − num·m) > 0``, or ``None``.

        Longest-path Bellman–Ford over integer weights from an implicit
        all-zeros source with early exit; when relaxation survives ``|V|``
        rounds, the predecessor graph contains the witness cycle.
        """
        n = len(self.names)
        start, target = self.start, self.target
        weight = [d * den - num * m for d, m in zip(self.delay, self.tokens)]
        dist = [0] * n
        pred = [-1] * n
        last_changed = -1
        for _ in range(n):
            changed = False
            for u in range(n):
                base = dist[u]
                for e in range(start[u], start[u + 1]):
                    t = target[e]
                    candidate = base + weight[e]
                    if candidate > dist[t]:
                        dist[t] = candidate
                        pred[t] = e
                        changed = True
                        last_changed = t
            if not changed:
                return None

        # Still relaxing after |V| rounds: walk back to land on the cycle.
        node = last_changed
        for _ in range(n):
            node = source[pred[node]]
        cycle: list[int] = []
        cursor = node
        while True:
            e = pred[cursor]
            cycle.append(e)
            cursor = source[e]
            if cursor == node:
                break
        cycle.reverse()
        return cycle
