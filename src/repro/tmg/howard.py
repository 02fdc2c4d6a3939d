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

The kernel has two forms of one iteration.  Below ``_ARRAY_MIN_NODES``
nodes an SCC runs the list form (:class:`_Scc`), whose pure-Python loops
win on small graphs.  From there on it runs the array form
(:class:`_ArrayScc`), which replays the list form decision for decision
with numpy: pointer doubling evaluates a policy, and a vector Jacobi pass
plus an ascending visit of the nodes whose values moved reproduces the
in-order improvement sweep.  Where it cannot replay exactly (an int64
bound, a positive self-loop, a token-free policy cycle) it reruns the SCC
on the list form, so both forms return the same ``(ratio, cycle,
places)`` and raise the same errors on every input.

:func:`maximum_cycle_ratio` checks liveness first;
:func:`repro.tmg.analysis.analyze_event_graph`, which checks it itself,
calls the unchecked :func:`_maximum_cycle_ratio`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import Any, NamedTuple, Sequence, Union

import numpy as np
import numpy.typing as npt

from repro.errors import NotLiveError
from repro.tmg.deadlock import find_token_free_cycle
from repro.tmg.event_graph import EventGraph, _components

Number = Union[Fraction, float]

#: SCCs with at least this many nodes run the array form.  Howard on one
#: SCC, list vs array, medians of 15 interleaved pairs on one core of an
#: Intel Xeon: 77 nodes 0.4 vs 1.2 ms, 307 nodes 1.7 vs 2.2 ms, 446 and
#: 539 nodes even, 576-610 nodes 7-20 % faster as arrays, 1,471 nodes
#: 12.7 vs 7.7 ms (docs/API.md).
_ARRAY_MIN_NODES = 600

#: Every int64 the array form computes stays below this magnitude, so no
#: sum of two of them can wrap.
_INT64_SAFE = 2**62

_Ints = npt.NDArray[np.int64]
_Index = npt.NDArray[np.intp]
_Index32 = npt.NDArray[np.int32]
_Mask = npt.NDArray[np.bool_]


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
        NotLiveError: If a cycle carries zero tokens.
    """
    cycle = find_token_free_cycle(graph)
    if cycle is not None:
        raise NotLiveError(
            "event graph has a token-free cycle through " + " -> ".join(cycle),
            cycle=cycle,
        )
    return _maximum_cycle_ratio(graph, exact)


def _maximum_cycle_ratio(
    graph: EventGraph, exact: bool
) -> CycleRatioResult | None:
    """:func:`maximum_cycle_ratio` without the liveness check; a token-free
    cycle raises only if policy iteration happens to select it."""
    best: tuple[int, int, list[int], list[int]] | None = None
    local = [-1] * len(graph.names)
    for component in _components(graph):
        csr = _csr(graph, component, local)
        if not csr.target:
            continue  # trivial SCC: no cycle through it
        edges = csr.edges
        scc = _scc(csr)
        del csr  # the array form keeps no list copy
        num, den, nodes, cycle_edges = scc.howard()
        if best is None or num * best[1] > best[0] * den:
            best = (
                num,
                den,
                [component[u] for u in nodes],
                [edges[e] for e in cycle_edges],
            )
    if best is None:
        return None
    ratio = Fraction(best[0], best[1])
    names, place, place_name = graph.names, graph.place, graph.place_name
    return CycleRatioResult(
        ratio=ratio if exact else float(ratio),
        cycle=tuple(names[u] for u in best[2]),
        places=tuple(place_name(place[e]) for e in best[3]),
    )


class _Csr(NamedTuple):
    """One component's CSR lists: local node ``u`` is graph node
    ``nodes[u]``, named ``names[nodes[u]]``; its out-edges inside the
    component are ``start[u]:start[u + 1]``, in the graph's edge order,
    and local edge ``e`` is graph edge ``edges[e]``."""

    names: Sequence[str]
    nodes: list[int]
    start: list[int]
    target: list[int]
    delay: list[int]
    tokens: list[int]
    edges: list[int]

    def node_names(self, nodes: list[int]) -> list[str]:
        return [self.names[self.nodes[u]] for u in nodes]


def _csr(
    graph: EventGraph, component: list[int], local: list[int] | None = None
) -> _Csr:
    """The CSR lists of one component of ``graph``.

    ``local`` is scratch space: ``-1`` for every graph node on entry and
    on return (allocated when not given).
    """
    if local is None:
        local = [-1] * len(graph.names)
    for u, node in enumerate(component):
        local[node] = u
    g_start, g_target = graph.start, graph.target
    g_delay, g_tokens = graph.delay, graph.tokens
    start = [0]
    target: list[int] = []
    delay: list[int] = []
    tokens: list[int] = []
    edges: list[int] = []
    for node in component:
        for e in range(g_start[node], g_start[node + 1]):
            t = local[g_target[e]]
            if t >= 0:
                target.append(t)
                delay.append(g_delay[e])
                tokens.append(g_tokens[e])
                edges.append(e)
        start.append(len(target))
    for node in component:
        local[node] = -1
    return _Csr(graph.names, component, start, target, delay, tokens, edges)


def _scc(csr: _Csr) -> _Scc | _ArrayScc:
    """The kernel form for one component (see the module docstring)."""
    if len(csr.nodes) >= _ARRAY_MIN_NODES:
        try:
            return _ArrayScc(csr)
        except _Fallback:
            pass
    return _Scc(csr)


def _token_free(names: list[str]) -> NotLiveError:
    return NotLiveError(
        "event graph has a token-free cycle through " + " -> ".join(names),
        cycle=names,
    )


class _Scc:
    """One strongly connected component as integer CSR lists (see
    :class:`_Csr`)."""

    def __init__(self, csr: _Csr):
        self.csr = csr
        self.n = len(csr.nodes)
        self.start, self.target, self.delay, self.tokens = (
            csr.start, csr.target, csr.delay, csr.tokens
        )

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
        n = self.n
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
        n = self.n
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
                    raise _token_free(self.csr.node_names(cycle))
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
            u for u in range(self.n)
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
                raise _token_free(self.csr.node_names(nodes))
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
        n = self.n
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


class _Fallback(Exception):
    """The array form cannot replay this SCC exactly; use the list form."""


class _ArrayScc:
    """The list form's SCC and policy iteration over numpy arrays.

    Every decision equals the list form's: the same policies, pinned
    nodes, potentials and tie-breaks, hence the same result.  Anything the
    arrays cannot replay exactly raises :class:`_Fallback`, and
    :meth:`howard` then reruns the SCC on :class:`_Scc`.  Node and edge
    indices are int32 and gathered with ``np.take``; values are int64.
    """

    def __init__(self, csr: _Csr):
        self.names, self.nodes = csr.names, csr.nodes
        start, target, delay, tokens = csr.start, csr.target, csr.delay, csr.tokens
        n = len(self.nodes)
        self.delay_max = max(max(delay), -min(delay))
        self.tokens_max = max(tokens)
        if n * max(self.delay_max, self.tokens_max) >= _INT64_SAFE:
            raise _Fallback  # a cycle's sums could leave int64
        self.levels = max(1, (n - 1).bit_length())  # 2**levels >= n
        self.start: _Index = np.array(start, dtype=np.intp)
        self.target: _Index32 = np.array(target, dtype=np.int32)
        self.delay: _Ints = np.array(delay, dtype=np.int64)
        self.tokens: _Ints = np.array(tokens, dtype=np.int64)
        del start, target, delay, tokens
        self.source: _Index32 = np.repeat(
            np.arange(n, dtype=np.int32), np.diff(self.start)
        )
        self.loops: _Index = np.flatnonzero(self.target == self.source)
        # The descending edges (target below source) as a reverse CSR: the
        # in-order sweep reads the final value of exactly these targets.
        down = np.flatnonzero(self.target < self.source)
        down = down[np.argsort(self.target.take(down), kind="stable")]
        self.down_edge: _Index32 = down.astype(np.int32)
        self.down_source: _Index32 = self.source.take(down)
        self.down_start: _Index = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(self.target.take(down), minlength=n),
                  out=self.down_start[1:])

    def howard(self) -> tuple[int, int, list[int], list[int]]:
        """:meth:`_Scc.howard`, replayed on arrays."""
        try:
            return self._iterate()
        except _Fallback:
            return self._lists().howard()

    def _lists(self) -> _Scc:
        """The list form of this SCC, rebuilt from the arrays (every value
        fits int64, so the ints are exact)."""
        return _Scc(_Csr(
            self.names,
            self.nodes,
            self.start.tolist(),
            self.target.tolist(),
            self.delay.tolist(),
            self.tokens.tolist(),
            [],
        ))

    def _iterate(self) -> tuple[int, int, list[int], list[int]]:
        n = len(self.nodes)
        policy: _Index32 = self.start[:-1].astype(np.int32)
        stagnation_limit = n + 8

        best_num, best_den = 0, 0
        best_pin, best_policy = 0, policy  # the best cycle, read at the end
        stagnant = 0
        converged = False

        for _ in range(10 * n + 1000):
            rank, pot, ratios, pin = self._evaluate(policy)
            num, den = ratios[int(rank[pin])]
            if best_den == 0 or num * best_den > best_num * den:
                best_num, best_den = num, den
                best_pin, best_policy = pin, policy.copy()
                stagnant = 0

            if len(ratios) > 1 and self._improve(policy, rank):
                stagnant = 0
                continue
            if not self._improve(policy, pot, self._weight(rank, ratios)):
                converged = True
                break
            stagnant += 1
            if stagnant > stagnation_limit:
                break
        f = self.target.take(best_policy).tolist()
        nodes = [best_pin]
        while f[nodes[-1]] != best_pin:
            nodes.append(f[nodes[-1]])
        edges = best_policy.take(nodes).tolist()
        if converged:
            return best_num, best_den, nodes, edges
        return self._lists().complete(best_num, best_den, nodes, edges)

    def _evaluate(
        self, policy: _Index32
    ) -> tuple[_Index32, _Ints, list[tuple[int, int]], int]:
        """:meth:`_Scc._evaluate` by pointer doubling on ``f = target[policy]``.

        Returns ``(rank, pot, ratios, pin)``: ``rank``, ``pot`` and
        ``ratios`` as there, and ``pin`` the pinned node of the first-found
        cycle of maximal ratio.
        """
        n = len(self.nodes)
        f: _Index32 = self.target.take(policy)
        on_cycle, label = _cycles(f, self.levels)
        # The list form walks roots in index order, so it finds each cycle
        # from the smallest node of its basin and pins the first cycle
        # node that root reaches.
        root: _Index32 = np.full(n, n, dtype=np.int32)
        np.minimum.at(root, label, np.arange(n, dtype=np.int32))
        labels = np.flatnonzero(root < n)
        found = labels[np.argsort(root.take(labels))]  # discovery order
        cycles = len(found)
        pins = _first_in(f, on_cycle).take(root.take(found))
        index = root  # reused: the discovery index of each cycle label
        index[found] = np.arange(cycles, dtype=np.int32)
        cls = index.take(label)
        del root, index, label

        delay = self.delay.take(policy)
        tokens = self.tokens.take(policy)
        members = np.flatnonzero(on_cycle)
        member_cls = cls.take(members)
        delay_sum: _Ints = np.zeros(cycles, dtype=np.int64)
        token_sum: _Ints = np.zeros(cycles, dtype=np.int64)
        np.add.at(delay_sum, member_cls, delay.take(members))
        np.add.at(token_sum, member_cls, tokens.take(members))
        if not token_sum.all():
            raise _Fallback  # the list form raises NotLiveError here
        g = np.gcd(delay_sum, token_sum)
        cycle_num = delay_sum // g
        cycle_den = token_sum // g
        num_max = int(np.abs(cycle_num).max())
        den_max = int(cycle_den.max())
        if 2 * n * (self.delay_max * den_max + num_max * self.tokens_max) >= (
            _INT64_SAFE
        ):
            raise _Fallback

        pairs = list(zip(cycle_num.tolist(), cycle_den.tolist()))
        if cycles == 1:
            ratios = pairs
        else:
            ratios = sorted(
                set(pairs),
                key=cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1]),
            )
        rank_of = {ratio: r for r, ratio in enumerate(ratios)}
        cycle_rank = np.array([rank_of[p] for p in pairs], dtype=np.int32)
        top = int(np.argmax(cycle_rank))  # first found of maximal ratio

        delay *= cycle_den.take(cls)
        tokens *= cycle_num.take(cls)
        delay -= tokens  # the scaled weight of each node's policy edge
        pinned: _Mask = np.zeros(n, dtype=np.bool_)
        pinned[pins] = True
        pot = _sum_to(f, delay, pinned)
        return cycle_rank.take(cls), pot, ratios, int(pins[top])

    def _weight(self, rank: _Index32, ratios: list[tuple[int, int]]) -> _Ints:
        """Per edge, ``d·den − num·m`` at its source's ratio, or
        ``−_INT64_SAFE`` (an offer no potential takes) between ranks."""
        weight: _Ints
        if len(ratios) == 1:
            ((num, den),) = ratios
            weight = self.delay * den - num * self.tokens
        else:
            rank_from = rank.take(self.source)
            nums = np.array([num for num, _ in ratios], dtype=np.int64)
            dens = np.array([den for _, den in ratios], dtype=np.int64)
            weight = self.delay * dens.take(rank_from)
            weight -= nums.take(rank_from) * self.tokens
            weight[rank.take(self.target) != rank_from] = -_INT64_SAFE
        if (weight.take(self.loops) > 0).any():
            raise _Fallback  # the sweep would read its own fresh value
        return weight

    def _improve(
        self,
        policy: _Index32,
        old: npt.NDArray[np.signedinteger[Any]],
        weight: _Ints | None = None,
    ) -> bool:
        """One in-order improvement sweep of :meth:`_Scc.howard`.

        Without ``weight`` this is the first criterion and ``old`` is the
        rank; with it, the second, ``old`` is the potential, and an edge
        offers its target's potential plus its weight.  The sweep reads
        the new value of targets below ``u`` and the old value of the
        rest.  A vector Jacobi pass (old values everywhere) already gives
        every node whose descending targets keep their values its final
        value; :func:`_settle` finishes the others.  Each improved node
        takes its first edge that attains the new value.  Updates
        ``policy``; True iff any node improved.
        """
        offer = old.take(self.target)
        if weight is not None:
            offer += weight
        new = np.maximum(old, np.maximum.reduceat(offer, self.start[:-1]))
        del offer
        changed = new > old
        if not changed.any():
            return False
        _settle(
            new,
            self.down_start,
            self.down_source,
            np.zeros(len(self.down_edge), dtype=np.int64)
            if weight is None
            else weight.take(self.down_edge),
            bytearray(changed),
        )

        nodes = np.flatnonzero(new > old)
        first = self.start.take(nodes)
        count = self.start.take(nodes + 1) - first
        ends = np.cumsum(count)
        at = np.arange(int(ends[-1]))  # the out-edges of the improved nodes
        at += np.repeat(first - ends + count, count)
        source = np.repeat(nodes, count)
        target = self.target.take(at)
        seen = np.where(target < source, new.take(target), old.take(target))
        if weight is not None:
            seen += weight.take(at)
        hit = np.flatnonzero(seen == np.repeat(new.take(nodes), count))
        hit_source = source.take(hit)
        first_hit = np.ones(len(hit), dtype=np.bool_)
        first_hit[1:] = hit_source[1:] != hit_source[:-1]
        policy[hit_source[first_hit]] = at.take(hit[first_hit])
        return True


def _settle(
    value: npt.NDArray[np.signedinteger[Any]],
    down_start: _Index,
    down_source: _Index32,
    down_weight: _Ints,
    pending: bytearray,
) -> None:
    """Finish an in-order sweep after its Jacobi pass.

    ``pending`` flags the nodes whose value changed.  Visiting them in
    ascending order, each raises its descending predecessors ``u`` (edges
    ``u → t`` with ``t < u``, the reverse CSR ``down_*``) to at least its
    value plus the edge's weight, and flags those it raised.  A node is
    visited after every smaller one, so its value is final by then and it
    is visited once: the sweep's own order, restricted to where values
    move.  The loop runs on memoryviews of the arrays (``.data``), element
    by element.
    """
    values = value.data
    start = down_start.data
    source = down_source.data
    weight = down_weight.data
    t = pending.find(1)
    while t >= 0:
        offer = values[t]
        for k in range(start[t], start[t + 1]):
            u = source[k]
            candidate = offer + weight[k]
            if candidate > values[u]:
                values[u] = candidate
                pending[u] = 1
        t = pending.find(1, t + 1)


def _cycles(f: _Index32, levels: int) -> tuple[_Mask, _Index32]:
    """Which nodes lie on a cycle of ``f``, and per node the smallest node
    of the cycle it reaches.  ``f^(2**levels)`` with ``2**levels >= n``
    puts every node on its cycle, and the minimum doubled alongside covers
    a whole cycle."""
    hop = f
    low: _Index32 = np.arange(len(f), dtype=np.int32)
    for _ in range(levels):
        low = np.minimum(low, low.take(hop))
        hop = hop.take(hop)
    on_cycle: _Mask = np.zeros(len(f), dtype=np.bool_)
    on_cycle[hop] = True
    return on_cycle, low.take(hop)


def _first_in(f: _Index32, stop: _Mask) -> _Index32:
    """Per node, the first node of ``stop`` on its ``f``-path.  Every path
    reaches one, and only ``stop`` nodes are fixed points of ``f``."""
    hop = np.where(stop, np.arange(len(f), dtype=np.int32), f)
    while True:
        ahead = hop.take(hop)
        if np.array_equal(ahead, hop):
            return hop
        hop = ahead


def _sum_to(f: _Index32, weight: _Ints, stop: _Mask) -> _Ints:
    """Per node, the sum of ``weight`` along its ``f``-path up to the first
    node of ``stop``, which adds nothing (see :func:`_first_in`)."""
    hop = np.where(stop, np.arange(len(f), dtype=np.int32), f)
    total = np.where(stop, 0, weight)
    while True:
        ahead = hop.take(hop)
        if np.array_equal(ahead, hop):
            return total
        total += total.take(hop)
        hop = ahead

