"""Reference Howard policy iteration in ``fractions.Fraction`` arithmetic.

This is the pre-integer implementation of
the integer Howard kernel (:mod:`repro.tmg.howard`), kept verbatim
in algorithm — same SCC order, same node and edge scan order, same in-scan
policy/λ/potential updates, same stagnation completion — as the
differential oracle for the integer kernel.  Where the kernel holds
``(num, den)`` pairs and potentials scaled by ``den``, this module holds
one ``Fraction`` per value; the two must report the same ratio, critical
cycle, and places on every input.
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import NotLiveError
from repro.tmg.event_graph import EventGraph

from tests.tmg.decoded import (
    CycleRatioResult,
    Edge,
    strongly_connected_components,
)
from tests.tmg.decoded import succ as decoded_succ


def fraction_maximum_cycle_ratio(graph: EventGraph) -> CycleRatioResult | None:
    """Exact maximum cycle ratio by Fraction-arithmetic policy iteration."""
    best: CycleRatioResult | None = None
    adjacency = decoded_succ(graph)
    for component in strongly_connected_components(graph):
        members = set(component)
        succ = {
            u: [e for e in adjacency[u] if e.target in members] for u in component
        }
        if len(component) == 1 and not succ[component[0]]:
            continue
        result = _howard_scc(component, succ)
        if best is None or result.ratio > best.ratio:
            best = result
    return best


def _howard_scc(nodes: list[str], succ: dict[str, list[Edge]]) -> CycleRatioResult:
    policy: dict[str, Edge] = {u: succ[u][0] for u in nodes}
    max_iterations = 10 * len(nodes) + 1000
    stagnation_limit = len(nodes) + 8

    best_cycle: tuple[list[str], list[str]] = ([], [])
    best_ratio = Fraction(0)
    have_best = False
    stagnant = 0
    clean_convergence = False

    for _ in range(max_iterations):
        lam, pot, cycles = _evaluate_policy(nodes, policy)
        round_ratio, round_cycle = max(cycles, key=lambda item: item[0])
        if not have_best or round_ratio > best_ratio:
            best_ratio, best_cycle = round_ratio, round_cycle
            have_best = True
            stagnant = 0

        improved = False
        for u in nodes:
            for edge in succ[u]:
                if lam[edge.target] > lam[u]:
                    policy[u] = edge
                    lam[u] = lam[edge.target]
                    improved = True
        if improved:
            stagnant = 0
            continue
        for u in nodes:
            for edge in succ[u]:
                if lam[edge.target] != lam[u]:
                    continue
                candidate = pot[edge.target] + edge.delay - lam[u] * edge.tokens
                if candidate > pot[u]:
                    policy[u] = edge
                    pot[u] = candidate
                    improved = True
        if not improved:
            clean_convergence = True
            break
        stagnant += 1
        if stagnant > stagnation_limit:
            break

    if clean_convergence:
        return CycleRatioResult(
            ratio=best_ratio, cycle=tuple(best_cycle[0]), places=tuple(best_cycle[1])
        )
    return _ratio_iteration_completion(nodes, succ, best_ratio, best_cycle)


def _ratio_iteration_completion(
    nodes: list[str],
    succ: dict[str, list[Edge]],
    ratio: Fraction,
    cycle: tuple[list[str], list[str]],
) -> CycleRatioResult:
    while True:
        found = _find_positive_cycle(nodes, succ, ratio)
        if found is None:
            return CycleRatioResult(
                ratio=ratio, cycle=tuple(cycle[0]), places=tuple(cycle[1])
            )
        ratio = Fraction(sum(e.delay for e in found), sum(e.tokens for e in found))
        cycle = ([e.source for e in found], [e.place for e in found])


def _find_positive_cycle(
    nodes: list[str], succ: dict[str, list[Edge]], lam: Fraction
) -> list[Edge] | None:
    dist: dict[str, Fraction] = {u: Fraction(0) for u in nodes}
    pred: dict[str, Edge] = {}
    last_changed: str | None = None
    for _ in range(len(nodes)):
        changed = False
        for u in nodes:
            base = dist[u]
            for edge in succ[u]:
                candidate = base + edge.delay - lam * edge.tokens
                if candidate > dist[edge.target]:
                    dist[edge.target] = candidate
                    pred[edge.target] = edge
                    changed = True
                    last_changed = edge.target
        if not changed:
            return None
    assert last_changed is not None
    node = last_changed
    for _ in range(len(nodes)):
        node = pred[node].source
    cycle_edges: list[Edge] = []
    cursor = node
    while True:
        edge = pred[cursor]
        cycle_edges.append(edge)
        cursor = edge.source
        if cursor == node:
            break
    cycle_edges.reverse()
    return cycle_edges


def _evaluate_policy(nodes: list[str], policy: dict[str, Edge]) -> tuple[
    dict[str, Fraction],
    dict[str, Fraction],
    list[tuple[Fraction, tuple[list[str], list[str]]]],
]:
    lam: dict[str, Fraction] = {}
    pot: dict[str, Fraction] = {}
    cycles: list[tuple[Fraction, tuple[list[str], list[str]]]] = []
    state: dict[str, int] = {}
    for root in nodes:
        if state.get(root) == 2:
            continue
        path: list[str] = []
        node = root
        while state.get(node) is None:
            state[node] = 1
            path.append(node)
            node = policy[node].target
        if state[node] == 1:
            cycle_nodes = path[path.index(node):]
            delay_sum = sum(policy[u].delay for u in cycle_nodes)
            token_sum = sum(policy[u].tokens for u in cycle_nodes)
            if token_sum == 0:
                raise NotLiveError(
                    "event graph has a token-free cycle through "
                    + " -> ".join(cycle_nodes),
                    cycle=cycle_nodes,
                )
            ratio = Fraction(delay_sum, token_sum)
            cycles.append(
                (ratio, (cycle_nodes, [policy[u].place for u in cycle_nodes]))
            )
            anchor = cycle_nodes[0]
            lam[anchor] = ratio
            pot[anchor] = Fraction(0)
            for u in reversed(cycle_nodes[1:]):
                edge = policy[u]
                lam[u] = ratio
                pot[u] = pot[edge.target] + edge.delay - ratio * edge.tokens
            for u in cycle_nodes:
                state[u] = 2
        for u in reversed(path):
            if state[u] == 2:
                continue
            edge = policy[u]
            lam[u] = lam[edge.target]
            pot[u] = pot[edge.target] + edge.delay - lam[u] * edge.tokens
            state[u] = 2
    return lam, pot, cycles
