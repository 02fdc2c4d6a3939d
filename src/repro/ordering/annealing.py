"""Simulated-annealing channel ordering: a stochastic-search baseline.

Algorithm 1 is an `O(E log E)` constructive heuristic.  To quantify how
much it leaves on the table, this module provides a classic local-search
alternative: start from a live ordering, propose random adjacent swaps in
one process's get or put order, evaluate the exact cycle time with the TMG
model, and accept by the Metropolis rule (deadlocking proposals are simply
rejected — their cycle time is infinite).

On the motivating example both reach the global optimum; on larger systems
annealing occasionally shaves a few percent more at orders of magnitude
more analysis calls — the trade the ablation benchmark quantifies.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from repro.core.system import ChannelOrdering, SystemGraph
from repro.errors import DeadlockError
from repro.model.performance import analyze_system
from repro.ordering.algorithm import channel_ordering
from repro.perf.engine import PerformanceEngine

Number = Union[Fraction, float]


@dataclass(frozen=True)
class AnnealingResult:
    """Outcome of an annealing run."""

    ordering: ChannelOrdering
    cycle_time: Number
    evaluations: int
    accepted: int
    initial_cycle_time: Number


def _swap_adjacent(
    ordering: ChannelOrdering, rng: random.Random, system: SystemGraph
) -> ChannelOrdering | None:
    """Propose one adjacent swap in a random worker's get or put order."""
    candidates = []
    for process in system.workers():
        if len(ordering.gets_of(process.name)) >= 2:
            candidates.append((process.name, "gets"))
        if len(ordering.puts_of(process.name)) >= 2:
            candidates.append((process.name, "puts"))
    if not candidates:
        return None
    name, side = rng.choice(candidates)
    order = list(
        ordering.gets_of(name) if side == "gets" else ordering.puts_of(name)
    )
    position = rng.randrange(len(order) - 1)
    order[position], order[position + 1] = order[position + 1], order[position]
    gets = dict(ordering.gets)
    puts = dict(ordering.puts)
    if side == "gets":
        gets[name] = tuple(order)
    else:
        puts[name] = tuple(order)
    return ChannelOrdering(gets=gets, puts=puts)


def anneal_ordering(
    system: SystemGraph,
    initial: ChannelOrdering | None = None,
    iterations: int = 400,
    seed: int = 0,
    initial_temperature: float | None = None,
    cooling: float = 0.985,
    perf_engine: PerformanceEngine | None = None,
) -> AnnealingResult:
    """Optimize a channel ordering by simulated annealing.

    Args:
        system: The system (with current latencies).
        initial: Starting ordering; defaults to Algorithm 1's output (a
            live, already-good start).  A deadlocking start is repaired by
            falling back to Algorithm 1.
        iterations: Proposal count (each costs one TMG analysis).
        seed: RNG seed; runs are deterministic.
        initial_temperature: Metropolis temperature; defaults to 5% of the
            starting cycle time.
        cooling: Geometric cooling factor per proposal.
        perf_engine: The :class:`~repro.perf.PerformanceEngine` serving the
            per-proposal analyses.  Defaults to a fresh engine per run; the
            random walk revisits orderings often, so memoized results cut
            the dominant cost directly.
    """
    rng = random.Random(seed)
    engine = perf_engine or PerformanceEngine()

    def evaluate(ordering: ChannelOrdering) -> Number:
        return analyze_system(system, ordering, perf_engine=engine).cycle_time

    if initial is None:
        current = channel_ordering(system)
    else:
        try:
            evaluate(initial)
            current = initial
        except DeadlockError:
            current = channel_ordering(system, initial_ordering=initial)

    current_ct = evaluate(current)
    initial_ct = current_ct
    best = current
    best_ct = current_ct

    temperature = (
        initial_temperature
        if initial_temperature is not None
        else max(1.0, 0.05 * float(current_ct))
    )
    evaluations = 0
    accepted = 0

    for _ in range(iterations):
        proposal = _swap_adjacent(current, rng, system)
        if proposal is None:
            break
        try:
            proposal_ct = evaluate(proposal)
        except DeadlockError:
            temperature *= cooling
            continue
        finally:
            evaluations += 1
        delta = float(proposal_ct) - float(current_ct)
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9)):
            current = proposal
            current_ct = proposal_ct
            accepted += 1
            if current_ct < best_ct:
                best = current
                best_ct = current_ct
        temperature *= cooling

    return AnnealingResult(
        ordering=best,
        cycle_time=best_ct,
        evaluations=evaluations,
        accepted=accepted,
        initial_cycle_time=initial_ct,
    )
