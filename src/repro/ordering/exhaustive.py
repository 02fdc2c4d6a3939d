"""Exhaustive ordering search: the exact oracle for small systems.

Section 2 observes that the order space grows as
``prod_p |in(p)|! * |out(p)|!`` (36 already for the five-process example),
which is why Algorithm 1 exists.  For systems small enough to enumerate,
this module classifies every ordering (deadlocking or live, with its cycle
time) and returns the true optimum — the reference that the algorithm's
output is checked against in tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from repro.core.system import ChannelOrdering, SystemGraph, all_orderings
from repro.errors import DeadlockError
from repro.model.performance import analyze_system
from repro.perf.engine import PerformanceEngine


@dataclass(frozen=True)
class SearchResult:
    """Outcome of exhaustively analyzing the ordering space."""

    total_orderings: int
    deadlocking_orderings: int
    best_cycle_time: Fraction | None
    best_ordering: ChannelOrdering | None
    worst_cycle_time: Fraction | None
    worst_ordering: ChannelOrdering | None

    @property
    def live_orderings(self) -> int:
        return self.total_orderings - self.deadlocking_orderings


def exhaustive_search(
    system: SystemGraph,
    limit: int = 100_000,
    on_ordering: (
        Callable[[ChannelOrdering, Fraction | None], None] | None
    ) = None,
    perf_engine: PerformanceEngine | None = None,
) -> SearchResult:
    """Analyze every channel ordering of ``system``.

    Args:
        system: The system to sweep (its order space must not exceed
            ``limit``).
        limit: Safety bound on the number of orderings to evaluate.
        on_ordering: Optional callback invoked per ordering with its cycle
            time (``None`` for deadlocking orders) — handy for histograms.
        perf_engine: Optional shared :class:`~repro.perf.PerformanceEngine`.
            Every ordering has a distinct structure, so within one sweep
            the cache does not help; across repeated sweeps (tests,
            benchmarks) results hit the cache directly.

    Raises:
        ValueError: The order space exceeds ``limit``.
    """
    space = system.order_space_size()
    if space > limit:
        raise ValueError(
            f"order space of {system.name!r} is {space}, above the limit "
            f"{limit}; use channel_ordering() instead of exhaustive search"
        )

    total = 0
    deadlocks = 0
    best: tuple[Fraction, ChannelOrdering] | None = None
    worst: tuple[Fraction, ChannelOrdering] | None = None
    for ordering in all_orderings(system):
        total += 1
        try:
            performance = analyze_system(
                system, ordering, perf_engine=perf_engine
            )
        except DeadlockError:
            deadlocks += 1
            if on_ordering is not None:
                on_ordering(ordering, None)
            continue
        ct = performance.cycle_time
        if on_ordering is not None:
            on_ordering(ordering, ct)
        if best is None or ct < best[0]:
            best = (ct, ordering)
        if worst is None or ct > worst[0]:
            worst = (ct, ordering)

    return SearchResult(
        total_orderings=total,
        deadlocking_orderings=deadlocks,
        best_cycle_time=best[0] if best else None,
        best_ordering=best[1] if best else None,
        worst_cycle_time=worst[0] if worst else None,
        worst_ordering=worst[1] if worst else None,
    )
