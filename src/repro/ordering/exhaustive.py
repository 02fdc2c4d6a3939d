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
from typing import Callable, Union

from repro.core.system import ChannelOrdering, SystemGraph, all_orderings
from repro.errors import DeadlockError
from repro.model.performance import analyze_system
from repro.perf.engine import PerformanceEngine

Number = Union[Fraction, float]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of exhaustively analyzing the ordering space.

    ``sym_deduped``/``sym_classes`` report the orbit dedup (see
    :func:`exhaustive_search`'s ``sym_dedup``): how many orderings were
    served from an already-analyzed symmetric representative, and how
    many distinct canonical classes were actually analyzed.  Both stay
    0 when the dedup is off.
    """

    total_orderings: int
    deadlocking_orderings: int
    best_cycle_time: Number | None
    best_ordering: ChannelOrdering | None
    worst_cycle_time: Number | None
    worst_ordering: ChannelOrdering | None
    sym_deduped: int = 0
    sym_classes: int = 0

    @property
    def live_orderings(self) -> int:
        return self.total_orderings - self.deadlocking_orderings


def exhaustive_search(
    system: SystemGraph,
    limit: int = 100_000,
    on_ordering: Callable[[ChannelOrdering, Number | None], None] | None = None,
    perf_engine: PerformanceEngine | None = None,
    sym_dedup: bool = False,
) -> SearchResult:
    """Analyze every channel ordering of ``system``.

    Args:
        system: The system to sweep (its order space must not exceed
            ``limit``).
        limit: Safety bound on the number of orderings to evaluate.
        on_ordering: Optional callback invoked per ordering with its cycle
            time (``None`` for deadlocking orders) — handy for histograms.
        perf_engine: Optional shared :class:`~repro.perf.PerformanceEngine`.
            Every ordering has a distinct fingerprint, so within one sweep
            the cache does not help; across repeated sweeps (tests,
            benchmarks) results hit the cache directly.
        sym_dedup: Analyze only one ordering per orbit of the design's
            automorphism group (:mod:`repro.sym`).  Two orderings whose
            lowered IRs share an orbit-canonical hash *and* whose
            canonical-position latency vectors match denote isomorphic
            timed marked graphs, so the representative's exact cycle
            time is replayed for the whole class — every counter,
            callback, and best/worst comparison still fires per
            ordering, making the result bit-identical to the undeduped
            sweep.

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
    best: tuple[Number, ChannelOrdering] | None = None
    worst: tuple[Number, ChannelOrdering] | None = None
    # Orbit memo: (canonical_hash, canonical latency vector) -> cycle
    # time, or None for a deadlocking class.
    memo: dict[tuple[str, tuple[int, ...]], Number | None] = {}
    deduped = 0

    def class_key(
        ordering: ChannelOrdering,
    ) -> tuple[str, tuple[int, ...]] | None:
        from repro.ir import lower
        from repro.sym import analyze_symmetry, declared_seeds

        ir = lower(system, ordering)
        seeds = (
            declared_seeds(ir, system.declared_families)
            if system.declared_families
            else ()
        )
        analysis = analyze_symmetry(ir, seeds=seeds)
        if not analysis.complete:
            return None  # budget-capped labeling: analyze concretely
        latencies = tuple(
            system.process(name).latency
            for name in analysis.canonical_process_names
        )
        return (analysis.canonical_hash, latencies)

    for ordering in all_orderings(system):
        total += 1
        key = class_key(ordering) if sym_dedup else None
        if key is not None and key in memo:
            deduped += 1
            ct_memo = memo[key]
            if ct_memo is None:
                deadlocks += 1
                if on_ordering is not None:
                    on_ordering(ordering, None)
                continue
            ct = ct_memo
        else:
            try:
                performance = analyze_system(
                    system, ordering, perf_engine=perf_engine
                )
            except DeadlockError:
                deadlocks += 1
                if key is not None:
                    memo[key] = None
                if on_ordering is not None:
                    on_ordering(ordering, None)
                continue
            ct = performance.cycle_time
            if key is not None:
                memo[key] = ct
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
        sym_deduped=deduped,
        sym_classes=len(memo),
    )
