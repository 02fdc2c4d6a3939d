"""The memoized, incremental performance-analysis engine.

:class:`PerformanceEngine` is a drop-in substitute for
:func:`repro.model.performance.analyze_system` that makes *repeated*
analysis cheap — the single hottest lever of the DSE loop (ISSUE 1; see
also the exploration-cost arguments in Alias 2018 and Chavet et al.).
Three mechanisms stack, each preserving the uncached semantics:

1. **Result memoization** — an LRU keyed on the lowered IR plus the
   effective latencies in pid order.  A hit returns the previously computed
   :class:`~repro.model.performance.SystemPerformance` (or re-raises the
   previously diagnosed :class:`~repro.errors.DeadlockError`) without any
   graph work.  Values are frozen dataclasses, safe to share.
2. **Incremental event graphs** — on a result miss whose *structure*
   (topology + channel parameters + ordering) was seen before, the cached
   event-graph skeleton is re-instantiated with patched process delays in
   O(E), skipping the marked-graph construction, place contraction,
   ordering validation, and the token-free-cycle scan (liveness is
   structural).
   Node and edge order are preserved exactly, so results are
   bit-identical to a from-scratch build.
3. **Exact integer Howard** — every miss runs the one Howard kernel
   (:func:`repro.tmg.analysis.analyze_event_graph`, unchecked, since the
   structure's ``circular_wait`` has already decided liveness), which
   iterates over integer CSR arrays with ratios as reduced ``(num, den)``
   pairs and builds a :class:`~fractions.Fraction` only for the result.
   The critical cycle comes back as node and edge ids, and the structure
   decodes its processes and channels by index.  Cycle time *and*
   critical cycle are therefore bit-identical to an uncached
   :func:`~repro.model.performance.analyze_system` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.cache import MISS, CacheStats, LruCache
from repro.core.system import ChannelOrdering, SystemGraph
from repro.errors import DeadlockError
from repro.ir import lower
from repro.model.build import effective_latencies
from repro.model.performance import (
    SystemPerformance,
    _system_deadlock,
    _system_performance,
)
from repro.perf.incremental import build_structure
from repro.tmg.analysis import analyze_event_graph


@dataclass(frozen=True)
class _CachedDeadlock:
    """A memoized deadlock diagnosis; re-raised as a fresh error per hit."""

    message: str
    cycle: tuple[str, ...]

    def error(self) -> DeadlockError:
        return DeadlockError(self.message, cycle=list(self.cycle))


#: LRU bound of the full-result cache (one small frozen dataclass each).
MAX_RESULTS = 4096
#: LRU bound of the structure cache (one event-graph skeleton each).
MAX_STRUCTURES = 128


class PerformanceEngine:
    """Cached :func:`~repro.model.performance.analyze_system`."""

    def __init__(self) -> None:
        self.results = LruCache(MAX_RESULTS)
        self.structures = LruCache(MAX_STRUCTURES)

    # ------------------------------------------------------------------

    def analyze(
        self,
        system: SystemGraph,
        ordering: ChannelOrdering | None = None,
        process_latencies: Mapping[str, int] | None = None,
    ) -> SystemPerformance:
        """Cycle time and critical cycle, served from cache when possible.

        Same results and raised errors as
        :func:`repro.model.performance.analyze_system`.
        """
        if ordering is None:
            ordering = ChannelOrdering.declaration_order(system)
        latencies = effective_latencies(system, process_latencies)
        ir = lower(system, ordering)
        # ``effective_latencies`` lists the processes in pid order.
        result_key = (ir, tuple(latencies.values()))

        cached = self.results.get(result_key)
        if cached is not MISS:
            if isinstance(cached, _CachedDeadlock):
                raise cached.error()
            return cached

        entry = self.structures.get(ir)
        if entry is MISS:
            entry = build_structure(ir)
            self.structures.put(ir, entry)
        if entry.circular_wait is not None:
            error = _system_deadlock(ir.system_name, entry.circular_wait)
            diagnosis = _CachedDeadlock(str(error), tuple(error.cycle or ()))
            self.results.put(result_key, diagnosis)
            raise error

        report = analyze_event_graph(entry.instantiate(latencies))
        performance = _system_performance(entry, report)
        self.results.put(result_key, performance)
        return performance

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, CacheStats]:
        """Live counters of both caches (``results`` and ``structures``)."""
        return {"results": self.results.stats, "structures": self.structures.stats}

    def stats_dict(self) -> dict[str, dict[str, int | float]]:
        """JSON-friendly snapshot of :meth:`stats`."""
        return {name: s.as_dict() for name, s in self.stats().items()}

    def format_stats(self) -> str:
        """Human-readable cache report (one line per cache)."""
        lines = []
        for name, s in self.stats().items():
            lines.append(f"{name:>10}: {s}")
        return "\n".join(lines)

    def clear(self) -> None:
        """Drop all cached entries (counters are retained)."""
        self.results.clear()
        self.structures.clear()

