"""The memoized, incremental performance-analysis engine.

:class:`PerformanceEngine` is a drop-in substitute for
:func:`repro.model.performance.analyze_system` that makes *repeated*
analysis cheap — the single hottest lever of the DSE loop (ISSUE 1; see
also the exploration-cost arguments in Alias 2018 and Chavet et al.).
Three mechanisms stack, each preserving the uncached semantics:

1. **Result memoization** — a content-addressed LRU keyed on the full
   analysis fingerprint (structure + effective latencies + arithmetic
   mode).
   A hit returns the previously computed
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
   (:func:`repro.tmg.howard.maximum_cycle_ratio`), which iterates over
   integer CSR arrays with ratios as reduced ``(num, den)`` pairs and
   builds a :class:`~fractions.Fraction` only for the result.  Cycle time
   *and* critical cycle are therefore bit-identical to an uncached
   :func:`~repro.model.performance.analyze_system` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.system import ChannelOrdering, SystemGraph
from repro.errors import DeadlockError, NotLiveError
from repro.ir import LoweredIR, lower
from repro.model.build import effective_latencies
from repro.model.performance import (
    SystemPerformance,
    _system_deadlock,
    _system_performance,
)
from repro.perf.cache import MISS, CacheStats, LruCache
from repro.perf.fingerprint import analysis_fingerprint
from repro.perf.incremental import build_structure
from repro.store import ArtifactStore
from repro.tmg.analysis import analyze_event_graph


@dataclass(frozen=True)
class _CachedDeadlock:
    """A memoized deadlock diagnosis; re-raised as a fresh error per hit."""

    message: str
    cycle: tuple[str, ...]

    def error(self) -> DeadlockError:
        return DeadlockError(self.message, cycle=list(self.cycle))


class PerformanceEngine:
    """Cached :func:`~repro.model.performance.analyze_system`.

    Args:
        max_results: LRU bound of the full-result cache (entries are one
            small frozen dataclass each).
        max_structures: LRU bound of the event-graph structure cache
            (entries hold one event-graph skeleton; keep this modest).
            ``0`` disables structure reuse (every miss rebuilds it).
        store: Optional persistent :class:`~repro.store.ArtifactStore`
            layered *under* the results LRU: an LRU miss consults the
            store (kind ``"analysis"``, params digest = the analysis
            fingerprint) before recomputing, and every computed result —
            including memoized deadlock diagnoses — is written back.
            This is how a warm cache survives the process and is shared
            by every process using the same store; :meth:`clear` stays
            process-local (use ``store.clear()`` to drop the persisted
            entries).
        canonical_reuse: Opt-in second-chance store key by the
            orbit-canonical hash (:mod:`repro.sym`): when both the exact
            structural lookup and the plain store lookup miss, a
            persisted result computed for *any* isomorphic design with
            matching canonical-position latencies is translated into
            this design's name frame (:mod:`repro.sym.remap`) and
            served.  The cycle time is exact-identical; the reported
            critical cycle may be the symmetric image of the one a
            fresh analysis would pick.  Off by default so store warmth
            cannot perturb default DSE trajectories; no effect without a
            ``store``.  Deadlock diagnoses are never shared this way.
    """

    def __init__(
        self,
        max_results: int = 4096,
        max_structures: int = 128,
        store: ArtifactStore | None = None,
        canonical_reuse: bool = False,
    ):
        self.results = LruCache(max_results)
        self.structures = LruCache(max_structures)
        self.store = store
        self.canonical_reuse = canonical_reuse

    # ------------------------------------------------------------------

    def analyze(
        self,
        system: SystemGraph,
        ordering: ChannelOrdering | None = None,
        process_latencies: Mapping[str, int] | None = None,
        exact: bool = True,
    ) -> SystemPerformance:
        """Cycle time and critical cycle, served from cache when possible.

        Same signature, results, and raised errors as
        :func:`repro.model.performance.analyze_system`.
        """
        if ordering is None:
            ordering = ChannelOrdering.declaration_order(system)
        latencies = effective_latencies(system, process_latencies)
        ir = lower(system, ordering)
        structure_key = ir.structural_hash
        result_key = analysis_fingerprint(structure_key, latencies, exact)

        cached = self.results.get(result_key)
        if cached is not MISS:
            if isinstance(cached, _CachedDeadlock):
                raise cached.error()
            return cached

        if self.store is not None:
            stored = self.store.get(structure_key, "analysis", result_key)
            if stored is not MISS and isinstance(
                stored, (SystemPerformance, _CachedDeadlock)
            ):
                self.results.put(result_key, stored)
                if isinstance(stored, _CachedDeadlock):
                    raise stored.error()
                return stored
            if self.canonical_reuse:
                translated = self._canonical_lookup(ir, latencies, exact)
                if translated is not None:
                    self.results.put(result_key, translated)
                    return translated

        entry = self.structures.get(structure_key)
        if entry is MISS:
            entry = build_structure(ir)
            self.structures.put(structure_key, entry)
        if entry.deadlock_cycle is not None:
            error = _system_deadlock(
                ir.system_name,
                NotLiveError(
                    "token-free cycle", cycle=list(entry.deadlock_cycle)
                ),
            )
            diagnosis = _CachedDeadlock(str(error), tuple(error.cycle or ()))
            self.results.put(result_key, diagnosis)
            if self.store is not None:
                self.store.put(structure_key, "analysis", result_key, diagnosis)
            raise error

        report = analyze_event_graph(
            entry.instantiate(latencies), exact=exact, check_live=False
        )
        performance = _system_performance(report)
        self.results.put(result_key, performance)
        if self.store is not None:
            self.store.put(structure_key, "analysis", result_key, performance)
            if self.canonical_reuse:
                self._canonical_store(ir, latencies, exact, performance)
        return performance

    # ------------------------------------------------------------------

    def _canonical_lookup(
        self,
        ir: LoweredIR,
        latencies: Mapping[str, int],
        exact: bool,
    ) -> SystemPerformance | None:
        """Second-chance store read via the orbit-canonical key."""
        from repro.sym import analyze_symmetry
        from repro.sym.remap import canonical_result_key, remap_performance

        assert self.store is not None
        analysis = analyze_symmetry(ir)
        if not analysis.complete:
            return None  # incomplete labeling: hashes are not canonical
        key = canonical_result_key(analysis, latencies, exact)
        envelope = self.store.get(analysis.canonical_hash, "analysis", key)
        if envelope is MISS:
            return None
        return remap_performance(envelope, analysis)

    def _canonical_store(
        self,
        ir: LoweredIR,
        latencies: Mapping[str, int],
        exact: bool,
        performance: SystemPerformance,
    ) -> None:
        """Write the canonical-frame envelope next to the exact entry."""
        from repro.sym import analyze_symmetry
        from repro.sym.remap import canonical_result_key, make_envelope

        assert self.store is not None
        analysis = analyze_symmetry(ir)
        if not analysis.complete:
            return
        key = canonical_result_key(analysis, latencies, exact)
        self.store.put(
            analysis.canonical_hash,
            "analysis",
            key,
            make_envelope(performance, analysis),
        )

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

