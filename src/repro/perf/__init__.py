"""Memoized, incremental performance analysis (the DSE hot-loop cache).

The exploration loop and the ordering baselines call
:func:`repro.model.analyze_system` thousands of times on configurations
that differ only in per-process latencies or statement order.  This
package makes those repeats cheap without changing any observable result:

* :class:`PerformanceEngine` — content-addressed LRU result cache +
  incremental event-graph reuse + the exact integer Howard kernel.
* :class:`LruCache` / :class:`CacheStats` — the bounded cache primitive
  with hit/miss/eviction counters (also used for memoized orderings).
* :mod:`repro.perf.fingerprint` — the canonical invalidation keys.

See ``docs/API.md`` ("Analysis caching") for the caching contract.
"""

from repro.cache import MISS, CacheStats, LruCache
from repro.perf.engine import PerformanceEngine
from repro.perf.fingerprint import (
    analysis_fingerprint,
    effective_latencies,
    structure_fingerprint,
    system_fingerprint,
)
from repro.perf.incremental import StructureEntry, build_structure

__all__ = [
    "MISS",
    "CacheStats",
    "LruCache",
    "PerformanceEngine",
    "StructureEntry",
    "analysis_fingerprint",
    "build_structure",
    "effective_latencies",
    "structure_fingerprint",
    "system_fingerprint",
]
