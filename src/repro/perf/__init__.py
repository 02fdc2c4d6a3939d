"""Memoized, incremental performance analysis (the DSE hot-loop cache).

The exploration loop and the ordering baselines call
:func:`repro.model.analyze_system` thousands of times on configurations
that differ only in per-process latencies or statement order.  This
package makes those repeats cheap without changing any observable result:

* :class:`PerformanceEngine` — content-addressed LRU result cache +
  incremental event-graph reuse + the exact integer Howard kernel.
* :class:`LruCache` — the bounded cache primitive of :mod:`repro.cache`,
  with hit/miss/eviction counters (:class:`~repro.cache.CacheStats`).

See ``docs/API.md`` ("Analysis caching") for the caching contract.
"""

from repro.cache import LruCache
from repro.perf.engine import PerformanceEngine

__all__ = [
    "LruCache",
    "PerformanceEngine",
]
