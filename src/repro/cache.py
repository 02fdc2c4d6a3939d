"""Bounded LRU cache with hit/miss/eviction accounting.

The one in-process memo type of the package: the performance engine's
result and structure caches, and the process-wide memos of lowering
(:mod:`repro.ir.lowering`), the pre-flight (:mod:`repro.lint`), symmetry
analysis (:mod:`repro.sym.canonical`), abstract interpretation
(:mod:`repro.absint.engine`) and the simulator's control walks
(:mod:`repro.sim.engine`).  Every memo of a fact derived from a
configuration keys on the :class:`~repro.ir.LoweredIR` that
:func:`~repro.ir.lower` returns for it (a walk on that object's id), and
values are immutable once stored, so sharing a cached value across
callers is safe.  Each process-wide memo is made by
:func:`memo`, which names it for :func:`memos` (``ermes profile``
reports their counters).

This module imports nothing from ``repro``, so every layer can use it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Iterator

#: Sentinel distinguishing "not cached" from a cached ``None``.
MISS = object()

_MEMOS: dict[str, "LruCache"] = {}


@dataclass
class CacheStats:
    """Counters of one cache's lifetime activity."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> dict[str, int | float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __str__(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} "
            f"evictions={self.evictions} hit_rate={self.hit_rate:.1%}"
        )


class LruCache:
    """An ordered-dict LRU: lookups refresh recency, inserts evict the
    least recently used entry once ``maxsize`` is exceeded.

    ``maxsize <= 0`` disables storage entirely (every lookup is a miss and
    nothing is retained) — useful to ablate caching without touching call
    sites.
    """

    def __init__(self, maxsize: int = 1024):
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.stats = CacheStats()

    def get(self, key: Hashable) -> Any:
        """The cached value, or the :data:`MISS` sentinel."""
        try:
            value = self._entries[key]
        except KeyError:
            self.stats.misses += 1
            return MISS
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if self.maxsize <= 0:
            return
        # One store per put: an unchanged size means the key was already
        # there, and a refreshed key moves to the most recent end.
        entries = self._entries
        size = len(entries)
        entries[key] = value
        if len(entries) == size:
            entries.move_to_end(key)
        while len(entries) > self.maxsize:
            entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are retained)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._entries)


def memo(name: str, maxsize: int) -> LruCache:
    """A new process-wide memo, registered under ``name``."""
    cache = _MEMOS[name] = LruCache(maxsize)
    return cache


def memos() -> dict[str, LruCache]:
    """The process-wide memos by name: ``lower``, ``preflight``, ``sym``,
    ``absint`` and ``walk``, each once its module has been imported."""
    return dict(_MEMOS)
