"""The process-wide memos all run on the one :class:`repro.cache.LruCache`.

Each memo is looked up through :func:`repro.cache.memos` and driven
through its public entry point: a repeat call counts one hit, a new key
counts one miss, and inserting past the capacity evicts the least
recently used entry.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import pytest

from repro.absint import analyze
from repro.cache import memos
from repro.core import SystemBuilder, SystemGraph
from repro.ir import lower
from repro.lint import preflight
from repro.sym import analyze_symmetry


class Memo(NamedTuple):
    name: str  # the memo's key in memos()
    capacity: int
    call: Callable[[SystemGraph], object]


MEMOS = {
    "lowering": Memo("lower", 256, lower),
    "preflight": Memo("preflight", 512, preflight),
    "symmetry": Memo(
        "sym", 256, lambda system: analyze_symmetry(lower(system))
    ),
    "absint": Memo("absint", 256, analyze),
}


def test_accessor_names_every_memo():
    assert sorted(memos()) == sorted(memo.name for memo in MEMOS.values())


def _pipeline(name: str) -> SystemGraph:
    """src -> A -> snk; the name alone makes each key distinct."""
    return (
        SystemBuilder(name)
        .source("src", latency=1)
        .process("A", latency=3)
        .sink("snk", latency=1)
        .channel("i", "src", "A", latency=1)
        .channel("o", "A", "snk", latency=1)
        .build()
    )


@pytest.mark.parametrize("name", sorted(MEMOS))
def test_memo_counts_hits_misses_and_evictions(name, monkeypatch):
    memo = MEMOS[name]
    cache = memos()[memo.name]
    stats = cache.stats
    assert cache.maxsize == memo.capacity
    first, second, third = (_pipeline(f"memo-{name}-{i}") for i in range(3))
    # Lower up front so a lowering miss never lands inside the window of
    # another memo's count.
    for system in (first, second, third):
        lower(system)
    cache.clear()

    memo.call(first)
    hits, misses = stats.hits, stats.misses
    memo.call(first)
    assert (stats.hits, stats.misses) == (hits + 1, misses)
    memo.call(second)
    assert (stats.hits, stats.misses) == (hits + 1, misses + 1)

    monkeypatch.setattr(cache, "maxsize", 2)
    evictions = stats.evictions
    memo.call(third)  # evicts ``first``, the least recently used
    assert stats.evictions == evictions + 1
    assert len(cache) == 2
    memo.call(second)
    assert stats.hits == hits + 2
    memo.call(first)
    assert stats.misses == misses + 3
