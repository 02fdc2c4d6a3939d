"""Every analysis runs on the integer event graph.

The cycle-time, deadlock and sizing entry points lower the system
straight to integer CSR lists; none of them builds the bipartite
:class:`~repro.tmg.graph.TimedMarkedGraph`, which stays for DOT export,
the token game and the test oracles.  (That none parses a transition or
place name is checked on the source, in
``tests/integration/test_equivalent_paths.py``.)
"""

import pytest

from repro.core import load_system, motivating_deadlock_ordering, motivating_example
from repro.errors import DeadlockError
from repro.model.performance import analyze_system, deadlock_cycle
from repro.ordering import channel_ordering
from repro.ordering.exhaustive import all_orderings
from repro.perf import PerformanceEngine
from repro.sizing import size_buffers
from repro.tmg.graph import TimedMarkedGraph


def _refuse(self, *args, **kwargs):
    raise AssertionError(f"{type(self).__name__} built on an analysis path")


def _designs():
    motivating = motivating_example()
    soc24 = load_system("examples/designs/soc24.json")
    return [
        (motivating, channel_ordering(motivating),
         motivating_deadlock_ordering(motivating)),
        (soc24, channel_ordering(soc24), None),
    ]


@pytest.mark.parametrize(
    "system,ordering,dead", _designs(), ids=["motivating", "soc24"]
)
def test_analyses_build_no_name_keyed_graph(monkeypatch, system, ordering, dead):
    monkeypatch.setattr(TimedMarkedGraph, "__init__", _refuse)

    exact = analyze_system(system, ordering)
    approx = analyze_system(system, ordering, exact=False)
    assert approx.cycle_time == float(exact.cycle_time)
    assert PerformanceEngine().analyze(system, ordering) == exact
    sized = size_buffers(system, exact.cycle_time, ordering)
    assert sized.cycle_time > 0
    assert deadlock_cycle(system, ordering) is None
    if dead is not None:
        assert deadlock_cycle(system, dead)


def test_uncached_analysis_searches_for_a_token_free_cycle_once(monkeypatch):
    """One DFS per uncached analysis, live or deadlocked, and the same
    ``DeadlockError`` as the engine path on all 14 deadlocked orderings
    of the motivating example."""
    import repro.model.build as build
    import repro.tmg.deadlock as deadlock

    motivating = motivating_example()
    orderings = list(all_orderings(motivating))
    calls = []
    search = deadlock._token_free_cycle

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(build, "_token_free_cycle", counted)
    monkeypatch.setattr(deadlock, "_token_free_cycle", counted)
    dead = 0
    for ordering in orderings:
        calls.clear()
        try:
            analyze_system(motivating, ordering)
        except DeadlockError as error:
            assert len(calls) == 1
            dead += 1
            with pytest.raises(DeadlockError) as cached:
                PerformanceEngine().analyze(motivating, ordering)
            assert (str(error), error.cycle) == (
                str(cached.value), cached.value.cycle
            )
        else:
            assert len(calls) == 1
    assert dead == 14
