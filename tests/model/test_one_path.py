"""Every analysis runs on the integer event graph.

The cycle-time, deadlock and sizing entry points lower the system
straight to integer CSR lists; none of them builds the bipartite
:class:`~repro.tmg.graph.TimedMarkedGraph` or a decoded
:class:`~repro.tmg.event_graph.Edge`.  Those stay for DOT export, the
token game and the test oracles.
"""

import pytest

from repro.core import load_system, motivating_deadlock_ordering, motivating_example
from repro.model.performance import analyze_system, deadlock_cycle
from repro.ordering import channel_ordering
from repro.perf import PerformanceEngine
from repro.sizing import size_buffers
from repro.tmg.event_graph import Edge
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
    monkeypatch.setattr(Edge, "__init__", _refuse)

    exact = analyze_system(system, ordering)
    approx = analyze_system(system, ordering, exact=False)
    assert approx.cycle_time == float(exact.cycle_time)
    assert PerformanceEngine().analyze(system, ordering) == exact
    sized = size_buffers(system, exact.cycle_time, ordering)
    assert sized.cycle_time > 0
    assert deadlock_cycle(system, ordering) is None
    if dead is not None:
        assert deadlock_cycle(system, dead)
