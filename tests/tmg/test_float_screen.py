"""Exactness where float64 collapses, on the single Howard path.

These tests once covered a float-first screen with exact verification.
That screen is gone: :func:`repro.tmg.analyze` runs one integer kernel
and always returns a ``Fraction``, so the same contract is now checked on
it — the ratio is exact and the reported cycle is a true maximum-ratio
cycle, even where float64 cannot rank the candidates.  The one float
form left, ``analyze_system(..., exact=False)``, returns the float of that
very ratio with the same critical cycle.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.core import SystemBuilder
from repro.errors import DeadlockError, NotLiveError
from repro.model import analyze_system
from repro.tmg import analyze, build_event_graph
from repro.tmg.graph import TimedMarkedGraph
from repro.tmg.analysis import analyze_event_graph

from tests.strategies import live_tmgs
from tests.tmg.decoded import analyzed, edges


def ring(delays, tokens) -> TimedMarkedGraph:
    tmg = TimedMarkedGraph()
    n = len(delays)
    for i, d in enumerate(delays):
        tmg.add_transition(f"t{i}", delay=d)
    for i in range(n):
        tmg.add_place(f"p{i}", f"t{i}", f"t{(i + 1) % n}", tokens=tokens[i])
    return tmg


def cycle_ratio(graph, cycle) -> Fraction:
    """The exact ratio of a cycle, recomputed from the graph's edges."""
    by_source = {}
    for edge in edges(graph):
        by_source.setdefault(edge.source, []).append(edge)
    delay = 0
    tokens = 0
    for i, node in enumerate(cycle):
        target = cycle[(i + 1) % len(cycle)]
        edge = next(e for e in by_source[node] if e.target == target)
        delay += edge.delay
        tokens += edge.tokens
    return Fraction(delay, tokens)


def float_collapse_graph() -> TimedMarkedGraph:
    """Two rings whose ratios (10^16 + 1 vs 10^16) share one float64."""
    big = 10**16
    tmg = TimedMarkedGraph()
    for name, delay in (("a1", big + 1), ("a2", 0), ("b1", big), ("b2", 0)):
        tmg.add_transition(name, delay=delay)
    tmg.add_place("p0", "a1", "a2", tokens=0)
    tmg.add_place("p1", "a2", "a1", tokens=1)   # ring a: (big+1)/1
    tmg.add_place("p2", "b1", "b2", tokens=0)
    tmg.add_place("p3", "b2", "b1", tokens=1)   # ring b: big/1
    # Token-heavy cross links keep the graph connected without creating a
    # competitive mixed cycle.
    tmg.add_place("p4", "a1", "b1", tokens=3)
    tmg.add_place("p5", "b1", "a1", tokens=3)
    return tmg


class TestScreenedHoward:
    def test_simple_ring(self):
        graph = build_event_graph(ring((2, 3, 1), (1, 0, 0)))
        result = analyzed(graph)
        assert result.ratio == Fraction(6, 1)
        assert isinstance(result.ratio, Fraction)

    def test_agrees_with_exact_on_competing_rings(self):
        tmg = TimedMarkedGraph()
        for name, delay in (("a", 1), ("b", 5), ("c", 4)):
            tmg.add_transition(name, delay=delay)
        tmg.add_place("p0", "a", "b", tokens=1)
        tmg.add_place("p1", "b", "a", tokens=0)   # ratio 6/1
        tmg.add_place("p2", "a", "c", tokens=1)
        tmg.add_place("p3", "c", "a", tokens=1)   # ratio 5/2
        graph = build_event_graph(tmg)
        exact = analyzed(graph)
        assert exact.ratio == Fraction(6, 1)
        assert cycle_ratio(graph, list(exact.cycle)) == exact.ratio
        assert set(exact.cycle) == {"a", "b"}

    def test_ratios_beyond_float_precision_certified_exactly(self):
        big = 10**16
        graph = build_event_graph(float_collapse_graph())
        assert float(big + 1) == float(big)  # the premise: float ties
        result = analyzed(graph)
        assert result.ratio == Fraction(big + 1, 1)
        assert result.ratio == cycle_ratio(graph, list(result.cycle))

    def test_returned_cycle_attains_the_ratio(self):
        graph = build_event_graph(ring((5, 2, 9, 1), (1, 0, 1, 0)))
        result = analyzed(graph)
        assert cycle_ratio(graph, list(result.cycle)) == result.ratio

    def test_not_live_raises(self):
        graph = build_event_graph(ring((1, 1), (0, 0)))
        with pytest.raises(NotLiveError):
            analyzed(graph)

    @settings(max_examples=40, deadline=None)
    @given(tmg=live_tmgs())
    def test_property_ratio_matches_exact(self, tmg):
        graph = build_event_graph(tmg)
        exact = analyzed(graph)
        if exact is None:
            return
        assert isinstance(exact.ratio, Fraction)
        # The reported cycle is genuine: its own ratio attains the maximum.
        assert cycle_ratio(graph, list(exact.cycle)) == exact.ratio


def float_collapse_system():
    """A pipeline whose cycle time, 10^16 + 3, has no exact float64."""
    big = 10**16
    return (
        SystemBuilder("collapse")
        .source("src", latency=1)
        .process("A", latency=big + 1)
        .process("B", latency=big)
        .sink("snk", latency=1)
        .channel("i", "src", "A", latency=1)
        .channel("x", "A", "B", latency=1)
        .channel("o", "B", "snk", latency=1)
        .build()
    )


class TestAnalyzeEventGraphDispatch:
    def test_exact_flag_only_changes_result_type(
        self, motivating, suboptimal_ordering
    ):
        for system, ordering in (
            (motivating, suboptimal_ordering),
            (float_collapse_system(), None),
        ):
            exact = analyze_system(system, ordering)
            approx = analyze_system(system, ordering, exact=False)
            assert isinstance(exact.cycle_time, Fraction)
            assert isinstance(approx.cycle_time, float)
            assert approx.cycle_time == float(exact.cycle_time)
            assert approx.throughput == 1 / float(exact.cycle_time)
            assert approx.report == exact.report
            assert approx.critical_processes == exact.critical_processes
            assert approx.critical_channels == exact.critical_channels

    def test_analyze_via_tmg_level_entry_point(self):
        tmg = ring((2, 3, 1), (1, 0, 0))
        via_graph = analyze_event_graph(build_event_graph(tmg))
        plain = analyze(tmg)
        assert via_graph == plain
        assert plain.cycle_time == Fraction(6)

    def test_liveness_error_message_preserved(
        self, motivating, deadlock_ordering
    ):
        tmg = ring((1, 1), (0, 0))
        with pytest.raises(NotLiveError, match="not live"):
            analyze(tmg)
        for exact in (True, False):
            with pytest.raises(DeadlockError, match="circular wait"):
                analyze_system(motivating, deadlock_ordering, exact=exact)
