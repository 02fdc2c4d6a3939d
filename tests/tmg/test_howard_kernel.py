"""Differential oracle for the integer Howard kernel.

:func:`repro.tmg.howard.maximum_cycle_ratio` runs policy iteration over
integer arrays.  It must reproduce the ``Fraction``-arithmetic reference
(:mod:`tests.tmg.fraction_howard`) decision for decision: same ratio, same
critical cycle, same places.  Its ratio must also match the two independent
oracles, Lawler's parametric search (:mod:`tests.tmg.lawler`) and
brute-force enumeration (:mod:`tests.tmg.enumeration`).
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import synthetic_soc
from repro.model.build import build_tmg
from repro.ordering import channel_ordering
from repro.tmg import (
    TimedMarkedGraph,
    build_event_graph,
    maximum_cycle_ratio,
    strongly_connected_components,
)
from repro.tmg.howard import _Scc

from tests.strategies import live_tmgs
from tests.tmg.enumeration import maximum_cycle_ratio_enumerated
from tests.tmg.fraction_howard import (
    _ratio_iteration_completion,
    fraction_maximum_cycle_ratio,
)
from tests.tmg.lawler import maximum_cycle_ratio_lawler
from tests.tmg.test_float_screen import cycle_ratio, float_collapse_graph
from tests.tmg.test_howard_stress import equal_ratio_graph


def assert_matches_oracles(
    tmg: TimedMarkedGraph, enumerate_cycles: bool = True, lawler: bool = True
):
    graph = build_event_graph(tmg)
    result = maximum_cycle_ratio(graph)
    reference = fraction_maximum_cycle_ratio(graph)
    assert result == reference  # ratio, cycle and places
    if result is None:
        return
    assert isinstance(result.ratio, Fraction)
    if lawler:
        assert maximum_cycle_ratio_lawler(graph, exact=True) == result.ratio
    if enumerate_cycles:
        assert maximum_cycle_ratio_enumerated(graph)[0] == result.ratio
    # Float mode: the float of a cycle that attains the exact maximum.
    approx = maximum_cycle_ratio(graph, exact=False)
    assert isinstance(approx.ratio, float)
    assert approx.ratio == float(result.ratio)
    assert cycle_ratio(graph, list(approx.cycle)) == result.ratio


class TestKernelMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(tmg=live_tmgs())
    def test_live_tmgs(self, tmg):
        assert_matches_oracles(tmg)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 12),
        extra=st.integers(0, 24),
        seed=st.integers(0, 999),
    )
    def test_flat_equal_ratio_landscapes(self, n, extra, seed):
        assert_matches_oracles(
            equal_ratio_graph(n, extra, seed), enumerate_cycles=n <= 8
        )

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 8),
        extra=st.integers(0, 12),
        seed=st.integers(0, 99),
        bump=st.integers(0, 3),
    )
    def test_flat_landscape_with_heavier_cycle(self, n, extra, seed, bump):
        tmg = equal_ratio_graph(n, extra, seed)
        tmg.add_transition("hot", delay=5 + bump)
        tmg.add_place("hot_loop", "hot", "hot", tokens=1)
        tmg.add_place("hot_in", "t0", "hot", tokens=1)
        tmg.add_place("hot_out", "hot", "t0", tokens=1)
        assert_matches_oracles(tmg)

    def test_float_collapse(self):
        # Lawler bisects in float64, which cannot separate these ratios.
        assert_matches_oracles(float_collapse_graph(), lawler=False)

    def test_synthetic_soc_under_algorithm_1(self):
        # Larger SCCs than the strategies reach; enumeration is too slow here.
        system = synthetic_soc(60, seed=0)
        tmg = build_tmg(system, channel_ordering(system)).tmg
        assert_matches_oracles(tmg, enumerate_cycles=False)


class TestCompletionMatchesReference:
    """The stagnation completion (integer Bellman–Ford on ``d·den − num·m``)
    is rarely reached from policy iteration, so it is driven directly: from
    ratio 0, every positive cycle must raise the ratio exactly as the
    Fraction completion does, ending on the same cycle."""

    @settings(max_examples=60, deadline=None)
    @given(tmg=live_tmgs(max_chains=4))
    def test_from_zero(self, tmg):
        graph = build_event_graph(tmg)
        for component in strongly_connected_components(graph):
            scc = _Scc(component, graph.succ)
            if not scc.target:
                continue
            num, den, nodes, edges = scc.complete(0, 1, [], [])
            members = set(component)
            succ = {
                u: [e for e in graph.succ[u] if e.target in members]
                for u in component
            }
            reference = _ratio_iteration_completion(
                component, succ, Fraction(0), ([], [])
            )
            assert Fraction(num, den) == reference.ratio
            assert tuple(component[u] for u in nodes) == reference.cycle
            assert tuple(scc.edges[e].place for e in edges) == reference.places
