"""Stress tests for Howard's algorithm on degenerate ratio landscapes.

Policy iteration's potential-improvement step can flip-flop between
policies whose graphs carry multiple equal-ratio cycles (observed in the
wild on a 16-node SCC); the stagnation guard plus the cycle-ratio-
iteration completion must terminate with the exact answer regardless.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tmg import build_event_graph
from repro.tmg.graph import TimedMarkedGraph

from tests.tmg.decoded import analyzed
from tests.tmg.enumeration import maximum_cycle_ratio_enumerated


def equal_ratio_graph(n_nodes: int, n_extra: int, seed: int,
                      ratio: int = 5) -> TimedMarkedGraph:
    """Every cycle has exactly the same ratio: delay = ratio * tokens on
    every edge, tokens in {1, 2}.  Maximally ambiguous for the potential
    comparisons."""
    rng = random.Random(seed)
    # The event graph charges each edge the delay of its target
    # transition, so giving every transition delay = ratio and every place
    # one token makes every cycle's Σd/Σm equal ratio automatically.
    tmg2 = TimedMarkedGraph("flat")
    for i in range(n_nodes):
        tmg2.add_transition(f"t{i}", delay=ratio)
    place = 0
    for i in range(n_nodes):
        tmg2.add_place(f"p{place}", f"t{i}", f"t{(i + 1) % n_nodes}", tokens=1)
        place += 1
    for _ in range(n_extra):
        a = rng.randrange(n_nodes)
        b = rng.randrange(n_nodes)
        tmg2.add_place(f"p{place}", f"t{a}", f"t{b}", tokens=1)
        place += 1
    return tmg2


class TestEqualRatioLandscapes:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 12),
        extra=st.integers(0, 24),
        seed=st.integers(0, 999),
    )
    def test_terminates_and_exact_on_flat_landscape(self, n, extra, seed):
        tmg = equal_ratio_graph(n, extra, seed)
        result = analyzed(build_event_graph(tmg))
        assert result is not None
        assert result.ratio == Fraction(5)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 8),
        extra=st.integers(0, 12),
        seed=st.integers(0, 99),
        bump=st.integers(0, 3),
    )
    def test_single_heavier_cycle_found(self, n, extra, seed, bump):
        """A flat landscape plus one strictly heavier self-loop: the
        completion must find the heavier cycle, never settle for 5."""
        tmg = equal_ratio_graph(n, extra, seed)
        tmg.add_transition("hot", delay=5 + bump)
        tmg.add_place("hot_loop", "hot", "hot", tokens=1)
        tmg.add_place("hot_in", "t0", "hot", tokens=1)
        tmg.add_place("hot_out", "hot", "t0", tokens=1)
        result = analyzed(build_event_graph(tmg))
        expected = maximum_cycle_ratio_enumerated(build_event_graph(tmg))
        assert result.ratio == expected[0]

    def test_observed_oscillation_class(self):
        """A condensed version of the field failure: two equal-ratio
        2-cycles bridged in both directions."""
        tmg = TimedMarkedGraph("osc")
        for name, delay in (("a", 4), ("b", 6), ("c", 4), ("d", 6)):
            tmg.add_transition(name, delay=delay)
        tmg.add_place("p0", "a", "b", tokens=1)
        tmg.add_place("p1", "b", "a", tokens=1)  # cycle a-b: 10/2 = 5
        tmg.add_place("p2", "c", "d", tokens=1)
        tmg.add_place("p3", "d", "c", tokens=1)  # cycle c-d: 10/2 = 5
        tmg.add_place("p4", "a", "c", tokens=2)
        tmg.add_place("p5", "c", "a", tokens=2)
        tmg.add_place("p6", "b", "d", tokens=2)
        tmg.add_place("p7", "d", "b", tokens=2)
        result = analyzed(build_event_graph(tmg))
        expected = maximum_cycle_ratio_enumerated(build_event_graph(tmg))
        assert result.ratio == expected[0]
