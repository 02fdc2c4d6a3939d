"""Property-based tests on TMG invariants and engine agreement."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tmg import (
    analyze,
    build_event_graph,
    maximum_cycle_ratio,
    measured_cycle_time,
    strongly_connected_components,
)
from tests.strategies import live_tmgs
from tests.tmg.enumeration import maximum_cycle_ratio_enumerated, tmg_cycles
from tests.tmg.lawler import maximum_cycle_ratio_lawler


@settings(max_examples=60, deadline=None)
@given(tmg=live_tmgs(), seed=st.integers(0, 1000))
def test_cycle_token_count_invariant_under_firing(tmg, seed):
    """The number of tokens on any cycle is invariant under any firing
    sequence (the foundational marked-graph property of Section 3)."""
    cycles = list(tmg_cycles(tmg))
    place_sets = [
        [name for name in cycle if name in tmg.place_names] for cycle in cycles
    ]
    before = [tmg.total_tokens(places) for places in place_sets]
    rng = random.Random(seed)
    for _ in range(30):
        enabled = tmg.enabled_transitions()
        if not enabled:
            break
        tmg.fire(rng.choice(list(enabled)))
    after = [tmg.total_tokens(places) for places in place_sets]
    assert before == after


@settings(max_examples=60, deadline=None)
@given(tmg=live_tmgs())
def test_total_token_change_equals_structural_balance(tmg):
    """Firing t changes the total token count by out-degree − in-degree."""
    for t in tmg.transition_names:
        if not tmg.is_enabled(t):
            continue
        before = tmg.total_tokens()
        tmg.fire(t)
        delta = len(tmg.output_places(t)) - len(tmg.input_places(t))
        assert tmg.total_tokens() == before + delta
        break


@settings(max_examples=50, deadline=None)
@given(tmg=live_tmgs())
def test_howard_equals_enumeration(tmg):
    graph = build_event_graph(tmg)
    enumerated = maximum_cycle_ratio_enumerated(graph)
    howard = maximum_cycle_ratio(graph)
    if enumerated is None:
        assert howard is None
    else:
        assert howard is not None
        assert howard.ratio == enumerated[0]


@settings(max_examples=40, deadline=None)
@given(tmg=live_tmgs())
def test_lawler_close_to_howard(tmg):
    graph = build_event_graph(tmg)
    howard = maximum_cycle_ratio(graph)
    lawler = maximum_cycle_ratio_lawler(graph, tolerance=1e-9)
    if howard is None:
        assert lawler is None
    else:
        assert lawler is not None
        assert abs(float(lawler) - float(howard.ratio)) < 1e-6


@settings(max_examples=40, deadline=None)
@given(tmg=live_tmgs())
def test_howard_exact_equals_float_mode(tmg):
    graph = build_event_graph(tmg)
    exact = maximum_cycle_ratio(graph, exact=True)
    approx = maximum_cycle_ratio(graph, exact=False)
    if exact is None:
        assert approx is None
    else:
        assert abs(float(exact.ratio) - approx.ratio) < 1e-6


@settings(max_examples=30, deadline=None)
@given(tmg=live_tmgs())
def test_execution_rate_matches_analysis(tmg):
    """The earliest-firing execution settles at the analytic cycle time."""
    graph = build_event_graph(tmg)
    result = maximum_cycle_ratio(graph)
    if result is None or result.ratio == 0:
        return
    # Measure a transition on the critical cycle: its asymptotic rate is
    # exactly the maximum cycle ratio.  The finite window leaves a bounded
    # periodic residue of at most (total delay)/steps.
    iterations = 160
    measured = measured_cycle_time(tmg, iterations=iterations,
                                   transition=result.cycle[0])
    assert measured is not None
    slack = sum(t.delay for t in tmg.transitions) / (iterations // 2 - 1)
    assert abs(float(measured) - float(result.ratio)) <= slack


@settings(max_examples=50, deadline=None)
@given(tmg=live_tmgs())
def test_scc_partition(tmg):
    graph = build_event_graph(tmg)
    components = strongly_connected_components(graph)
    flattened = [n for comp in components for n in comp]
    assert sorted(flattened) == sorted(graph.names)


@settings(max_examples=50, deadline=None)
@given(tmg=live_tmgs())
def test_critical_cycle_ratio_consistent(tmg):
    """The reported critical cycle's own delay/token ratio equals the
    reported maximum ratio."""
    graph = build_event_graph(tmg)
    result = maximum_cycle_ratio(graph)
    if result is None:
        return
    delay = sum(tmg.delay(t) for t in result.cycle)
    tokens = sum(tmg.place(p).tokens for p in result.places)
    assert tokens > 0
    assert Fraction(delay, tokens) == result.ratio


@settings(max_examples=30, deadline=None)
@given(tmg=live_tmgs())
def test_analyze_reports_live_graphs(tmg):
    graph = build_event_graph(tmg)
    if maximum_cycle_ratio(graph) is None:
        return
    report = analyze(tmg)
    assert report.cycle_time >= 0
