"""Differential oracle for the integer Howard kernel.

:func:`repro.tmg.howard.maximum_cycle_ratio` runs policy iteration over
integers, in a list form for small SCCs and an array form for large ones.
Both must reproduce the ``Fraction``-arithmetic reference
(:mod:`tests.tmg.fraction_howard`) decision for decision: same ratio, same
critical cycle, same places.  The ratio must also match the two independent
oracles, Lawler's parametric search (:mod:`tests.tmg.lawler`) and
brute-force enumeration (:mod:`tests.tmg.enumeration`).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import synthetic_soc
from repro.errors import NotLiveError
from repro.model.build import build_tmg
from repro.ordering import channel_ordering
from repro.tmg import TimedMarkedGraph, build_event_graph, maximum_cycle_ratio
from repro.tmg import howard
from repro.tmg.event_graph import _components
from repro.tmg.howard import _ArrayScc, _csr, _Fallback, _Scc
from repro.workloads import generate

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
        decoded = graph.succ
        for component in _components(graph):
            csr = _csr(graph, component)
            scc = _Scc(csr)
            if not scc.target:
                continue
            num, den, nodes, edges = scc.complete(0, 1, [], [])
            names = [graph.names[u] for u in component]
            members = set(names)
            succ = {
                u: [e for e in decoded[u] if e.target in members] for u in names
            }
            reference = _ratio_iteration_completion(
                names, succ, Fraction(0), ([], [])
            )
            assert Fraction(num, den) == reference.ratio
            assert tuple(names[u] for u in nodes) == reference.cycle
            assert (
                tuple(graph.place_name(graph.place[csr.edges[e]]) for e in edges)
                == reference.places
            )


def array_form(graph):
    """:func:`maximum_cycle_ratio` with every SCC on the array form."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(howard, "_ARRAY_MIN_NODES", 1)
        return maximum_cycle_ratio(graph)


def components(graph):
    """The CSR lists of the SCCs that carry a cycle."""
    return [
        csr
        for csr in (_csr(graph, component) for component in _components(graph))
        if csr.edges
    ]


def outcome(kernel):
    """A kernel's result, or the message and cycle of its NotLiveError."""
    try:
        return kernel.howard()
    except NotLiveError as error:
        return str(error), error.cycle


def heavier_cycle_graph(n, extra, seed, bump, loop_first):
    """A flat ratio-5 landscape plus a node ``hot`` with a ratio-(5 + bump)
    self-loop.  With the loop after ``hot``'s edge back into the landscape,
    the first policy leaves ``hot`` at ratio 5 and the loop is a positive
    edge of the potential sweep."""
    tmg = equal_ratio_graph(n, extra, seed)
    tmg.add_transition("hot", delay=5 + bump)
    tmg.add_place("hot_in", "t0", "hot", tokens=1)
    if loop_first:
        tmg.add_place("hot_loop", "hot", "hot", tokens=1)
    tmg.add_place("hot_out", "hot", "t0", tokens=1)
    if not loop_first:
        tmg.add_place("hot_loop", "hot", "hot", tokens=1)
    return tmg


def random_graph(rng: random.Random) -> TimedMarkedGraph:
    """Up to 40 transitions on a shuffled ring plus chords and a few
    self-loops; some places are token-free, so some graphs are not live."""
    n = rng.randint(1, 40)
    tmg = TimedMarkedGraph("random")
    for i in range(n):
        tmg.add_transition(f"t{i}", delay=rng.choice((0, 1, 2, 3, 5, 7, 10, 100)))
    ring = list(range(n))
    rng.shuffle(ring)
    places = [(ring[i], ring[(i + 1) % n]) for i in range(n)]
    for _ in range(rng.randint(0, 3 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b or rng.random() < 0.2:
            places.append((a, b))
    for k, (a, b) in enumerate(places):
        tokens = rng.choice((0, 1, 1, 2, 3))
        tmg.add_place(f"p{k}", f"t{a}", f"t{b}", tokens=tokens)
    return tmg


class TestArrayFormMatchesReference:
    """The array form, run below its cut-over, against the Fraction
    reference and the list form.  ``_ArrayScc._iterate`` is the array
    iteration without its fallback: it raises :class:`_Fallback` where
    ``howard`` would rerun the list form."""

    @settings(max_examples=60, deadline=None)
    @given(tmg=live_tmgs())
    def test_live_tmgs(self, tmg):
        graph = build_event_graph(tmg)
        assert array_form(graph) == fraction_maximum_cycle_ratio(graph)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 12),
        extra=st.integers(0, 24),
        seed=st.integers(0, 999),
    )
    def test_flat_equal_ratio_landscapes(self, n, extra, seed):
        graph = build_event_graph(equal_ratio_graph(n, extra, seed))
        assert array_form(graph) == fraction_maximum_cycle_ratio(graph)
        for component in components(graph):
            assert (
                _ArrayScc(component)._iterate()
                == _Scc(component).howard()
            )

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(2, 8),
        extra=st.integers(0, 12),
        seed=st.integers(0, 99),
        bump=st.integers(1, 3),
    )
    def test_positive_self_loop_falls_back(self, n, extra, seed, bump):
        graph = build_event_graph(heavier_cycle_graph(n, extra, seed, bump, False))
        assert array_form(graph) == fraction_maximum_cycle_ratio(graph)
        (component,) = components(graph)
        with pytest.raises(_Fallback):
            _ArrayScc(component)._iterate()

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(2, 8),
        extra=st.integers(0, 12),
        seed=st.integers(0, 99),
        bump=st.integers(0, 3),
    )
    def test_heavier_self_loop_on_first_policy(self, n, extra, seed, bump):
        graph = build_event_graph(heavier_cycle_graph(n, extra, seed, bump, True))
        assert array_form(graph) == fraction_maximum_cycle_ratio(graph)

    def test_float_collapse(self):
        graph = build_event_graph(float_collapse_graph())
        assert array_form(graph) == fraction_maximum_cycle_ratio(graph)

    @pytest.mark.parametrize("n_processes", [60, 1000])
    def test_synthetic_soc_list_and_array_agree(self, n_processes):
        system = synthetic_soc(n_processes, seed=0)
        graph = build_event_graph(build_tmg(system, channel_ordering(system)).tmg)
        sizes = []
        for component in components(graph):
            sizes.append(len(component.nodes))
            assert (
                _ArrayScc(component)._iterate()
                == _Scc(component).howard()
            )
        # The 1,000-process graph's large SCC is above the cut-over.
        assert (max(sizes) >= howard._ARRAY_MIN_NODES) == (n_processes == 1000)

    @pytest.mark.parametrize(
        "family,size", [("noc-torus", 6), ("ofdm-rx", 24), ("bursty-soc", 80)]
    )
    def test_generated_families_list_and_array_agree(self, family, size):
        # Meshes and lanes propagate improvements along long chains of
        # descending edges, unlike the tree-like synthetic SoCs.
        system = generate(family, seed=0, size=size).system
        graph = build_event_graph(build_tmg(system, channel_ordering(system)).tmg)
        for component in components(graph):
            assert (
                _ArrayScc(component)._iterate()
                == _Scc(component).howard()
            )

    def test_int64_bound_falls_back(self):
        # 2**40 delays over 2**20 tokens per place: the cycle sums fit
        # int64, but the potential bound 2·n·(d·den + num·m) does not.
        tmg = TimedMarkedGraph("wide")
        for i in range(3):
            tmg.add_transition(f"t{i}", delay=2**40 + i)
        for i in range(3):
            tmg.add_place(f"p{i}", f"t{i}", f"t{(i + 1) % 3}", tokens=2**20)
        tmg.add_place("chord", "t0", "t2", tokens=2**20 + 1)
        graph = build_event_graph(tmg)
        (component,) = components(graph)
        with pytest.raises(_Fallback):
            _ArrayScc(component)._iterate()
        assert array_form(graph) == fraction_maximum_cycle_ratio(graph)

    def test_values_beyond_int64_fall_back(self):
        tmg = TimedMarkedGraph("huge")
        tmg.add_transition("a", delay=2**63)
        tmg.add_transition("b", delay=1)
        tmg.add_place("p0", "a", "b", tokens=1)
        tmg.add_place("p1", "b", "a", tokens=0)
        graph = build_event_graph(tmg)
        (component,) = components(graph)
        with pytest.raises(_Fallback):
            _ArrayScc(component)
        assert array_form(graph).ratio == 2**63 + 1

    def test_seeded_random_graphs(self):
        # Which edge wins a tie shows only through the pinned node, on
        # about one graph in a hundred, hence a long seeded sweep.  Some
        # graphs are not live: both forms must raise the same error.
        rng = random.Random(0)
        not_live = 0
        for _ in range(300):
            graph = build_event_graph(random_graph(rng))
            for component in components(graph):
                expected = outcome(_Scc(component))
                assert outcome(_ArrayScc(component)) == expected
                not_live += isinstance(expected[0], str)
        assert not_live > 0
