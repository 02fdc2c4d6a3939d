"""Howard's cycle-time engine and its Lawler and enumeration oracles —
units and agreement."""

from fractions import Fraction

import pytest

from repro.errors import NotLiveError, ReproError
from repro.tmg import analyze, build_event_graph
from repro.tmg.graph import TimedMarkedGraph
from repro.tmg.deadlock import find_token_free_cycle
from tests.tmg.decoded import analyzed
from tests.tmg.enumeration import enumerate_cycles, maximum_cycle_ratio_enumerated
from tests.tmg.lawler import maximum_cycle_ratio_lawler


def simple_ring(delays=(2, 3, 1), tokens=(1, 0, 0)) -> TimedMarkedGraph:
    tmg = TimedMarkedGraph()
    n = len(delays)
    for i, d in enumerate(delays):
        tmg.add_transition(f"t{i}", delay=d)
    for i in range(n):
        tmg.add_place(f"p{i}", f"t{i}", f"t{(i + 1) % n}", tokens=tokens[i])
    return tmg


def two_rings() -> TimedMarkedGraph:
    """Two rings sharing one transition; ratios 6/1 and 10/2."""
    tmg = TimedMarkedGraph()
    for name, delay in (("a", 1), ("b", 5), ("c", 4)):
        tmg.add_transition(name, delay=delay)
    tmg.add_place("p0", "a", "b", tokens=1)
    tmg.add_place("p1", "b", "a", tokens=0)  # ring a-b: delay 6, tokens 1
    tmg.add_place("p2", "a", "c", tokens=1)
    tmg.add_place("p3", "c", "a", tokens=1)  # ring a-c: delay 5, tokens 2
    return tmg


class TestHoward:
    def test_single_ring_ratio(self):
        result = analyzed(build_event_graph(simple_ring()))
        assert result.ratio == Fraction(6, 1)
        assert set(result.cycle) == {"t0", "t1", "t2"}

    def test_multi_token_ring(self):
        tmg = simple_ring(tokens=(1, 1, 0))
        result = analyzed(build_event_graph(tmg))
        assert result.ratio == Fraction(6, 2)

    def test_two_rings_picks_max(self):
        result = analyzed(build_event_graph(two_rings()))
        assert result.ratio == Fraction(6, 1)
        assert set(result.cycle) == {"a", "b"}

    def test_token_free_cycle_raises(self):
        tmg = simple_ring(tokens=(0, 0, 0))
        with pytest.raises(NotLiveError):
            analyzed(build_event_graph(tmg))

    def test_token_free_cycle_off_every_policy_raises(self):
        # Policy iteration alone never selects a -> b -> a here (it would
        # report 5/2), so the public function must check liveness itself.
        tmg = TimedMarkedGraph()
        for name, delay in (("a", 0), ("b", 0), ("c", 5)):
            tmg.add_transition(name, delay=delay)
        tmg.add_place("p0", "c", "a", tokens=1)
        tmg.add_place("p1", "a", "c", tokens=1)
        tmg.add_place("p2", "a", "b", tokens=0)
        tmg.add_place("p3", "b", "c", tokens=1)
        tmg.add_place("p4", "b", "a", tokens=0)
        with pytest.raises(NotLiveError) as raised:
            analyzed(build_event_graph(tmg))
        assert set(raised.value.cycle) == {"a", "b"}

    def test_acyclic_returns_none(self):
        tmg = TimedMarkedGraph()
        tmg.add_transition("a", delay=1)
        tmg.add_transition("b", delay=1)
        tmg.add_place("p", "a", "b", tokens=0)
        assert analyzed(build_event_graph(tmg)) is None

    def test_critical_places_reported(self):
        result = analyzed(build_event_graph(simple_ring()))
        assert len(result.places) == len(result.cycle)
        assert set(result.places) <= {"p0", "p1", "p2"}

    def test_zero_delay_cycle_ratio_zero(self):
        tmg = simple_ring(delays=(0, 0, 0))
        result = analyzed(build_event_graph(tmg))
        assert result.ratio == 0


class TestLawler:
    def test_matches_howard_on_rings(self):
        graph = build_event_graph(two_rings())
        assert maximum_cycle_ratio_lawler(graph, exact=True) == Fraction(6)

    def test_token_free_cycle_raises(self):
        graph = build_event_graph(simple_ring(tokens=(0, 0, 0)))
        with pytest.raises(NotLiveError):
            maximum_cycle_ratio_lawler(graph)

    def test_acyclic_returns_none(self):
        tmg = TimedMarkedGraph()
        tmg.add_transition("a", delay=1)
        tmg.add_transition("b", delay=1)
        tmg.add_place("p", "a", "b", tokens=0)
        assert maximum_cycle_ratio_lawler(build_event_graph(tmg)) is None

    def test_zero_delay_cycle(self):
        graph = build_event_graph(simple_ring(delays=(0, 0, 0)))
        assert maximum_cycle_ratio_lawler(graph, exact=True) == 0

    def test_float_tolerance(self):
        graph = build_event_graph(simple_ring())
        value = maximum_cycle_ratio_lawler(graph, tolerance=1e-6)
        assert value == pytest.approx(6.0, abs=1e-5)


class TestEnumeration:
    def test_exact_on_two_rings(self):
        ratio, witness = maximum_cycle_ratio_enumerated(
            build_event_graph(two_rings())
        )
        assert ratio == Fraction(6)
        assert set(witness.nodes) == {"a", "b"}

    def test_counts_cycles(self):
        cycles = list(enumerate_cycles(build_event_graph(two_rings())))
        assert len(cycles) == 2

    def test_token_free_cycle_raises(self):
        with pytest.raises(NotLiveError):
            maximum_cycle_ratio_enumerated(
                build_event_graph(simple_ring(tokens=(0, 0, 0)))
            )


class TestAnalyzeFacade:
    @pytest.mark.parametrize(
        "engine",
        [
            pytest.param(
                lambda tmg: maximum_cycle_ratio_enumerated(build_event_graph(tmg))[0],
                id="Engine.ENUMERATION",
            ),
            pytest.param(lambda tmg: analyze(tmg).cycle_time, id="Engine.HOWARD"),
            pytest.param(
                lambda tmg: maximum_cycle_ratio_lawler(
                    build_event_graph(tmg), exact=True
                ),
                id="Engine.LAWLER",
            ),
        ],
    )
    def test_all_engines_agree(self, engine):
        """analyze() (Howard) and both test oracles give the same cycle time."""
        assert engine(two_rings()) == 6

    def test_throughput_reciprocal(self):
        report = analyze(simple_ring())
        assert report.throughput == Fraction(1, 6)

    def test_cycle_time_shorthand(self):
        assert analyze(simple_ring()).cycle_time == 6

    def test_deadlock_detected(self):
        assert find_token_free_cycle(build_event_graph(simple_ring())) is None
        tmg = simple_ring(tokens=(0, 0, 0))
        witness = find_token_free_cycle(build_event_graph(tmg))
        assert witness and set(witness) <= {"t0", "t1", "t2"}
        with pytest.raises(NotLiveError):
            analyze(tmg)

    def test_acyclic_raises(self):
        tmg = TimedMarkedGraph()
        tmg.add_transition("a", delay=1)
        tmg.add_transition("b", delay=1)
        tmg.add_place("p", "a", "b", tokens=0)
        with pytest.raises(ReproError):
            analyze(tmg)

    def test_zero_cycle_time_throughput_raises(self):
        report = analyze(simple_ring(delays=(0, 0, 0)))
        with pytest.raises(ReproError):
            report.throughput
