"""System-level analysis against the paper's ground-truth numbers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError
from repro.ir import lower
from repro.model import analyze_system, build_tmg, deadlock_cycle, is_deadlock_free
from repro.model.build import build_structure
from repro.model.performance import _strip_prefixes
from repro.ordering import random_ordering
from repro.tmg import build_event_graph, find_token_free_cycle
from tests.strategies import layered_systems
from tests.tmg.enumeration import maximum_cycle_ratio_enumerated
from tests.tmg.lawler import maximum_cycle_ratio_lawler

#: Independent cycle-time oracles (``tests/tmg``), checked against Howard.
ORACLES = {
    "lawler": lambda graph: maximum_cycle_ratio_lawler(graph, exact=True),
    "enumeration": lambda graph: maximum_cycle_ratio_enumerated(graph)[0],
}


class TestMotivatingNumbers:
    def test_suboptimal_cycle_time_is_20(self, motivating, suboptimal_ordering):
        perf = analyze_system(motivating, suboptimal_ordering)
        assert perf.cycle_time == 20
        assert perf.throughput == Fraction(1, 20)  # the paper's 0.05

    def test_optimal_cycle_time_is_12(self, motivating, optimal_ordering):
        perf = analyze_system(motivating, optimal_ordering)
        assert perf.cycle_time == 12

    def test_improvement_is_40_percent(self, motivating, suboptimal_ordering,
                                       optimal_ordering):
        before = analyze_system(motivating, suboptimal_ordering).cycle_time
        after = analyze_system(motivating, optimal_ordering).cycle_time
        assert 1 - after / before == Fraction(2, 5)

    def test_optimal_critical_cycle_is_p2_chain(self, motivating,
                                                optimal_ordering):
        # At the optimum the binding constraint is P2's own serial cycle:
        # a(2) + L2(5) + b(1) + f(1) + d(3) = 12.
        perf = analyze_system(motivating, optimal_ordering)
        assert perf.critical_processes == ("P2",)
        assert set(perf.critical_channels) == {"a", "b", "f", "d"}

    def test_deadlock_raises_with_cycle(self, motivating, deadlock_ordering):
        with pytest.raises(DeadlockError) as excinfo:
            analyze_system(motivating, deadlock_ordering)
        cycle = excinfo.value.cycle
        # The Section 2 circular wait: P2 on d, P6 on g, P5 on f.
        assert set(cycle) >= {"d", "g", "f"}

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_oracles_agree(self, motivating, suboptimal_ordering, oracle):
        graph = build_event_graph(build_tmg(motivating, suboptimal_ordering).tmg)
        assert ORACLES[oracle](graph) == 20
        assert analyze_system(motivating, suboptimal_ordering).cycle_time == 20

    def test_float_mode_agrees(self, motivating, suboptimal_ordering):
        perf = analyze_system(motivating, suboptimal_ordering, exact=False)
        assert isinstance(perf.cycle_time, float)
        assert perf.cycle_time == 20.0


class TestDeadlockChecks:
    def test_is_deadlock_free(self, motivating, suboptimal_ordering,
                              deadlock_ordering):
        assert is_deadlock_free(motivating, suboptimal_ordering)
        assert not is_deadlock_free(motivating, deadlock_ordering)

    def test_deadlock_cycle_names_system_elements(self, motivating,
                                                  deadlock_ordering):
        cycle = deadlock_cycle(motivating, deadlock_ordering)
        assert cycle is not None
        for name in cycle:
            assert motivating.has_process(name) or motivating.has_channel(name)

    def test_deadlock_cycle_none_when_live(self, motivating,
                                           optimal_ordering):
        assert deadlock_cycle(motivating, optimal_ordering) is None

    def test_deadlock_independent_of_latencies(self, motivating,
                                               deadlock_ordering):
        # Deadlock is structural: cranking latencies changes nothing.
        fast = motivating.with_process_latencies(
            {p.name: 1 for p in motivating.processes}
        )
        assert not is_deadlock_free(fast, deadlock_ordering)


def assert_witness_matches_tmg_route(system, ordering):
    """The structure's token-free cycle is the one the DFS finds on the
    event graph of a fresh TMG, and ``deadlock_cycle`` strips it."""
    oracle = find_token_free_cycle(build_event_graph(build_tmg(system, ordering).tmg))
    assert build_structure(lower(system, ordering)).deadlock_cycle == oracle
    expected = None if oracle is None else _strip_prefixes(oracle)
    assert deadlock_cycle(system, ordering) == expected
    assert is_deadlock_free(system, ordering) == (oracle is None)
    return oracle


class TestDeadlockWitnessMatchesTmgRoute:
    def test_motivating_orderings(self, motivating, deadlock_ordering,
                                  suboptimal_ordering):
        assert assert_witness_matches_tmg_route(motivating, deadlock_ordering)
        assert not assert_witness_matches_tmg_route(motivating, suboptimal_ordering)

    @settings(max_examples=40, deadline=None)
    @given(system=layered_systems(), seed=st.integers(0, 999))
    def test_random_orderings(self, system, seed):
        assert_witness_matches_tmg_route(system, random_ordering(system, seed=seed))


class TestLatencyOverrides:
    def test_override_changes_cycle_time(self, motivating, optimal_ordering):
        perf = analyze_system(
            motivating, optimal_ordering, process_latencies={"P2": 10}
        )
        # P2's chain: 2 + 10 + 1 + 1 + 3 = 17
        assert perf.cycle_time == 17

    def test_speeding_up_noncritical_changes_nothing(self, motivating,
                                                     optimal_ordering):
        perf = analyze_system(
            motivating, optimal_ordering, process_latencies={"P4": 0}
        )
        assert perf.cycle_time == 12


class TestFeedback:
    def test_feedback_loop_cycle_time(self, feedback_system):
        perf = analyze_system(feedback_system)
        # loop A -> x -> B -> y -> A carries 1 token:
        # (3 + 1 + 2 + 2[y latency, buffered put]) = 8
        assert perf.cycle_time == 8
        assert set(perf.critical_processes) == {"A", "B"}

    def test_feedback_tokens_increase_throughput(self, feedback_system):
        from repro.core import Channel

        richer = feedback_system.copy()
        richer._channels["y"] = Channel(
            "y", "B", "A", latency=2, capacity=2, initial_tokens=2
        )
        perf = analyze_system(richer)
        assert perf.cycle_time < 8
