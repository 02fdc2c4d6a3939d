"""The budgeted explicit-state checker: verdicts, budgets, strictness."""

import pytest

from repro.core import SystemBuilder
from repro.core.generators import fork_join, pipeline
from repro.errors import BudgetExceeded, DeadlockError, ValidationError
from repro.obs import collect
from repro.verify import Verdict, check_deadlock
from repro.verify.checker import (
    SMALL_SYSTEM_LIMIT,
    is_small_system,
    verify_ordering,
)
from tests.sym.conftest import build_lanes


class TestVerdicts:
    def test_live_ordering_is_proven_free(self, motivating,
                                          optimal_ordering):
        result = check_deadlock(motivating, optimal_ordering)
        assert result.verdict is Verdict.DEADLOCK_FREE
        assert result.proven_free and result.conclusive
        assert result.witness is None
        assert 0 < result.states_explored <= result.state_space_bound

    def test_dead_ordering_yields_a_witness(self, motivating,
                                            deadlock_ordering):
        result = check_deadlock(motivating, deadlock_ordering)
        assert result.verdict is Verdict.DEADLOCKED
        assert result.deadlocked and result.conclusive
        witness = result.witness
        assert witness is not None
        assert witness.cycle  # alternating process/channel names
        assert witness.blocked
        assert "steps" in result.reason

    def test_bfs_witness_is_shortest(self, motivating, deadlock_ordering):
        """BFS + POR still finds the 3-step route into the Listing-1
        deadlock (the reduction preserves shortest deadlock distance
        here; a longer schedule would mean wasted diagnosis reading)."""
        result = check_deadlock(motivating, deadlock_ordering)
        assert len(result.witness.schedule) == 3

    def test_single_chain_system_is_free(self):
        system = (
            SystemBuilder("lonely")
            .source("src", latency=1)
            .process("w", latency=1)
            .sink("snk", latency=1)
            .channel("i", "src", "w", latency=1)
            .channel("o", "w", "snk", latency=1)
            .build()
        )
        result = check_deadlock(system)
        assert result.verdict is Verdict.DEADLOCK_FREE

    def test_por_off_reaches_the_same_verdicts(self, motivating,
                                               deadlock_ordering,
                                               optimal_ordering):
        for ordering, expected in (
            (deadlock_ordering, Verdict.DEADLOCKED),
            (optimal_ordering, Verdict.DEADLOCK_FREE),
        ):
            naive = check_deadlock(motivating, ordering, por=False)
            assert naive.verdict is expected
            assert naive.por_pruned == 0

    def test_por_explores_no_more_states_than_naive(self):
        system = pipeline(4)
        reduced = check_deadlock(system)
        naive = check_deadlock(system, por=False)
        assert reduced.verdict is naive.verdict is Verdict.DEADLOCK_FREE
        assert reduced.states_explored <= naive.states_explored
        assert reduced.por_pruned > 0


class TestBudgets:
    def test_state_budget_yields_inconclusive(self, motivating):
        result = check_deadlock(motivating, budget_states=2)
        assert result.verdict is Verdict.INCONCLUSIVE
        assert not result.conclusive
        assert "state budget exceeded" in result.reason
        assert result.witness is None

    def test_budget_never_silently_passes(self, motivating):
        """An exhausted budget is an explicit third verdict — it must
        not be confused with either proof."""
        result = check_deadlock(motivating, budget_states=2)
        assert not result.proven_free
        assert not result.deadlocked

    def test_state_budget_counts_expanded_states(self):
        """An exhausted budget reports exactly ``budget_states`` states
        expanded, with or without the reduction."""
        for por in (True, False):
            result = check_deadlock(fork_join(4), por=por, budget_states=3)
            assert result.verdict is Verdict.INCONCLUSIVE
            assert result.states_explored == 3
        reduced = check_deadlock(fork_join(4), budget_states=3)
        assert reduced.transitions_fired == 3
        quotient = check_deadlock(build_lanes(3), sym=True, budget_states=3)
        assert quotient.sym and quotient.verdict is Verdict.INCONCLUSIVE
        assert quotient.states_explored == 3

    def test_invalid_budget_rejected(self, motivating):
        with pytest.raises(ValidationError, match="budget_states"):
            check_deadlock(motivating, budget_states=0)
        with pytest.raises(ValidationError, match="budget_seconds"):
            check_deadlock(motivating, budget_seconds=-1)


class TestVerifyOrdering:
    def test_passes_through_on_freedom(self, motivating, optimal_ordering):
        result = verify_ordering(motivating, optimal_ordering)
        assert result.verdict is Verdict.DEADLOCK_FREE

    def test_raises_deadlock_error_with_cycle(self, motivating,
                                              deadlock_ordering):
        with pytest.raises(DeadlockError) as exc:
            verify_ordering(motivating, deadlock_ordering)
        assert exc.value.cycle  # the witness circular wait rides along
        assert "witness schedule" in str(exc.value)

    def test_raises_budget_exceeded_on_inconclusive(self, motivating,
                                                    optimal_ordering):
        with pytest.raises(BudgetExceeded):
            verify_ordering(motivating, optimal_ordering, budget_states=2)


class TestMetrics:
    def test_run_reports_verify_counters(self, motivating,
                                         deadlock_ordering):
        with collect() as registry:
            result = check_deadlock(motivating, deadlock_ordering)
        counters = registry.snapshot()["counters"]
        assert counters["verify.runs"] == 1
        assert counters["verify.states.explored"] == result.states_explored
        assert counters["verify.deadlocks"] == 1
        assert "verify.search" in registry.snapshot()["timers"]


class TestSmallSystemGate:
    def test_examples_within_limit(self, motivating):
        assert is_small_system(motivating)
        assert is_small_system(fork_join(4))

    def test_limit_counts_processes_plus_channels(self):
        builder = SystemBuilder("wide").source("src").sink("snk")
        for i in range(SMALL_SYSTEM_LIMIT):
            builder.process(f"w{i}", latency=1)
            builder.channel(f"i{i}", "src", f"w{i}")
            builder.channel(f"o{i}", f"w{i}", "snk")
        system = builder.build()
        assert not is_small_system(system)
