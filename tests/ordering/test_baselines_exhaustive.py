"""Baseline orderings and exhaustive search."""

import pytest

from repro.core import ChannelOrdering
from repro.model import analyze_system, deadlock_cycle
from repro.ordering import (
    conservative_ordering,
    declaration_ordering,
    exhaustive_search,
)
from repro.ordering.baselines import random_ordering, reversed_ordering


class TestBaselines:
    def test_declaration_matches_channel_insertion(self, motivating):
        ordering = declaration_ordering(motivating)
        assert ordering.puts_of("P2") == ("b", "d", "f")

    def test_reversed(self, motivating):
        ordering = reversed_ordering(motivating)
        assert ordering.puts_of("P2") == ("f", "d", "b")
        ordering.validate(motivating)

    def test_random_is_valid_permutation(self, motivating):
        ordering = random_ordering(motivating, seed=5)
        ordering.validate(motivating)

    def test_random_deterministic_per_seed(self, motivating):
        a = random_ordering(motivating, seed=3)
        b = random_ordering(motivating, seed=3)
        assert a.gets == b.gets and a.puts == b.puts

    def test_conservative_is_deadlock_free(self, motivating):
        assert deadlock_cycle(motivating, conservative_ordering(motivating)) is None

    def test_conservative_deadlock_free_on_random_systems(self):
        from repro.core import synthetic_soc

        for seed in range(8):
            system = synthetic_soc(40, seed=seed)
            assert deadlock_cycle(system, conservative_ordering(system)) is None

    def test_conservative_sweeps_by_rank(self, motivating):
        ordering = conservative_ordering(motivating)
        # P6's producers in topological rank order: P2 < P5 < P4 is not
        # guaranteed, but d (from P2) must come before g/e since P2
        # precedes P4 and P5 in any topological order of this DAG.
        assert ordering.gets_of("P6")[0] == "d"


class TestExhaustiveSearch:
    def test_motivating_statistics(self, motivating):
        result = exhaustive_search(motivating)
        assert result.total_orderings == 36
        assert result.live_orderings == 36 - result.deadlocking_orderings
        assert result.best_cycle_time == 12
        assert result.worst_cycle_time == 20
        assert result.deadlocking_orderings == 14

    def test_best_ordering_is_live_and_optimal(self, motivating):
        result = exhaustive_search(motivating)
        perf = analyze_system(motivating, result.best_ordering)
        assert perf.cycle_time == 12

    def test_limit_enforced(self, motivating):
        with pytest.raises(ValueError):
            exhaustive_search(motivating, limit=10)

    def test_callback_sees_everything(self, motivating):
        seen = []
        exhaustive_search(
            motivating, on_ordering=lambda o, ct: seen.append(ct)
        )
        assert len(seen) == 36
        assert seen.count(None) == 14
