"""Simulated-annealing ordering baseline."""

import pytest
from hypothesis import given, settings

from repro.model import analyze_system, deadlock_cycle
from repro.ordering import (
    anneal_ordering,
    channel_ordering,
    declaration_ordering,
)
from tests.strategies import layered_systems


class TestAnnealOnMotivating:
    def test_reaches_global_optimum(self, motivating):
        result = anneal_ordering(motivating, iterations=300, seed=1)
        assert result.cycle_time == 12  # the exhaustive optimum

    def test_repairs_deadlocking_start(self, motivating, deadlock_ordering):
        result = anneal_ordering(
            motivating, initial=deadlock_ordering, iterations=100, seed=0
        )
        assert deadlock_cycle(motivating, result.ordering) is None
        assert result.cycle_time <= 20

    def test_live_start_kept(self, motivating, suboptimal_ordering):
        result = anneal_ordering(
            motivating, initial=suboptimal_ordering, iterations=0, seed=0
        )
        assert result.cycle_time == 20
        assert result.initial_cycle_time == 20

    def test_deterministic_per_seed(self, motivating):
        a = anneal_ordering(motivating, iterations=100, seed=5)
        b = anneal_ordering(motivating, iterations=100, seed=5)
        assert a.cycle_time == b.cycle_time
        assert a.accepted == b.accepted

    def test_counts_consistent(self, motivating):
        result = anneal_ordering(motivating, iterations=120, seed=2)
        assert 0 <= result.accepted <= result.evaluations <= 120


class TestAnnealProperties:
    @settings(max_examples=10, deadline=None)
    @given(system=layered_systems(max_layers=3, max_width=2))
    def test_never_worse_than_start_and_always_live(self, system):
        result = anneal_ordering(system, iterations=60, seed=3)
        assert result.cycle_time <= result.initial_cycle_time
        assert deadlock_cycle(system, result.ordering) is None
        # the reported cycle time is the true one
        assert analyze_system(system, result.ordering).cycle_time == \
            result.cycle_time

    @settings(max_examples=8, deadline=None)
    @given(system=layered_systems(max_layers=2, max_width=2))
    def test_annealing_vs_algorithm1(self, system):
        """Annealing (from Algorithm 1's start) can only confirm or improve
        the constructive result — never regress it."""
        base = analyze_system(system, channel_ordering(system)).cycle_time
        result = anneal_ordering(system, iterations=80, seed=4)
        assert result.cycle_time <= base
