"""Tests for FIFO buffer sizing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import motivating_example, motivating_optimal_ordering, pipeline
from repro.errors import ValidationError
from repro.model import analyze_system
from repro.sizing import minimize_buffers, size_buffers
from repro.sizing.capacity import cycle_time_with_capacities
from tests.strategies import layered_systems


class TestSizeBuffers:
    def test_pipeline_reaches_floor(self):
        system = pipeline(4, process_latency=6, channel_latency=2)
        # rendezvous CT is 10 (two coupled stages); 1-deep FIFOs decouple
        # down to the per-stage floor of 6 + 2 = 8.
        assert analyze_system(system).cycle_time == 10
        result = size_buffers(system, target_cycle_time=8)
        assert result.feasible
        assert result.cycle_time == 8

    def test_unreachable_target_reports_infeasible(self):
        system = pipeline(4, process_latency=6, channel_latency=2)
        result = size_buffers(system, target_cycle_time=3)
        assert not result.feasible
        assert result.cycle_time == 8  # saturated at the floor

    def test_invalid_target_rejected(self):
        with pytest.raises(ValidationError):
            size_buffers(pipeline(2), target_cycle_time=0)

    def test_initial_tokens_respected(self, feedback_system):
        result = size_buffers(feedback_system, target_cycle_time=8)
        assert result.capacities["y"] >= 1  # the pre-loaded channel

    def test_motivating_example_below_rendezvous_optimum(self):
        system = motivating_example()
        ordering = motivating_optimal_ordering(system)
        # rendezvous optimum is 12; buffering can push below it.
        result = size_buffers(system, target_cycle_time=10,
                              ordering=ordering)
        assert result.feasible
        assert result.cycle_time <= 10

    def test_max_capacity_cap(self):
        system = pipeline(2, process_latency=4, channel_latency=1)
        result = size_buffers(system, target_cycle_time=1, max_capacity=2)
        assert not result.feasible
        assert all(c <= 2 for c in result.capacities.values())


class TestMinimizeBuffers:
    def test_never_worse_than_greedy(self):
        system = motivating_example()
        ordering = motivating_optimal_ordering(system)
        greedy = size_buffers(system, 10, ordering=ordering)
        trimmed = minimize_buffers(system, 10, ordering=ordering)
        assert trimmed.feasible
        assert trimmed.total_slots <= greedy.total_slots
        assert trimmed.cycle_time <= 10

    def test_trim_keeps_target(self):
        system = pipeline(5, process_latency=7, channel_latency=3)
        result = minimize_buffers(system, target_cycle_time=10)
        assert result.feasible
        assert (
            cycle_time_with_capacities(system, result.capacities) ==
            result.cycle_time
        )

    def test_infeasible_passthrough(self):
        system = pipeline(2, process_latency=9, channel_latency=1)
        result = minimize_buffers(system, target_cycle_time=2)
        assert not result.feasible


class TestSizingProperties:
    @settings(max_examples=20, deadline=None)
    @given(system=layered_systems(max_layers=3, max_width=2))
    def test_sized_system_meets_reported_cycle_time(self, system):
        from repro.ordering import channel_ordering

        ordering = channel_ordering(system)  # guaranteed live
        rendezvous_ct = analyze_system(system, ordering).cycle_time
        if rendezvous_ct == 0:
            return
        target = rendezvous_ct  # always reachable
        result = size_buffers(system, target_cycle_time=target,
                              ordering=ordering)
        assert result.feasible
        assert (
            cycle_time_with_capacities(system, result.capacities, ordering)
            == result.cycle_time
        )
        assert result.cycle_time <= target

    @settings(max_examples=15, deadline=None)
    @given(system=layered_systems(max_layers=3, max_width=2),
           factor=st.floats(0.5, 1.0))
    def test_result_consistency(self, system, factor):
        from repro.ordering import channel_ordering

        ordering = channel_ordering(system)
        rendezvous_ct = analyze_system(system, ordering).cycle_time
        if rendezvous_ct == 0:
            return
        target = max(1, int(float(rendezvous_ct) * factor))
        result = size_buffers(system, target_cycle_time=target,
                              max_capacity=16, ordering=ordering)
        if result.feasible:
            assert result.cycle_time <= target
        else:
            assert result.cycle_time > target
