"""Memory co-optimization (the paper's future work, implemented)."""

import pytest

from repro.core import ChannelOrdering
from repro.core.system import Channel
from repro.dse import (
    SystemConfiguration,
    co_optimize,
    volume_proportional_slot_area,
)
from repro.dse.memory import memory_area
from repro.hls import Implementation, ImplementationLibrary, ParetoSet


@pytest.fixture()
def setup(motivating):
    sets = []
    for process in motivating.workers():
        base = process.latency
        sets.append(
            ParetoSet.from_points(
                process.name,
                [
                    Implementation(f"{process.name}.small", base * 4, 10.0),
                    Implementation(f"{process.name}.fast", base, 26.0),
                ],
            )
        )
    library = ImplementationLibrary(sets)
    return SystemConfiguration.initial(
        motivating, library,
        ordering=ChannelOrdering.declaration_order(motivating),
        pick="smallest",
    )


class TestMemoryModel:
    def test_slot_area_proportional_to_latency(self, motivating):
        model = volume_proportional_slot_area(area_per_latency_cycle=10.0)
        assert model(motivating.channel("d")) == 30.0  # latency 3
        assert model(motivating.channel("b")) == 10.0

    def test_zero_latency_slot_is_not_free(self, motivating):
        """Regression: a zero-latency buffered channel's slots must still
        cost storage.

        The model used to price a slot at ``area_per_latency_cycle *
        latency``, handing zero-latency channels unlimited free slots
        that ``co_optimize`` would happily buy.  The public constructor
        enforces ``latency >= 1``, so bypass validation the way a
        hand-built or future relaxed model could.
        """
        import copy

        zero = copy.copy(motivating.channel("b"))
        object.__setattr__(zero, "latency", 0)
        model = volume_proportional_slot_area(area_per_latency_cycle=10.0)
        assert model(zero) == 10.0  # floored at one latency cycle

    def test_min_slot_area_parameter(self, motivating):
        model = volume_proportional_slot_area(
            area_per_latency_cycle=10.0, min_slot_area=25.0
        )
        assert model(motivating.channel("b")) == 25.0  # latency 1, floored
        assert model(motivating.channel("d")) == 30.0  # latency 3, above

    def test_memory_area_sums_slots(self, motivating):
        model = volume_proportional_slot_area(10.0)
        total = memory_area(
            motivating, {"d": 2, "b": 1, "a": 0}, model
        )
        assert total == 2 * 30.0 + 10.0

    def test_rendezvous_costs_nothing(self, motivating):
        model = volume_proportional_slot_area(10.0)
        assert memory_area(
            motivating, {c.name: 0 for c in motivating.channels}, model
        ) == 0.0


class TestCoOptimize:
    def test_logic_only_when_target_easy(self, setup):
        # Target reachable by implementations alone: no buffers bought.
        result = co_optimize(setup, target_cycle_time=20)
        assert result.feasible
        assert result.cycle_time <= 20
        assert result.memory_area == 0.0
        assert result.sized_channels == ()

    def test_buffers_bought_below_logic_floor(self, setup):
        # The fastest-logic floor of the motivating example is 12 (P2's
        # serial cycle); going below needs FIFO slots.
        result = co_optimize(setup, target_cycle_time=10)
        assert result.feasible
        assert result.cycle_time <= 10
        assert result.memory_area > 0.0
        assert result.sized_channels

    def test_memory_charged_by_model(self, setup, motivating):
        expensive = volume_proportional_slot_area(1000.0)
        cheap = volume_proportional_slot_area(1.0)
        costly = co_optimize(setup, target_cycle_time=10,
                             slot_area=expensive)
        frugal = co_optimize(setup, target_cycle_time=10, slot_area=cheap)
        assert costly.capacities == frugal.capacities
        assert costly.memory_area == 1000.0 * frugal.memory_area

    def test_total_area_is_sum(self, setup):
        result = co_optimize(setup, target_cycle_time=10)
        assert result.total_area == result.logic_area + result.memory_area

    def test_infeasible_even_with_buffers(self, setup):
        result = co_optimize(setup, target_cycle_time=1, max_capacity=4)
        assert not result.feasible
        assert result.cycle_time > 1

    def test_expensive_slots_trimmed_to_rendezvous(self, setup):
        """Channels whose slot the target does not need fall back to the
        free rendezvous protocol."""
        result = co_optimize(setup, target_cycle_time=11)
        rendezvous = [n for n, c in result.capacities.items() if c == 0]
        assert rendezvous  # not every channel needs a buffer for CT 11
        assert result.feasible


class TestEscalationErrorHandling:
    """Regression: the reordering step used to swallow *every* exception
    ("ordering failures keep current"), hiding real programming errors.
    Only domain errors may keep the current ordering."""

    def test_programming_errors_propagate(self, setup, monkeypatch):
        import repro.ordering.algorithm as algorithm
        from repro.dse.memory import _escalate_with_buffers

        def broken(system, **kwargs):
            raise RuntimeError("bug in channel_ordering")

        monkeypatch.setattr(algorithm, "channel_ordering", broken)
        with pytest.raises(RuntimeError, match="bug in channel_ordering"):
            _escalate_with_buffers(setup, target_cycle_time=10,
                                   max_capacity=16)

    def test_domain_errors_keep_current_ordering(self, setup, monkeypatch):
        import repro.ordering.algorithm as algorithm
        from repro.dse.memory import _escalate_with_buffers
        from repro.errors import DeadlockError

        def refusing(system, **kwargs):
            raise DeadlockError("no live ordering from here")

        monkeypatch.setattr(algorithm, "channel_ordering", refusing)
        candidate, _, sized = _escalate_with_buffers(
            setup, target_cycle_time=10, max_capacity=16
        )
        # The escalation carried on with the configuration's own ordering.
        assert candidate.ordering is setup.ordering
        assert sized.feasible
