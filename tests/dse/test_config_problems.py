"""Design configurations and the Section 5 ILP formulations."""

import pytest

from repro.core import ChannelOrdering
from repro.dse import SystemConfiguration
from repro.dse.problems import (
    LATENCY_BUDGET,
    area_recovery_problem,
    timing_optimization_problem,
    AREA_BUDGET,
    process_latency_caps,
)
from repro.errors import ConfigurationError
from repro.hls import Implementation, ImplementationLibrary, ParetoSet
from repro.ilp import branch_bound


@pytest.fixture()
def library(motivating):
    sets = []
    for process in motivating.workers():
        base = process.latency
        sets.append(
            ParetoSet.from_points(
                process.name,
                [
                    Implementation(f"{process.name}.small", base * 4, 10.0),
                    Implementation(f"{process.name}.mid", base * 2, 16.0),
                    Implementation(f"{process.name}.fast", base, 26.0),
                ],
            )
        )
    return ImplementationLibrary(sets)


@pytest.fixture()
def config(motivating, library):
    return SystemConfiguration.initial(
        motivating, library, ordering=ChannelOrdering.declaration_order(motivating)
    )


class TestSystemConfiguration:
    def test_initial_fastest(self, config, motivating):
        for process in motivating.workers():
            assert config.selection[process.name].endswith(".fast")
        assert config.process_latencies()["P2"] == 5

    def test_initial_smallest(self, motivating, library):
        cfg = SystemConfiguration.initial(motivating, library, pick="smallest")
        assert cfg.process_latencies()["P2"] == 20
        assert cfg.total_area() == 50.0

    def test_invalid_pick_rejected(self, motivating, library):
        with pytest.raises(ConfigurationError):
            SystemConfiguration.initial(motivating, library, pick="median")

    def test_testbench_latency_from_system(self, config):
        assert config.process_latencies()["Psrc"] == 1

    def test_total_area(self, config):
        assert config.total_area() == 5 * 26.0

    def test_with_selection_immutable(self, config):
        updated = config.with_selection({"P2": "P2.small"})
        assert updated.selection["P2"] == "P2.small"
        assert config.selection["P2"] == "P2.fast"

    def test_missing_selection_rejected(self, motivating, library):
        with pytest.raises(ConfigurationError):
            SystemConfiguration(
                motivating, library, {"P2": "P2.fast"},
                ChannelOrdering.declaration_order(motivating),
            )

    def test_unknown_implementation_rejected(self, motivating, library, config):
        with pytest.raises(ConfigurationError):
            config.with_selection({"P2": "P2.warp"})

    def test_selection_key_stable(self, config):
        assert config.selection_key() == tuple(sorted(config.selection.items()))


class TestAreaRecovery:
    def test_shrinks_noncritical_freely(self, config):
        problem = area_recovery_problem(config, critical_processes=["P2"],
                                        slack=0.0)
        solution = branch_bound.solve(problem)
        # With zero slack P2 must keep its fast point; everyone else drops
        # to the smallest implementation.
        assert solution.selection["P2"] == "P2.fast"
        for process in ("P3", "P4", "P5", "P6"):
            assert solution.selection[process].endswith(".small")

    def test_slack_lets_critical_slow_down(self, config):
        # P2.mid costs 5 extra cycles; slack 5 admits it.
        problem = area_recovery_problem(config, ["P2"], slack=5.0)
        solution = branch_bound.solve(problem)
        assert solution.selection["P2"] == "P2.mid"

    def test_big_slack_smallest_everywhere(self, config):
        problem = area_recovery_problem(config, ["P2"], slack=1000.0)
        solution = branch_bound.solve(problem)
        assert all(name.endswith(".small") for name in solution.selection.values())

    def test_latency_budget_constraint_present(self, config):
        problem = area_recovery_problem(config, ["P2"], slack=3.0)
        (constraint,) = problem.constraints
        assert constraint.name == LATENCY_BUDGET
        assert constraint.rhs == 3.0

    def test_latency_caps_filter_choices(self, config):
        caps = {"P3": 2}  # only the fast point (latency 2) fits
        problem = area_recovery_problem(config, ["P2"], slack=0.0,
                                        latency_caps=caps)
        group = problem.group("P3")
        assert {c.name for c in group.choices} == {"P3.fast"}

    def test_caps_always_keep_current(self, motivating, library):
        cfg = SystemConfiguration.initial(motivating, library, pick="smallest")
        problem = area_recovery_problem(cfg, [], slack=0.0,
                                        latency_caps={"P3": 1})
        group = problem.group("P3")
        assert "P3.small" in {c.name for c in group.choices}


class TestTimingOptimization:
    def test_without_budget_only_critical_groups(self, motivating, library):
        cfg = SystemConfiguration.initial(motivating, library, pick="smallest")
        problem = timing_optimization_problem(cfg, ["P2", "P6"])
        assert {g.name for g in problem.groups} == {"P2", "P6"}
        solution = branch_bound.solve(problem)
        assert solution.selection["P2"] == "P2.fast"
        assert solution.selection["P6"] == "P6.fast"

    def test_objective_is_latency_gain(self, motivating, library):
        cfg = SystemConfiguration.initial(motivating, library, pick="smallest")
        problem = timing_optimization_problem(cfg, ["P2"])
        solution = branch_bound.solve(problem)
        # P2: 20 -> 5 gives gain 15
        assert solution.objective == pytest.approx(15.0)

    def test_area_budget_activates_dual_form(self, motivating, library):
        cfg = SystemConfiguration.initial(motivating, library, pick="smallest")
        problem = timing_optimization_problem(cfg, ["P2"], area_budget=10.0)
        assert {g.name for g in problem.groups} == {
            p.name for p in motivating.workers()
        }
        assert problem.constraints[0].name == AREA_BUDGET

    def test_area_budget_binds(self, motivating, library):
        cfg = SystemConfiguration.initial(motivating, library, pick="smallest")
        # fast costs +16 area; budget 10 only allows mid (+6)
        problem = timing_optimization_problem(cfg, ["P2"], area_budget=10.0)
        solution = branch_bound.solve(problem)
        assert solution.selection["P2"] == "P2.mid"

    def test_off_cycle_prefers_current_when_indifferent(self, motivating,
                                                        library):
        cfg = SystemConfiguration.initial(motivating, library, pick="smallest")
        problem = timing_optimization_problem(cfg, ["P2"], area_budget=100.0)
        solution = branch_bound.solve(problem)
        for process in ("P3", "P4", "P5", "P6"):
            assert solution.selection[process].endswith(".small")


class TestLatencyCaps:
    def test_caps_formula(self, config, motivating):
        caps = process_latency_caps(config, target_cycle_time=100)
        # P2's channels: a(2) + b(1) + d(3) + f(1) = 7 -> cap 93
        assert caps["P2"] == 93

    def test_caps_clamped_at_zero(self, config):
        caps = process_latency_caps(config, target_cycle_time=1)
        assert caps["P2"] == 0

    @staticmethod
    def _fifo_consumer_setup():
        """A consumer behind a high-latency FIFO input.

        The FIFO decouples the consumer: its serial chain dequeues in zero
        cycles, so the channel's 10-cycle transfer latency belongs to the
        *producer's* bound only.
        """
        from repro.core import SystemBuilder

        system = (
            SystemBuilder("fifo")
            .source("src", latency=1)
            .process("A", latency=2)
            .sink("snk", latency=1)
            .channel("i", "src", "A", latency=10, capacity=4)
            .channel("o", "A", "snk", latency=1)
            .build()
        )
        library = ImplementationLibrary([
            ParetoSet.from_points("A", [
                Implementation("A.slow", 8, 10.0),
                Implementation("A.fast", 2, 26.0),
            ]),
        ])
        config = SystemConfiguration.initial(
            system, library,
            ordering=ChannelOrdering.declaration_order(system),
        )
        return system, config

    def test_buffered_input_does_not_count(self):
        system, config = self._fifo_consumer_setup()
        caps = process_latency_caps(config, target_cycle_time=15)
        # A's bound: buffered input i contributes 0, output o contributes 1
        # -> cap 14.  Summing the raw latencies (10 + 1) would cap at 4 and
        # wrongly exclude A.slow (latency 8), which the next test shows is
        # feasible.
        assert caps["A"] == 14

    def test_excluded_implementation_is_actually_feasible(self):
        from repro.model import analyze_system

        system, config = self._fifo_consumer_setup()
        slow = config.with_selection({"A": "A.slow"})
        performance = analyze_system(
            system, slow.ordering,
            process_latencies=slow.process_latencies(),
        )
        assert performance.cycle_time <= 15

    def test_area_recovery_can_reach_the_implementation(self):
        system, config = self._fifo_consumer_setup()
        caps = process_latency_caps(config, target_cycle_time=15)
        problem = area_recovery_problem(config, [], slack=1000.0,
                                        latency_caps=caps)
        solution = branch_bound.solve(problem)
        assert solution.selection["A"] == "A.slow"
