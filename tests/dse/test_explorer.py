"""The ERMES exploration loop (Fig. 5) on controlled systems."""

import pytest

from repro.core import ChannelOrdering
from repro.dse import (
    Explorer,
    SystemConfiguration,
    explore,
    iteration_table,
    summarize,
)
from repro.dse.report import series
from repro.hls import Implementation, ImplementationLibrary, ParetoSet


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
def slow_config(motivating, library):
    return SystemConfiguration.initial(
        motivating,
        library,
        ordering=ChannelOrdering.declaration_order(motivating),
        pick="smallest",
    )


class TestTimingRun:
    def test_reaches_target(self, slow_config):
        result = explore(slow_config, target_cycle_time=20)
        assert result.final_record.meets_target
        assert result.final_record.cycle_time <= 30

    def test_history_starts_with_start(self, slow_config):
        result = explore(slow_config, target_cycle_time=20)
        assert result.history[0].action == "start"
        assert result.history[0].iteration == 0

    def test_first_action_is_timing(self, slow_config):
        result = explore(slow_config, target_cycle_time=20)
        assert result.history[1].action == "timing_optimization"

    def test_speedup_property(self, slow_config):
        result = explore(slow_config, target_cycle_time=20)
        assert result.speedup > 1.0

    def test_final_config_consistent_with_record(self, slow_config):
        from repro.model import analyze_system

        result = explore(slow_config, target_cycle_time=20)
        config = result.final
        perf = analyze_system(
            config.system, config.ordering,
            process_latencies=config.process_latencies(),
        )
        assert perf.cycle_time == result.final_record.cycle_time
        assert config.total_area() == result.final_record.area

    def test_unreachable_target_still_terminates(self, slow_config):
        result = explore(slow_config, target_cycle_time=1)
        assert result.stop_reason
        assert not result.final_record.meets_target


class TestAreaRun:
    def test_area_recovery_from_fast_start(self, motivating, library):
        config = SystemConfiguration.initial(
            motivating,
            library,
            ordering=ChannelOrdering.declaration_order(motivating),
            pick="fastest",
        )
        result = explore(config, target_cycle_time=200)
        assert result.history[1].action == "area_recovery"
        assert result.final_record.area < result.initial_record.area
        assert result.final_record.meets_target

    def test_area_change_negative(self, motivating, library):
        config = SystemConfiguration.initial(motivating, library,
                                             pick="fastest")
        result = explore(config, target_cycle_time=500)
        assert result.area_change < 0


class TestLoopMechanics:
    def test_iteration_limit_respected(self, slow_config):
        result = Explorer(target_cycle_time=20, max_iterations=1).run(
            slow_config
        )
        assert len(result.history) <= 2

    def test_reorder_disabled(self, slow_config):
        result = Explorer(target_cycle_time=20, reorder=False).run(slow_config)
        for record in result.history:
            assert record.reordered_processes == ()

    def test_visited_configurations_not_cycled(self, slow_config):
        result = explore(slow_config, target_cycle_time=20)
        keys = [
            tuple(sorted(record.selection_changes))
            for record in result.history[1:]
            if record.selection_changes
        ]
        # the explorer never replays the exact same change set twice in a
        # row (would indicate an undetected cycle)
        for first, second in zip(keys, keys[1:]):
            assert first != second or first == ()

    def test_incumbent_is_best_feasible(self, slow_config):
        result = explore(slow_config, target_cycle_time=20)
        feasible = [r for r in result.history if r.meets_target]
        assert feasible
        best_area = min(r.area for r in feasible)
        assert result.final_record.area == best_area


def _record(iteration, cycle_time, area=10.0):
    from repro.dse.explorer import IterationRecord

    return IterationRecord(
        iteration=iteration,
        action="start" if iteration == 0 else "timing_optimization",
        cycle_time=cycle_time,
        area=area,
        slack=0,
        meets_target=True,
        critical_processes=(),
        selection_changes=(),
        reordered_processes=(),
    )


class TestDegenerateMetrics:
    """Zero cycle times and zero areas must not crash the summary
    properties (regression: ZeroDivisionError on degenerate systems)."""

    def test_speedup_with_zero_final_ct(self):
        from repro.dse.explorer import ExplorationResult

        result = ExplorationResult(
            target_cycle_time=10,
            history=[_record(0, 8), _record(1, 0)],
            final_index=1,
        )
        assert result.speedup == float("inf")

    def test_speedup_with_both_cts_zero(self):
        from repro.dse.explorer import ExplorationResult

        result = ExplorationResult(
            target_cycle_time=10,
            history=[_record(0, 0), _record(1, 0)],
            final_index=1,
        )
        assert result.speedup == 1.0

    def test_area_change_with_zero_initial_area(self):
        from repro.dse.explorer import ExplorationResult

        result = ExplorationResult(
            target_cycle_time=10,
            history=[_record(0, 8, area=0.0), _record(1, 4, area=0.0)],
            final_index=1,
        )
        assert result.area_change == 0.0


class TestCacheStats:
    def test_result_carries_cache_stats(self, slow_config):
        result = explore(slow_config, target_cycle_time=20)
        assert result.cache_stats is not None
        assert set(result.cache_stats) == {"results", "structures"}
        lookups = (result.cache_stats["results"]["hits"]
                   + result.cache_stats["results"]["misses"])
        # One analysis per record, except the converged "none" record,
        # which reuses the previous iteration's performance.
        analyzed = [r for r in result.history if r.action != "none"]
        assert lookups == len(analyzed)

    def test_shared_engine_stays_warm_across_runs(self, slow_config):
        from repro.perf import PerformanceEngine

        engine = PerformanceEngine()
        first = Explorer(target_cycle_time=20, perf_engine=engine).run(
            slow_config
        )
        second = Explorer(target_cycle_time=20, perf_engine=engine).run(
            slow_config
        )
        assert second.history == first.history
        # The replayed run is served entirely from the result cache.
        analyzed = [r for r in second.history if r.action != "none"]
        assert engine.results.stats.hits == len(analyzed)


class TestReporting:
    def test_iteration_table_renders(self, slow_config):
        result = explore(slow_config, target_cycle_time=20)
        table = iteration_table(result)
        assert "timing_optimization" in table
        assert "stop:" in table

    def test_series_shape(self, slow_config):
        result = explore(slow_config, target_cycle_time=20)
        data = series(result, cycle_time_unit=1.0)
        assert data[0]["iteration"] == 0
        assert {"cycle_time", "area", "action", "meets_target"} <= set(data[0])

    def test_summarize_mentions_speedup(self, slow_config):
        result = explore(slow_config, target_cycle_time=20)
        assert "speed-up" in summarize(result)


class TestIlpNodeLimit:
    def test_cut_resolve_abort_is_not_reported_as_exhausted(
        self, motivating, library, monkeypatch
    ):
        """A no-good-cut re-solve that runs out of branch-and-bound nodes
        stops the run with its own reason, and its nodes are counted."""
        import repro.dse.explorer as explorer_module
        from repro.obs import collect

        real_solve = explorer_module.branch_bound.solve
        solved_nodes = []

        def solve(problem):
            if problem.forbidden:
                return real_solve(problem, node_limit=1)
            solution = real_solve(problem)
            solved_nodes.append(solution.nodes)
            return solution

        monkeypatch.setattr(explorer_module.branch_bound, "solve", solve)
        config = SystemConfiguration.initial(
            motivating,
            library,
            ordering=ChannelOrdering.declaration_order(motivating),
            pick="fastest",
        )
        with collect() as registry:
            result = Explorer(target_cycle_time=20).run(config)
        assert result.stop_reason == "ILP node limit reached (2 nodes)"
        counted = registry.counter("dse.ilp.nodes").value
        assert counted == sum(solved_nodes) + 2
