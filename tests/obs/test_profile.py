"""DseProfiler: one snapshot per exploration iteration, plus helpers."""

from repro.core import motivating_example
from repro.dse import Explorer, SystemConfiguration
from repro.hls import ImplementationLibrary, synthesize_pareto_set
from repro.obs import (
    DseProfiler,
    MemorySink,
    collect,
    format_convergence,
    stall_attribution,
)
from repro.perf import PerformanceEngine
from repro.sim import Simulator


def _library(system, seed=0):
    return ImplementationLibrary(
        synthesize_pareto_set(
            p.name,
            base_latency=max(p.latency, 1),
            base_area=3.0 * max(p.latency, 1),
            seed=seed,
            max_points=4,
        )
        for p in system.workers()
    )


def _profiled_run(target=9.0, max_iterations=6):
    system = motivating_example()
    config = SystemConfiguration.initial(
        system, _library(system), pick="smallest"
    )
    profiler = DseProfiler()
    explorer = Explorer(
        target_cycle_time=target,
        max_iterations=max_iterations,
        perf_engine=PerformanceEngine(),
        profiler=profiler,
    )
    with collect() as registry:
        result = explorer.run(config)
    return result, profiler, registry


class TestDseProfiler:
    def test_one_snapshot_per_iteration(self):
        result, profiler, _ = _profiled_run()
        assert len(profiler.snapshots) == len(result.history)
        assert [s.iteration for s in profiler.snapshots] == [
            r.iteration for r in result.history
        ]

    def test_snapshot_contents_mirror_records(self):
        result, profiler, _ = _profiled_run()
        for snapshot, record in zip(profiler.snapshots, result.history):
            assert snapshot.action == record.action
            assert snapshot.cycle_time == float(record.cycle_time)
            assert snapshot.area == record.area
            assert snapshot.meets_target == record.meets_target
            assert snapshot.wall_time_s >= 0.0

    def test_metrics_recorded(self):
        _, profiler, registry = _profiled_run()
        assert registry.counter("dse.runs").value == 1
        assert registry.counter("dse.iterations").value == len(
            profiler.snapshots
        )
        names = {c.name for c in registry.counters()}
        assert "cache.results.hits" in names  # merged at end_run

    def test_snapshots_accumulate_across_runs(self):
        system = motivating_example()
        config = SystemConfiguration.initial(
            system, _library(system), pick="smallest"
        )
        profiler = DseProfiler()
        engine = PerformanceEngine()
        with collect() as registry:
            for target in (12.0, 9.0):
                Explorer(
                    target_cycle_time=target,
                    max_iterations=3,
                    perf_engine=engine,
                    profiler=profiler,
                ).run(config)
        assert profiler.runs == 2
        assert registry.counter("dse.runs").value == 2

    def test_as_dicts_round_trip(self):
        import json

        _, profiler, _ = _profiled_run()
        rows = profiler.as_dicts()
        assert len(rows) == len(profiler.snapshots)
        json.dumps(rows)  # JSON-friendly
        assert rows[0]["iteration"] == 0
        assert rows[0]["action"] == "start"


class TestFormatConvergence:
    def test_one_row_per_snapshot(self):
        _, profiler, _ = _profiled_run()
        text = format_convergence(profiler.snapshots)
        lines = text.splitlines()
        assert len(lines) == 1 + len(profiler.snapshots)
        assert "cycle time" in lines[0]
        assert "ilp nodes" in lines[0]


class TestStallAttribution:
    def test_ranks_worst_first_with_peers(self):
        system = motivating_example()
        sink = MemorySink()
        result = Simulator(system, sinks=[sink]).run(iterations=30)
        peers = {c.name: (c.producer, c.consumer) for c in system.channels}
        rows = stall_attribution(result.stall_breakdown, peers)
        assert rows
        cycles = [row[3] for row in rows]
        assert cycles == sorted(cycles, reverse=True)
        for process, channel, peer, _ in rows:
            assert peer in peers[channel]
            assert process in peers[channel]
            assert peer != process

    def test_unknown_topology_uses_placeholder(self):
        rows = stall_attribution({"A": {"x": 5}})
        assert rows == [("A", "x", "?", 5)]

    def test_limit(self):
        breakdown = {"A": {f"c{i}": i + 1 for i in range(20)}}
        assert len(stall_attribution(breakdown, limit=3)) == 3
