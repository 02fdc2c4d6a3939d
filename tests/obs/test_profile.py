"""The DSE profile: each IterationRecord carries its own cost, and
``Explorer.run`` records the ``dse.*`` metrics with no hook attached."""

import json
from dataclasses import replace

from repro.core import motivating_example
from repro.dse import (
    Explorer,
    SystemConfiguration,
    convergence_rows,
    format_convergence,
)
from repro.hls import ImplementationLibrary, synthesize_pareto_set
from repro.hls.implementation import Implementation
from repro.hls.pareto import ParetoSet
from repro.obs import MemorySink, collect
from repro.obs.profile import stall_attribution
from repro.perf import PerformanceEngine
from repro.sim import Simulator

#: The ``ermes profile --json`` ``iterations`` row keys.
ROW_KEYS = {
    "iteration", "action", "cycle_time", "area", "slack", "meets_target",
    "selection_changes", "reordered_processes", "wall_time_s",
    "cache_hits", "cache_misses", "ilp_nodes",
}


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


def _pinned():
    """A fixed library for the motivating example: ``_library`` varies
    with the hash seed (``synthesize_pareto_set`` seeds its jitter with
    ``hash(process)``)."""
    points = {
        "P2": [(1, 30.77), (2, 18.33), (3, 14.9), (7, 9.52)],
        "P3": [(1, 5.68), (2, 4.58), (3, 3.77)],
        "P4": [(1, 1.92)],
        "P5": [(1, 5.72), (2, 4.44), (3, 3.79)],
        "P6": [(1, 5.67), (2, 4.49), (3, 3.62)],
    }
    return ImplementationLibrary(
        ParetoSet.from_points(process, [
            Implementation(f"{process}.l{latency}", latency, area)
            for latency, area in pairs
        ])
        for process, pairs in points.items()
    )


def _profiled_run(target=9.0, max_iterations=6, library=None):
    system = motivating_example()
    config = SystemConfiguration.initial(
        system, library or _library(system), pick="smallest"
    )
    explorer = Explorer(
        target_cycle_time=target,
        max_iterations=max_iterations,
        perf_engine=PerformanceEngine(),
    )
    with collect() as registry:
        result = explorer.run(config)
    return result, registry


class TestDseProfiler:
    def test_one_snapshot_per_iteration(self):
        result, _ = _profiled_run()
        rows = convergence_rows(result.history)
        assert len(rows) == len(result.history) > 1
        assert [row["iteration"] for row in rows] == [
            r.iteration for r in result.history
        ]

    def test_snapshot_contents_mirror_records(self):
        result, _ = _profiled_run()
        for row, record in zip(convergence_rows(result.history),
                               result.history):
            assert row["action"] == record.action
            assert row["cycle_time"] == float(record.cycle_time)
            assert row["area"] == record.area
            assert row["meets_target"] == record.meets_target
            assert row["ilp_nodes"] == record.ilp_nodes
            assert record.wall_time_s >= 0.0
            assert record.cache_hits >= 0 and record.cache_misses >= 0

    def test_cost_fields_take_no_part_in_equality(self):
        result, _ = _profiled_run()
        record = result.history[-1]
        assert replace(record, wall_time_s=9.0, cache_hits=7,
                       cache_misses=5) == record
        assert replace(record, ilp_nodes=record.ilp_nodes + 1) != record

    def test_metrics_recorded(self):
        # No hook attached: Explorer.run itself records the dse.* metrics.
        result, registry = _profiled_run(target=10.0)
        assert result.stop_reason == "iteration limit reached"
        assert registry.counter("dse.runs").value == 1
        assert registry.counter("dse.iterations").value == len(
            result.history
        )
        names = {c.name for c in registry.counters()}
        assert "cache.results.hits" in names  # merged at the end of run
        # Every solve lands in a record.
        assert sum(r.ilp_nodes for r in result.history) == (
            registry.counter("dse.ilp.nodes").value
        )
        walls = registry.histogram("dse.iteration.wall_s")
        assert walls.count == len(result.history)

    def test_a_run_ended_by_a_resolve_records_its_nodes(self):
        # At target 9 the last iteration's re-solve is infeasible after a
        # successful first solve; the first solve's nodes go into the last
        # record, which keeps its place in the history.
        result, registry = _profiled_run(target=9.0, library=_pinned())
        assert result.stop_reason == "all candidate configurations visited"
        assert len(result.history) == 5
        assert sum(r.ilp_nodes for r in result.history) == (
            registry.counter("dse.ilp.nodes").value
        ) == 7

    def test_a_node_limit_stop_records_the_aborted_nodes(self, monkeypatch):
        from repro.errors import NodeLimitError
        from repro.ilp import branch_bound

        solve, calls = branch_bound.solve, []

        def abort_second(problem):
            calls.append(problem)
            if len(calls) == 2:
                raise NodeLimitError("node limit", nodes=5)
            return solve(problem)

        monkeypatch.setattr(branch_bound, "solve", abort_second)
        result, registry = _profiled_run(library=_pinned())
        assert result.stop_reason == "ILP node limit reached (5 nodes)"
        assert len(result.history) == 2
        assert result.history[-1].ilp_nodes >= 5
        assert sum(r.ilp_nodes for r in result.history) == (
            registry.counter("dse.ilp.nodes").value
        )

    def test_cache_deltas_sum_to_engine_totals(self):
        engine = PerformanceEngine()
        system = motivating_example()
        config = SystemConfiguration.initial(
            system, _library(system), pick="smallest"
        )
        result = Explorer(target_cycle_time=9.0, max_iterations=6,
                          perf_engine=engine).run(config)
        stats = engine.stats()["results"]
        assert sum(r.cache_hits for r in result.history) == stats.hits
        assert sum(r.cache_misses for r in result.history) == stats.misses

    def test_snapshots_accumulate_across_runs(self):
        system = motivating_example()
        config = SystemConfiguration.initial(
            system, _library(system), pick="smallest"
        )
        engine = PerformanceEngine()
        histories = []
        with collect() as registry:
            for target in (12.0, 9.0):
                histories.append(Explorer(
                    target_cycle_time=target,
                    max_iterations=3,
                    perf_engine=engine,
                ).run(config).history)
        assert registry.counter("dse.runs").value == 2
        assert registry.counter("dse.iterations").value == sum(
            len(h) for h in histories
        )

    def test_as_dicts_round_trip(self):
        result, _ = _profiled_run()
        rows = convergence_rows(result.history)
        assert len(rows) == len(result.history)
        json.dumps(rows)  # JSON-friendly
        assert all(set(row) == ROW_KEYS for row in rows)
        assert rows[0]["iteration"] == 0
        assert rows[0]["action"] == "start"


class TestFormatConvergence:
    def test_one_row_per_snapshot(self):
        result, _ = _profiled_run()
        text = format_convergence(result.history)
        lines = text.splitlines()
        assert len(lines) == 1 + len(result.history)
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
