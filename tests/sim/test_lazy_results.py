"""Simulation results are read-only views computed on first read.

A run keeps its final counts, its replayed clocks and its event log (a
log that grows with the run is folded into the stall table at once), and
every lane's :class:`~repro.sim.SimulationResult` reads its tables from
them.  These tests pin the contract of that representation: every field
of every lane equals the frozen reference interpreter's dict-built result
(``==`` holds in both orders), the tables cannot be written, a result
outlives its simulator, the stall totals that come from the clock
identity equal the per-channel waits, the ``sim.*`` metric totals,
which are summed without building any lane's table, equal the sums of
the materialized fields, and a pickled or deep-copied result holds
plain dicts.
"""

import gc
import glob
import pickle
import random
from copy import deepcopy
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine
from repro.core import ChannelOrdering, SystemBuilder, load_system
from repro.errors import SimulationDeadlock
from repro.obs.metrics import collect
from repro.ordering import channel_ordering
from repro.sim import BatchLane, BatchSimulator, SimulationResult, Simulator
from tests.sim.reference import ReferenceSimulator
from tests.strategies import layered_systems

SEED_SYSTEMS = sorted(
    path
    for path in glob.glob("examples/designs/*.json")
    if not path.endswith(".ordering.json")
)
FIELDS = [f.name for f in fields(SimulationResult)]
TABLES = ("iterations", "times", "completion_times", "compute_cycles",
          "stall_cycles", "channel_transfers", "stall_breakdown")


def _reference(system, ordering, iterations, lane=BatchLane()):
    return ReferenceSimulator(
        system.with_channel_capacities(lane.channel_capacities or {}),
        ordering,
        process_latencies=lane.process_latencies or {},
    ).run(iterations=iterations)


def _lanes(system, seed, count):
    rng = random.Random(seed)
    return [BatchLane()] + [
        BatchLane(process_latencies={
            name: rng.randint(0, 12) for name in system.process_names
        })
        for _ in range(count - 1)
    ]


def _assert_same(got, want):
    """Field by field, in both orders, then whole results and plain dicts."""
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), name
        assert getattr(want, name) == getattr(got, name), name
        assert not getattr(got, name) != getattr(want, name), name
    assert got == want and want == got
    assert {k: dict(v) for k, v in got.stall_breakdown.items()} == (
        want.stall_breakdown)
    for name in TABLES:
        assert dict(getattr(got, name)) == getattr(want, name), name


def _paid(system, result):
    """Per process, the channel latencies its transfers took: one per put,
    one per rendezvous get (from the system, not from the engine)."""
    paid = dict.fromkeys(system.process_names, 0)
    for channel in system.channels:
        cost = channel.latency * result.channel_transfers[channel.name]
        paid[channel.producer] += cost
        if not channel.is_buffered:
            paid[channel.consumer] += cost
    return paid


class TestAgainstReference:
    @pytest.mark.parametrize("iterations", (1, 7, 64))
    @pytest.mark.parametrize("label", ("declared", "algorithm1"))
    @pytest.mark.parametrize("path", SEED_SYSTEMS)
    def test_every_field_of_every_lane(self, path, label, iterations):
        system = load_system(path)
        ordering = (ChannelOrdering.declaration_order(system)
                    if label == "declared" else channel_ordering(system))
        lanes = _lanes(system, seed=iterations, count=4)
        try:
            want = [_reference(system, ordering, iterations, lane)
                    for lane in lanes]
        except SimulationDeadlock:
            with pytest.raises(SimulationDeadlock):
                Simulator(system, ordering).run(iterations=iterations)
            return
        scalar = Simulator(system, ordering).run(iterations=iterations)
        _assert_same(scalar, want[0])
        batch = BatchSimulator(system, ordering, lanes=lanes).run(
            iterations=iterations)
        for got, expected in zip(batch, want):
            _assert_same(got, expected)

    def test_rows_are_fresh_lists(self, motivating, optimal_ordering):
        result = Simulator(motivating, optimal_ordering).run(iterations=10)
        first = result.completion_times["Psnk"]
        assert isinstance(first, list)
        first.append(-1)
        assert result.completion_times["Psnk"] == first[:-1]


class TestReadOnly:
    @pytest.fixture()
    def result(self, motivating, optimal_ordering):
        return Simulator(motivating, optimal_ordering).run(iterations=20)

    @pytest.mark.parametrize("name", TABLES)
    def test_tables_reject_writes(self, result, name):
        table = getattr(result, name)
        key = next(iter(table))
        with pytest.raises(TypeError):
            table[key] = 0
        with pytest.raises(TypeError):
            del table[key]
        for method in ("update", "pop", "clear", "setdefault"):
            assert not hasattr(table, method)

    def test_breakdown_rows_reject_writes(self, result):
        process, row = next(iter(result.stall_breakdown.items()))
        channel = next(iter(row))
        with pytest.raises(TypeError):
            row[channel] = 0
        assert result.stall_breakdown[process][channel] == row[channel]

    def test_unknown_keys_raise_key_error(self, result):
        with pytest.raises(KeyError):
            result.times["ghost"]
        assert result.completion_times.get("ghost") is None
        assert "ghost" not in result.iterations
        assert result.measured_cycle_time("ghost") is None

    def test_repr_shows_the_contents(self, result):
        assert repr(result.iterations) == repr(dict(result.iterations))


class TestLifetime:
    def test_result_outlives_its_simulator(self, motivating, optimal_ordering):
        want = _reference(motivating, optimal_ordering, 30)
        simulator = Simulator(motivating, optimal_ordering)
        result = simulator.run(iterations=30)
        del simulator
        gc.collect()
        _assert_same(result, want)

    def test_later_runs_leave_earlier_results_alone(self, motivating,
                                                    optimal_ordering):
        simulator = Simulator(motivating, optimal_ordering)
        short = simulator.run(iterations=5)
        simulator.run(iterations=50)
        _assert_same(short, _reference(motivating, optimal_ordering, 5))

    def test_batch_lanes_outlive_their_simulator(self, motivating,
                                                 optimal_ordering):
        lanes = _lanes(motivating, seed=3, count=3)
        results = BatchSimulator(motivating, optimal_ordering,
                                 lanes=lanes).run(iterations=12)
        gc.collect()
        for lane, got in zip(lanes, results):
            _assert_same(got, _reference(motivating, optimal_ordering, 12, lane))

    @pytest.mark.parametrize("capacity, keeps_log", [(40, False), (2, True)])
    def test_event_log_kept_only_while_short(self, monkeypatch, capacity,
                                             keeps_log):
        """A walk that finds no repeating state runs to the end, so its log
        grows with the run: the run folds it into the stall table at once.
        A periodic walk's log stays until the stall breakdown reads it."""
        runs = []
        init = engine._Run.__init__

        def spy(self, *args):
            init(self, *args)
            runs.append(self)

        monkeypatch.setattr(engine._Run, "__init__", spy)
        system = (
            SystemBuilder("fill")
            .source("src", latency=1)
            .process("A", latency=2)
            .sink("snk", latency=1)
            .channel("i", "src", "A", capacity=capacity)
            .channel("o", "A", "snk")
            .build()
        )
        ordering = ChannelOrdering.declaration_order(system)
        result = Simulator(system, ordering).run(iterations=30)
        assert (runs[0]._log is not None) is keeps_log
        _assert_same(result, _reference(system, ordering, 30))
        assert runs[0]._log is None


class TestStallIdentity:
    @settings(max_examples=30, deadline=None)
    @given(system=layered_systems(), seed=st.integers(0, 10_000),
           iterations=st.integers(1, 90))
    def test_identity_equals_breakdown(self, system, seed, iterations):
        """``stall_cycles`` (times − compute − paid latencies) equals the
        row sums of ``stall_breakdown`` (the per-channel waits)."""
        rng = random.Random(seed)
        ordering = channel_ordering(system)
        channels = [c.name for c in system.channels]
        lanes = _lanes(system, seed, 3) + [BatchLane(channel_capacities={
            name: rng.randint(1, 4) for name in rng.sample(channels, 1)
        })]
        results = [Simulator(system, ordering).run(iterations=iterations)]
        results += BatchSimulator(system, ordering, lanes=lanes).run(
            iterations=iterations, on_deadlock="capture")
        checked_systems = [system] * 4 + [
            system.with_channel_capacities(lanes[-1].channel_capacities)]
        for lane_system, result in zip(checked_systems, results):
            if isinstance(result, SimulationDeadlock):
                continue
            paid = _paid(lane_system, result)
            for name in system.process_names:
                waits = sum(result.stall_breakdown.get(name, {}).values())
                assert result.stall_cycles[name] == waits
                assert result.stall_cycles[name] == (
                    result.times[name] - result.compute_cycles[name]
                    - paid[name])


class TestMetricTotals:
    def _materialized(self, results):
        return {
            "iterations": sum(sum(r.iterations.values()) for r in results),
            "transfers": sum(sum(r.channel_transfers.values()) for r in results),
            "compute_cycles": sum(sum(r.compute_cycles.values()) for r in results),
            "stall_cycles": sum(sum(r.stall_cycles.values()) for r in results),
        }

    def test_scalar_totals(self, motivating, suboptimal_ordering):
        with collect() as registry:
            result = Simulator(motivating, suboptimal_ordering).run(50)
        counters = registry.snapshot()["counters"]
        for name, total in self._materialized([result]).items():
            assert counters[f"sim.{name}"] == total, name

    def test_batch_totals_skip_deadlocked_lanes(self, motivating,
                                                deadlock_ordering):
        system = load_system("examples/designs/soc24.json")
        ordering = channel_ordering(system)
        lanes = _lanes(system, seed=5, count=5)
        with collect() as registry:
            results = BatchSimulator(system, ordering, lanes=lanes).run(40)
            BatchSimulator(motivating, deadlock_ordering,
                           lanes=[BatchLane()] * 2).run(
                5, on_deadlock="capture")
        counters = registry.snapshot()["counters"]
        for name, total in self._materialized(results).items():
            assert counters[f"sim.batch.{name}"] == total, name
        assert counters["sim.batch.deadlocked_lanes"] == 2

    def test_totals_build_no_lane_table(self, motivating, optimal_ordering,
                                        monkeypatch):
        """With a registry active, a run sums its totals without computing
        a completion list, the per-channel waits or a lane's stall row."""
        def refuse(*args):
            raise AssertionError("a lane table was built")

        monkeypatch.setattr(engine._Run, "completion_clocks", refuse)
        monkeypatch.setattr(engine._Run, "breakdown", refuse)
        monkeypatch.setattr(engine._Run, "stall_table", property(refuse))
        monkeypatch.setattr(engine._Run, "stall_cycles", property(refuse))
        with collect() as registry:
            Simulator(motivating, optimal_ordering).run(30)
            BatchSimulator(motivating, optimal_ordering,
                           lanes=[BatchLane()] * 3).run(30)
        counters = registry.snapshot()["counters"]
        assert counters["sim.stall_cycles"] >= 0
        assert counters["sim.batch.iterations"] > 0


class TestCopies:
    def test_pickle_and_deepcopy_give_plain_contents(self, motivating,
                                                     optimal_ordering):
        result = Simulator(motivating, optimal_ordering).run(iterations=15)
        want = _reference(motivating, optimal_ordering, 15)
        for copy in (pickle.loads(pickle.dumps(result)), deepcopy(result)):
            _assert_same(copy, want)
            assert type(copy.times) is dict
            assert type(copy.stall_breakdown) is dict
