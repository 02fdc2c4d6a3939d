"""The batch engine is bit-identical to the scalar/reference engines.

The vectorized :class:`repro.sim.BatchSimulator` exists for throughput
(``benchmarks/test_bench_simd.py`` gates that); these tests pin down the
other half of its contract: every lane's :class:`SimulationResult` —
results, traces, sink streams, deadlock diagnoses — equals what the
frozen :class:`ReferenceSimulator` produces for that lane alone.
"""

import glob
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine
from repro.core import ChannelOrdering, load_system
from repro.errors import SimulationDeadlock, SimulationError
from repro.obs.metrics import collect
from repro.obs.sinks import MemorySink
from repro.sim import (
    BatchLane,
    BatchSimulator,
    Simulator,
    simulate_batch,
)
from tests.sim.reference import ReferenceSimulator
from tests.strategies import layered_systems

SEED_SYSTEMS = sorted(
    path
    for path in glob.glob("examples/designs/*.json")
    if not path.endswith(".ordering.json")
)


def _reference(system, ordering, lane, iterations):
    """One lane through the reference engine: result or deadlock triple."""
    try:
        return ReferenceSimulator(
            system.with_channel_capacities(lane.channel_capacities or {}),
            ordering,
            process_latencies=lane.process_latencies or {},
        ).run(iterations=iterations)
    except SimulationDeadlock as deadlock:
        return (str(deadlock), deadlock.cycle, deadlock.waiting)


def _latency_lanes(system, seed, count):
    rng = random.Random(seed)
    names = list(system.process_names)
    return [BatchLane()] + [
        BatchLane(
            process_latencies={n: rng.randint(1, 20) for n in names}
        )
        for _ in range(count - 1)
    ]


class TestDifferential:
    @pytest.mark.parametrize("path", SEED_SYSTEMS)
    def test_lanes_match_reference_on_seed_examples(self, path):
        system = load_system(path)
        ordering = ChannelOrdering.declaration_order(system)
        lanes = _latency_lanes(system, seed=11, count=8)
        outcomes = BatchSimulator(system, ordering, lanes=lanes).run(
            iterations=30, on_deadlock="capture"
        )
        for lane, outcome in zip(lanes, outcomes):
            expected = _reference(system, ordering, lane, iterations=30)
            if isinstance(outcome, SimulationDeadlock):
                outcome = (str(outcome), outcome.cycle, outcome.waiting)
            assert outcome == expected

    @pytest.mark.parametrize("path", SEED_SYSTEMS)
    def test_capacity_override_lanes_match_reference(self, path):
        system = load_system(path)
        ordering = ChannelOrdering.declaration_order(system)
        rng = random.Random(5)
        channels = [c.name for c in system.channels]
        caps = {name: rng.randint(1, 4) for name in channels[:2]}
        lanes = [
            BatchLane(),
            BatchLane(channel_capacities=caps),
            BatchLane(
                channel_capacities=dict(caps),
                process_latencies={
                    n: rng.randint(1, 15) for n in system.process_names
                },
            ),
        ]
        simulator = BatchSimulator(system, ordering, lanes=lanes)
        # Two distinct capacity signatures -> two lock-step groups.
        assert simulator.n_groups == 2
        outcomes = simulator.run(iterations=25, on_deadlock="capture")
        for lane, outcome in zip(lanes, outcomes):
            expected = _reference(system, ordering, lane, iterations=25)
            if isinstance(outcome, SimulationDeadlock):
                outcome = (str(outcome), outcome.cycle, outcome.waiting)
            assert outcome == expected

    @settings(max_examples=25, deadline=None)
    @given(system=layered_systems(), seed=st.integers(0, 1000))
    def test_lanes_match_reference_on_random_systems(self, system, seed):
        ordering = ChannelOrdering.declaration_order(system)
        lanes = _latency_lanes(system, seed=seed, count=5)
        outcomes = BatchSimulator(system, ordering, lanes=lanes).run(
            iterations=20, on_deadlock="capture"
        )
        for lane, outcome in zip(lanes, outcomes):
            expected = _reference(system, ordering, lane, iterations=20)
            if isinstance(outcome, SimulationDeadlock):
                outcome = (str(outcome), outcome.cycle, outcome.waiting)
            assert outcome == expected


class TestTraces:
    def test_traces_and_sink_streams_match_scalar(self):
        system = load_system("examples/designs/motivating.json")
        ordering = ChannelOrdering.declaration_order(system)
        overrides = {n: 3 for n in system.process_names}
        sink_batch, sink_scalar = MemorySink(), MemorySink()
        sink_lane1, sink_reference = MemorySink(), MemorySink()
        lanes = [
            BatchLane(sinks=(sink_batch,)),
            BatchLane(process_latencies=overrides, sinks=(sink_lane1,)),
        ]
        results = simulate_batch(system, lanes, ordering, iterations=20)
        expected0 = Simulator(
            system, ordering, sinks=(sink_scalar,)
        ).run(iterations=20)
        expected1 = ReferenceSimulator(
            system, ordering,
            process_latencies=overrides, sinks=(sink_reference,),
        ).run(iterations=20)
        assert sink_batch.events() == sink_scalar.events()
        assert sink_lane1.events() == sink_reference.events()
        assert results[0] == expected0
        assert results[1] == expected1
        # Streaming sinks see the identical event sequence, in the
        # identical emission order (not just after sorting).
        assert sink_batch._events == sink_scalar._events

    def test_untraced_lanes_pay_nothing(self, monkeypatch):
        emitted = []
        monkeypatch.setattr(engine, "_emit", lambda *args: emitted.append(args))
        system = load_system("examples/designs/pipeline.json")
        simulate_batch(system, [BatchLane(), BatchLane()], iterations=10)
        assert emitted == []


class TestDeadlock:
    def test_raise_mode_matches_reference_diagnosis(self, motivating,
                                                    deadlock_ordering):
        with pytest.raises(SimulationDeadlock) as expected:
            ReferenceSimulator(motivating, deadlock_ordering).run(iterations=5)
        with pytest.raises(SimulationDeadlock) as got:
            BatchSimulator(
                motivating, deadlock_ordering, lanes=[BatchLane()] * 3
            ).run(iterations=5)
        assert str(got.value) == str(expected.value)
        assert got.value.cycle == expected.value.cycle
        assert got.value.waiting == expected.value.waiting

    def test_capture_mode_fills_every_lane(self, motivating,
                                           deadlock_ordering):
        outcomes = BatchSimulator(
            motivating, deadlock_ordering, lanes=[BatchLane()] * 3
        ).run(iterations=5, on_deadlock="capture")
        assert len(outcomes) == 3
        assert all(isinstance(o, SimulationDeadlock) for o in outcomes)

    def test_capture_mode_keeps_healthy_groups_running(self, motivating,
                                                       deadlock_ordering,
                                                       optimal_ordering):
        # One batch cannot mix orderings, but capacity groups can diverge:
        # a deadlocking group must not take the healthy ones down.
        # The deadlock ordering deadlocks at every capacity, so instead
        # run the live ordering and check capture mode returns results.
        outcomes = BatchSimulator(
            motivating, optimal_ordering, lanes=[BatchLane()] * 2
        ).run(iterations=5, on_deadlock="capture")
        assert all(not isinstance(o, SimulationDeadlock) for o in outcomes)


class TestValidation:
    def test_iterations_must_be_positive(self, motivating):
        with pytest.raises(SimulationError, match="iterations must be >= 1"):
            BatchSimulator(motivating, lanes=[BatchLane()]).run(iterations=0)

    def test_unknown_watch_rejected(self, motivating):
        with pytest.raises(SimulationError, match="unknown watch process"):
            BatchSimulator(motivating, lanes=[BatchLane()]).run(
                iterations=5, watch="nope"
            )

    def test_unknown_capacity_override_rejected(self, motivating):
        with pytest.raises(SimulationError, match="unknown channel"):
            BatchSimulator(
                motivating,
                lanes=[BatchLane(channel_capacities={"zzz": 3})],
            )

    def test_bad_on_deadlock_rejected(self, motivating):
        with pytest.raises(SimulationError, match="on_deadlock"):
            BatchSimulator(motivating, lanes=[BatchLane()]).run(
                iterations=5, on_deadlock="ignore"
            )

    def test_empty_batch_returns_no_outcomes(self, motivating):
        assert BatchSimulator(motivating, lanes=[]).run(iterations=5) == []

    def test_latency_only_lanes_are_one_group(self, motivating):
        lanes = _latency_lanes(motivating, seed=1, count=16)
        assert BatchSimulator(motivating, lanes=lanes).n_groups == 1


class TestMetrics:
    def test_batch_counters_recorded(self, motivating):
        lanes = _latency_lanes(motivating, seed=2, count=4)
        with collect() as metrics:
            simulate_batch(motivating, lanes, iterations=10)
        counters = metrics.snapshot()["counters"]
        assert counters["sim.batch.runs"] == 1
        assert counters["sim.batch.lanes"] == 4
        assert counters["sim.batch.groups"] == 1
        assert counters["sim.batch.deadlocked_lanes"] == 0
        assert counters["sim.batch.steps"] > 0
        assert counters["sim.batch.iterations"] > 0
