"""Long-horizon differential tests of the periodic replay.

:class:`repro.sim.Simulator` and :class:`repro.sim.BatchSimulator` walk
the control until its state repeats, replay the clocks until they repeat
up to a per-lane shift, and extrapolate the rest (docs/THEORY.md §4).
These tests compare whole :class:`~repro.sim.SimulationResult` objects —
completion series, stall breakdowns — and trace streams against the
frozen :class:`tests.sim.reference.ReferenceSimulator`, which interprets every
statement of every iteration, at horizons long enough for extrapolation
to carry most of the run.  A few white-box checks confirm that each case
takes the path it is meant to exercise: a control period, a clock period
of cyclicity 2, or no period at all.
"""

import glob
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine
from repro.cache import memos
from repro.core import ChannelOrdering, SystemBuilder, load_system
from repro.errors import SimulationDeadlock, SimulationError
from repro.mpeg2.codec import EncoderConfig, VideoFormat, synthetic_sequence
from repro.mpeg2.functional import encode_through_system
from repro.mpeg2.topology import build_mpeg2_system
from repro.obs.metrics import collect
from repro.obs.sinks import MemorySink
from repro.ordering import channel_ordering
from repro.sim import BatchLane, BatchSimulator, Simulator
from tests.sim.reference import ReferenceSimulator
from tests.strategies import layered_systems

SEED_SYSTEMS = sorted(
    path
    for path in glob.glob("examples/designs/*.json")
    if not path.endswith(".ordering.json")
)
HORIZONS = (1, 2, 7, 64, 256)


@pytest.fixture()
def replays(monkeypatch):
    """Record, per clock replay, ``(control period found, cyclicity)``;
    the cyclicity is ``None`` when the clocks were replayed to the end."""
    seen = []
    original = engine._Clocks.__init__

    def spy(self, walk, start, stop, end, live, delays, dtype):
        original(self, walk, start, stop, end, live, delays, dtype)
        period = self.period
        seen.append((
            walk.period is not None,
            period[1] // (stop - start) if period is not None else None,
        ))

    monkeypatch.setattr(engine._Clocks, "__init__", spy)
    return seen


def _outcome(run):
    """A result, or a deadlock as its comparable diagnosis."""
    try:
        return run()
    except SimulationDeadlock as deadlock:
        return (str(deadlock), deadlock.cycle, deadlock.waiting)


def _reference(system, ordering, iterations, lane=BatchLane(), **kwargs):
    return _outcome(lambda: ReferenceSimulator(
        system.with_channel_capacities(lane.channel_capacities or {}),
        ordering,
        process_latencies=lane.process_latencies or {},
        **kwargs,
    ).run(iterations=iterations))


def _batch(system, ordering, lanes, iterations):
    outcomes = BatchSimulator(system, ordering, lanes=lanes).run(
        iterations=iterations, on_deadlock="capture"
    )
    return [
        (str(o), o.cycle, o.waiting) if isinstance(o, SimulationDeadlock)
        else o
        for o in outcomes
    ]


def _orderings(system):
    return {
        "declared": ChannelOrdering.declaration_order(system),
        "algorithm1": channel_ordering(system),
    }


class TestShippedDesigns:
    @pytest.mark.parametrize("iterations", HORIZONS)
    @pytest.mark.parametrize("label", ["declared", "algorithm1"])
    @pytest.mark.parametrize("path", SEED_SYSTEMS)
    def test_traced_runs_match_reference(self, path, label, iterations):
        system = load_system(path)
        ordering = _orderings(system)[label]
        got_sink, want_sink = MemorySink(), MemorySink()
        got = _outcome(lambda: Simulator(
            system, ordering, sinks=(got_sink,)
        ).run(iterations=iterations))
        want = _reference(system, ordering, iterations, sinks=(want_sink,))
        assert got == want
        assert got_sink.events() == want_sink.events()
        # Streams match in emission order, deadlocked runs included.
        assert got_sink._events == want_sink._events

    @pytest.mark.parametrize("iterations", HORIZONS)
    @pytest.mark.parametrize("path", SEED_SYSTEMS)
    def test_batch_lanes_match_reference(self, path, iterations):
        system = load_system(path)
        ordering = channel_ordering(system)
        rng = random.Random(iterations)
        lanes = [BatchLane()] + [
            BatchLane(process_latencies={
                name: rng.randint(0, 9) for name in system.process_names
            })
            for _ in range(3)
        ]
        got = _batch(system, ordering, lanes, iterations)
        assert got == [
            _reference(system, ordering, iterations, lane) for lane in lanes
        ]

    def test_long_runs_extrapolate(self, replays):
        system = load_system("examples/designs/soc24.json")
        Simulator(system, channel_ordering(system)).run(iterations=256)
        assert replays == [(True, 1)]


class TestRandomSystems:
    @settings(max_examples=20, deadline=None)
    @given(
        system=layered_systems(),
        seed=st.integers(0, 10_000),
        iterations=st.integers(20, 150),
    )
    def test_random_latencies_and_capacities(self, system, seed, iterations):
        rng = random.Random(seed)
        ordering = channel_ordering(system)
        names = list(system.process_names)
        channels = [c.name for c in system.channels]
        capacities = {
            name: rng.randint(1, 6) for name in rng.sample(channels, 2)
        } if len(channels) >= 2 else {}
        lanes = [
            BatchLane(process_latencies={n: rng.randint(0, 15) for n in names}),
            BatchLane(process_latencies={n: rng.randint(1, 15) for n in names}),
            BatchLane(channel_capacities=capacities),
        ]
        got = _batch(system, ordering, lanes, iterations)
        want = [_reference(system, ordering, iterations, lane) for lane in lanes]
        assert got == want
        scalar = _outcome(lambda: Simulator(
            system, ordering,
            process_latencies=lanes[0].process_latencies,
        ).run(iterations=iterations))
        assert scalar == want[0]


def _simd_lanes(system):
    """The SIMD benchmark's lanes: declared, then 63 random (seed 42)."""
    rng = random.Random(42)
    names = list(system.process_names)
    return [BatchLane()] + [
        BatchLane(process_latencies={n: rng.randint(1, 20) for n in names})
        for _ in range(63)
    ]


class TestCyclicity:
    def test_simd_lanes_with_cyclicity_two(self, motivating, replays):
        """The SIMD benchmark's random lanes (seed 42): a third of them
        repeat only every second control period."""
        ordering = ChannelOrdering.declaration_order(motivating)
        lanes = _simd_lanes(motivating)
        for iterations in (60, 200):
            got = _batch(motivating, ordering, lanes, iterations)
            for lane, result in zip(lanes, got):
                assert result == _reference(motivating, ordering, iterations, lane)
        assert replays == [(True, 2), (True, 2)]
        replays.clear()
        for lane in lanes:
            Simulator(motivating, ordering,
                      process_latencies=lane.process_latencies).run(60)
        assert sum(cycle == 2 for _, cycle in replays) == 21

    def test_cyclicity_beyond_the_window_replays_to_the_end(
        self, motivating, replays, monkeypatch
    ):
        """Clock periods are only sought up to a cyclicity window; past it
        the replay runs to the end of the run, still exact."""
        monkeypatch.setattr(engine, "_MAX_CYCLICITY", 1)
        ordering = ChannelOrdering.declaration_order(motivating)
        lanes = _simd_lanes(motivating)[:8]
        got = _batch(motivating, ordering, lanes, 90)
        for lane, result in zip(lanes, got):
            assert result == _reference(motivating, ordering, 90, lane)
        assert replays == [(True, None)]


def _fill_system(capacity):
    """A source that runs ahead of a rendezvous chain until its FIFOs
    fill: the control state repeats only after ``capacity`` iterations."""
    return (
        SystemBuilder("fill")
        .source("src", latency=1)
        .process("A", latency=2)
        .process("B", latency=2)
        .process("C", latency=2)
        .sink("snk", latency=1)
        .channel("i", "src", "A", capacity=capacity)
        .channel("x", "A", "B")
        .channel("y", "B", "C")
        .channel("z", "C", "snk")
        .channel("w", "src", "C", capacity=capacity)
        .build()
    )


class TestTransients:
    @pytest.mark.parametrize("iterations", [30, 64, 200])
    def test_fifo_fill_longer_than_the_run(self, iterations, replays):
        system = _fill_system(50)
        ordering = ChannelOrdering.declaration_order(system)
        got_sink, want_sink = MemorySink(), MemorySink()
        got = Simulator(system, ordering, sinks=(got_sink,)).run(iterations)
        assert got == _reference(system, ordering, iterations,
                                 sinks=(want_sink,))
        assert got_sink.events() == want_sink.events()
        # Only runs past the 50-iteration fill find a control period.
        assert replays[0][0] is (iterations > 50)

    def test_snapshot_room_exhausted_walks_to_the_end(
        self, motivating, replays, monkeypatch
    ):
        """Control snapshots are bounded in total size (a filling FIFO grows
        every one of them); past the bound the walk runs to the end.  The
        walk memo is cleared: a cached walk found its period with room."""
        monkeypatch.setattr(engine, "_SNAPSHOT_ROOM", 1)
        memos()["walk"].clear()
        ordering = ChannelOrdering.declaration_order(motivating)
        got_sink, want_sink = MemorySink(), MemorySink()
        got = Simulator(motivating, ordering, sinks=(got_sink,)).run(64)
        assert got == _reference(motivating, ordering, 64, sinks=(want_sink,))
        assert got_sink.events() == want_sink.events()
        assert replays == [(False, None)]

    def test_capacity_override_groups(self):
        system = _fill_system(8)
        ordering = ChannelOrdering.declaration_order(system)
        got_sink, want_sink = MemorySink(), MemorySink()
        lanes = [
            BatchLane(),
            BatchLane(channel_capacities={"i": 3, "w": 40}),
            BatchLane(channel_capacities={"i": 3, "w": 40},
                      process_latencies={"A": 7, "src": 0}),
            BatchLane(channel_capacities={"i": 1}, sinks=(got_sink,)),
        ]
        simulator = BatchSimulator(system, ordering, lanes=lanes)
        assert simulator.n_groups == 3
        for iterations in (5, 90):
            got = simulator.run(iterations=iterations)
            assert got == [
                _reference(system, ordering, iterations, lane,
                           sinks=(want_sink,) if lane.sinks else ())
                for lane in lanes
            ]
            # Both sinks accumulate over the two runs.
            assert got_sink.events() == want_sink.events()


class TestDeadlocks:
    @pytest.mark.parametrize("iterations", [1, 7, 256])
    def test_same_diagnosis_and_stream(self, motivating, deadlock_ordering,
                                       iterations):
        got_sink, want_sink = MemorySink(), MemorySink()
        got = _outcome(lambda: Simulator(
            motivating, deadlock_ordering, sinks=(got_sink,)
        ).run(iterations))
        want = _reference(motivating, deadlock_ordering, iterations,
                          sinks=(want_sink,))
        assert isinstance(want, tuple)
        assert got == want
        assert got_sink._events == want_sink._events
        lanes = [BatchLane(), BatchLane(process_latencies={"P2": 9})]
        assert _batch(motivating, deadlock_ordering, lanes, iterations) == [
            want, want
        ]


class TestStepCounts:
    """``sim.steps`` counts the scheduler steps of the whole run, the
    extrapolated ones included (pinned on the interpreter that ran them
    all)."""

    @pytest.mark.parametrize("design, steps, batch_steps", [
        ("examples/designs/motivating.json", 3_076, 772),
        ("examples/designs/soc24.json", 15_896, 3_992),
    ])
    def test_pins(self, design, steps, batch_steps):
        system = load_system(design)
        ordering = channel_ordering(system)
        with collect() as metrics:
            Simulator(system, ordering).run(256)
            BatchSimulator(system, ordering, lanes=[BatchLane()] * 3).run(64)
        counters = metrics.snapshot()["counters"]
        assert counters["sim.steps"] == steps
        assert counters["sim.batch.steps"] == batch_steps

    def test_budget_one_short_raises(self):
        system = load_system("examples/designs/motivating.json")
        ordering = channel_ordering(system)
        Simulator(system, ordering).run(256, max_steps=3_076)
        with pytest.raises(SimulationError, match="step budget \\(3075\\)"):
            Simulator(system, ordering).run(256, max_steps=3_075)
        with pytest.raises(SimulationError, match="step budget"):
            BatchSimulator(system, ordering, lanes=[BatchLane()]).run(
                64, max_steps=771
            )


def test_behaviors_never_steer_control():
    """The MPEG-2 functional run equals the token run on every field but
    ``sink_payloads``: payloads ride along, the schedule ignores them."""
    fmt = VideoFormat(width=96, height=64)
    frames = synthetic_sequence(4, fmt, seed=5)
    run = encode_through_system(
        frames, EncoderConfig(gop_size=2, qscale=8, search_range=2,
                              reference_delay=2)
    )
    tokens = Simulator(build_mpeg2_system()).run(
        iterations=len(frames), watch="Psnk"
    )
    assert run.simulation.sink_payloads["Psnk"]
    assert run.simulation.iterations == tokens.iterations
    for field in ("times", "completion_times", "compute_cycles",
                  "stall_cycles", "channel_transfers", "stall_breakdown"):
        assert getattr(run.simulation, field) == getattr(tokens, field)
