"""Runs of one lowered IR share its control walk, and only when exact.

A walk that found its control period is kept in the ``walk`` memo
(``repro.cache.memos()``) under its IR object and watched process.  A
later :class:`~repro.sim.Simulator` or :class:`~repro.sim.BatchSimulator`
run of that IR reuses it when its ``iterations`` reach the period mark and
its step budget covers the walk: latencies never change the schedule, so
the run would walk the same steps.  These tests check that a reused walk
gives the results and trace streams of a memo-cleared run and of the
reference interpreter, and that no walk is reused where it would not be
exact.
"""

import glob

import pytest

import repro.sim.engine as engine
from repro.cache import memos
from repro.core import ChannelOrdering, SystemBuilder, load_system
from repro.errors import SimulationDeadlock, SimulationError
from repro.ir import lower
from repro.obs.sinks import MemorySink
from repro.ordering import channel_ordering
from repro.sim import BatchLane, BatchSimulator, Simulator
from repro.workloads import FAMILIES, generate
from tests.sim.reference import ReferenceSimulator

SEED_SYSTEMS = sorted(
    path
    for path in glob.glob("examples/designs/*.json")
    if not path.endswith(".ordering.json")
)


@pytest.fixture()
def walks(monkeypatch):
    """The control walks taken, as ``(iterations, watched pid)``, starting
    and ending with an empty memo."""
    memos()["walk"].clear()
    taken = []
    walk = engine._Walk.run

    def spy(self, iterations, watch_pid, budget, full):
        taken.append((iterations, watch_pid))
        return walk(self, iterations, watch_pid, budget, full)

    monkeypatch.setattr(engine._Walk, "run", spy)
    yield taken
    memos()["walk"].clear()


def _cached(system, ordering):
    """The memoized walk of ``(system, ordering)`` under the default watch."""
    ir = lower(system, ordering)
    [walk] = [w for w in memos()["walk"]._entries.values() if w.ir is ir]
    return walk


def _traced(run):
    """``run(sinks)``'s outcome and event stream."""
    sink = MemorySink()
    try:
        outcome = run((sink,))
    except SimulationDeadlock as deadlock:
        outcome = (str(deadlock), deadlock.cycle, deadlock.waiting)
    return outcome, sink._events


def _scalar(system, ordering, iterations, latencies=None):
    return lambda sinks: Simulator(
        system, ordering, process_latencies=latencies, sinks=sinks
    ).run(iterations)


def _reference(system, ordering, iterations, latencies=None):
    return lambda sinks: ReferenceSimulator(
        system, ordering, process_latencies=latencies or {}, sinks=sinks
    ).run(iterations=iterations)


def _assert_same(got, want):
    """Equal results and byte-identical event streams."""
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert repr(got[1]) == repr(want[1])


@pytest.mark.parametrize("label", ["declared", "algorithm1"])
@pytest.mark.parametrize("path", SEED_SYSTEMS)
def test_reused_walk_matches_a_fresh_one_and_the_reference(path, label, walks):
    system = load_system(path)
    ordering = (ChannelOrdering.declaration_order(system) if label == "declared"
                else channel_ordering(system))
    slower = {name: 2 * latency + 1
              for name, latency in system.process_latencies().items()}
    first = _traced(_scalar(system, ordering, 256))
    periodic = bool(memos()["walk"])
    reused = [
        _traced(_scalar(system, ordering, 64, slower)),
        _traced(lambda sinks: BatchSimulator(system, ordering, lanes=[
            BatchLane(process_latencies=slower, sinks=sinks), BatchLane(),
        ]).run(64)[0]),
    ]
    assert len(walks) == (1 if periodic else 3)
    memos()["walk"].clear()
    fresh = _traced(_scalar(system, ordering, 64, slower))
    for got in reused:
        _assert_same(got, fresh)
        assert repr(got[0]) == repr(fresh[0])
        _assert_same(got, _traced(_reference(system, ordering, 64, slower)))
    _assert_same(first, _traced(_reference(system, ordering, 256)))


def test_iterations_below_the_period_mark_walk_again(motivating, walks):
    ordering = ChannelOrdering.declaration_order(motivating)
    Simulator(motivating, ordering).run(64)
    mark = _cached(motivating, ordering).period[1]
    assert mark >= 2
    for iterations in (mark - 1, mark, 64):
        got = _traced(_scalar(motivating, ordering, iterations))
        _assert_same(got, _traced(_reference(motivating, ordering, iterations)))
    # Only the run that stops short of the mark walks again.
    assert [iterations for iterations, _ in walks] == [64, mark - 1]


def test_a_smaller_step_budget_walks_again(motivating, walks):
    ordering = ChannelOrdering.declaration_order(motivating)
    Simulator(motivating, ordering).run(64)
    walk = _cached(motivating, ordering)
    mark, steps = walk.period[1], walk.steps
    Simulator(motivating, ordering).run(mark, max_steps=steps)
    assert len(walks) == 1
    with pytest.raises(SimulationError) as reused:
        Simulator(motivating, ordering).run(mark, max_steps=steps - 1)
    assert len(walks) == 2
    memos()["walk"].clear()
    with pytest.raises(SimulationError) as fresh:
        Simulator(motivating, ordering).run(mark, max_steps=steps - 1)
    assert str(reused.value) == str(fresh.value)


def _preloaded():
    """A two-stage loop whose FIFO carries two initial tokens."""
    return (
        SystemBuilder("loop")
        .process("A", latency=2)
        .process("B", latency=3)
        .channel("ab", "A", "B")
        .channel("ba", "B", "A", capacity=2, initial_tokens=2)
        .build()
    )


def test_functional_runs_neither_reuse_nor_store(motivating, walks):
    ordering = ChannelOrdering.declaration_order(motivating)
    Simulator(motivating, ordering).run(64)
    before = len(memos()["walk"])
    behaviors = {"P1": lambda i, inputs: {}}
    got = Simulator(motivating, ordering, behaviors=behaviors).run(64)
    assert got == ReferenceSimulator(
        motivating, ordering, behaviors=behaviors).run(iterations=64)
    system = _preloaded()
    payloads = {"ba": ("x", "y")}
    for _ in range(2):
        got = Simulator(system, initial_payloads=payloads).run(16)
        assert got == ReferenceSimulator(
            system, initial_payloads=payloads).run(iterations=16)
    assert len(walks) == 4
    assert len(memos()["walk"]) == before


def test_deadlocked_and_aperiodic_walks_are_not_kept(
    motivating, deadlock_ordering, walks
):
    for _ in range(2):
        with pytest.raises(SimulationDeadlock):
            Simulator(motivating, deadlock_ordering).run(64)
    # A source filling a 50-deep FIFO repeats only after 50 iterations.
    fill = (
        SystemBuilder("fill")
        .source("src", latency=1)
        .process("A", latency=2)
        .sink("snk", latency=1)
        .channel("i", "src", "A", capacity=50)
        .channel("o", "A", "snk")
        .build()
    )
    for _ in range(2):
        Simulator(fill).run(30)
    assert len(walks) == 4
    assert len(memos()["walk"]) == 0


def test_another_watched_process_walks_again(motivating, walks):
    ordering = ChannelOrdering.declaration_order(motivating)
    watches = ["P2", "P2", "Psnk"]
    for watch in watches:
        got = Simulator(motivating, ordering).run(64, watch=watch)
        assert got == ReferenceSimulator(motivating, ordering).run(
            iterations=64, watch=watch)
    assert len(walks) == 2


def test_a_capacity_override_group_walks_its_own_ir(walks):
    system = (
        SystemBuilder("pipe")
        .source("src", latency=1)
        .process("A", latency=3)
        .sink("snk", latency=1)
        .channel("i", "src", "A", capacity=2)
        .channel("o", "A", "snk")
        .build()
    )
    Simulator(system).run(64)
    lanes = [BatchLane(), BatchLane(channel_capacities={"i": 1}),
             BatchLane(process_latencies={"A": 5})]
    got = BatchSimulator(system, lanes=lanes).run(64)
    # The declared group reuses the scalar walk; the override walks.
    assert len(walks) == 2
    for lane, result in zip(lanes, got):
        assert result == ReferenceSimulator(
            system.with_channel_capacities(lane.channel_capacities or {}),
            process_latencies=lane.process_latencies or {},
        ).run(iterations=64)


def test_the_memo_compares_the_ir_object(motivating, walks):
    """An entry found under a key whose IR is another object is not used."""
    ordering = ChannelOrdering.declaration_order(motivating)
    Simulator(motivating, ordering).run(64)
    other = channel_ordering(motivating)
    ir = lower(motivating, other)
    [key] = list(memos()["walk"])
    memos()["walk"].put((id(ir), key[1]), _cached(motivating, ordering))
    got = Simulator(motivating, other).run(64)
    assert got == ReferenceSimulator(motivating, other).run(iterations=64)
    assert len(walks) == 2


def test_the_memo_is_bounded(walks):
    systems = [load_system(path) for path in SEED_SYSTEMS] + [
        generate(family).system for family in sorted(FAMILIES)
    ]
    for system in systems:
        Simulator(system, channel_ordering(system)).run(64)
    cache = memos()["walk"]
    assert len(cache) <= cache.maxsize < len(systems)
