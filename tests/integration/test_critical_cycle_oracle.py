"""The index decodings agree with the name parsers they replaced.

``src/`` reads a critical cycle and a verifier state by index: the
critical processes and channels come from the report's node ids, the
capacity-limited channels of ``size_buffers`` from its edges' place rows,
and :meth:`~repro.verify.semantics.TransitionSystem.blocked_map` and
``wait_for_edges`` from the IR's op arrays.  The references decode by
name, as ``src/`` once did (:mod:`tests.model.witness_reference`,
:mod:`tests.verify.statement_reference`).  Both must say the same on:

* every ``examples/designs`` design, under declaration order, Algorithm 1
  and each shipped ordering file;
* the five ``ermes gen`` families at seeds 0-3, which carry buffered and
  pre-loaded channels, as generated and with every channel buffered, and
  under seeded shuffles (several of which deadlock);
* the MPEG-2 encoder at the paper's M1 and M2 selections.

None of these designs needs more than one slot per FIFO to reach its
floor, so the sizing comparison adds reconvergent fork-joins whose long
branch pipelines more items than the short channel holds: there the
short channel's credit place is on the critical cycle.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from repro.core import (
    SystemBuilder,
    load_ordering,
    load_system,
    motivating_deadlock_ordering,
    motivating_example,
)
from repro.dse import SystemConfiguration
from repro.errors import DeadlockError
from repro.model import analyze_system, build_tmg
from repro.mpeg2 import (
    build_mpeg2_library,
    build_mpeg2_system,
    m1_selection,
    m2_selection,
)
from repro.ordering import channel_ordering, declaration_ordering
from repro.ordering.baselines import random_ordering
from repro.perf import PerformanceEngine
from repro.sizing import capacity
from repro.tmg import analyze
from repro.verify import check_deadlock
from repro.verify.semantics import TransitionSystem
from repro.verify.witness import decode_deadlock
from repro.workloads import FAMILIES, generate
from tests.model.witness_reference import (
    credit_channels,
    critical_channels,
    critical_processes,
)
from tests.verify import statement_reference

DESIGNS = Path(__file__).resolve().parents[2] / "examples" / "designs"
SEEDS = range(4)
#: Per-channel capacity ceiling of the sizing comparison, small enough
#: that the greedy ascent saturates within a few rounds.
MAX_CAPACITY = 3


def _buffered(system, slots=2):
    return system.with_channel_capacities({
        c.name: max(c.capacity, c.initial_tokens, slots)
        for c in system.channels
    })


def _shipped():
    """``(id, system, ordering)`` per shipped design and ordering."""
    for path in sorted(DESIGNS.glob("*.json")):
        if path.name.endswith(".ordering.json"):
            continue
        system = load_system(path)
        yield path.stem, system, None
        yield f"{path.stem}-alg1", system, channel_ordering(system)
        for extra in sorted(DESIGNS.glob(f"{path.stem}.*.ordering.json")):
            yield extra.stem, system, load_ordering(extra)


def _generated():
    """``(id, system)`` per family and seed, as generated and buffered."""
    for family in FAMILIES:
        for seed in SEEDS:
            system = generate(family, seed=seed).system
            yield f"{family}-{seed}", system
            yield f"{family}-{seed}-fifo", _buffered(system)


def _mpeg2():
    """``(id, system, ordering, latencies)`` at M1 and M2."""
    system = build_mpeg2_system()
    library = build_mpeg2_library()
    for name, select in (("m1", m1_selection), ("m2", m2_selection)):
        config = SystemConfiguration(
            system, library, select(library), declaration_ordering(system)
        )
        yield f"mpeg2-{name}", system, config.ordering, config.process_latencies()


def _configurations():
    """``(id, system, ordering, latencies)`` over the whole corpus."""
    for key, system, ordering in _shipped():
        yield key, system, ordering, None
    for key, system in _generated():
        yield key, system, None, None
        try:
            yield f"{key}-alg1", system, channel_ordering(system), None
        except DeadlockError:
            pass
    yield from _mpeg2()


def _by_name(report):
    return (
        critical_processes(report.critical_cycle),
        critical_channels(report.critical_cycle),
    )


def test_critical_elements_match_the_name_parsers():
    engine = PerformanceEngine()
    live = buffered_on_cycle = 0
    for key, system, ordering, latencies in _configurations():
        try:
            performance = analyze_system(system, ordering, latencies)
        except DeadlockError:
            continue
        live += 1
        report = performance.report
        assert (
            performance.critical_processes, performance.critical_channels
        ) == _by_name(report), key
        cached = engine.analyze(system, ordering, latencies)
        assert cached == performance, key
        assert (
            cached.critical_processes, cached.critical_channels
        ) == _by_name(cached.report), key
        model = build_tmg(system, ordering, latencies)
        rows = model.graph.place
        assert model.structure.decoder.credit_channels(
            rows[e] for e in report.critical_edges
        ) == credit_channels(report.critical_places), key
        buffered_on_cycle += any(".put" in t for t in report.critical_cycle)
    assert live >= 60
    assert buffered_on_cycle >= 5


def size_buffers_by_name(
    system, target_cycle_time, ordering=None, max_capacity=64,
    max_rounds=10_000,
):
    """The greedy sizing loop reading the credit places by name."""
    capacities = {c.name: max(1, c.initial_tokens) for c in system.channels}
    for _ in range(max_rounds):
        model = build_tmg(system.with_channel_capacities(capacities), ordering)
        report = analyze(model.graph)
        if report.cycle_time <= target_cycle_time:
            return capacity.SizingResult(
                dict(capacities), report.cycle_time, True
            )
        bumpable = [
            name for name in credit_channels(report.critical_places)
            if capacities[name] < max_capacity
        ]
        if not bumpable:
            return capacity.SizingResult(
                dict(capacities), report.cycle_time, False
            )
        capacities[min(bumpable, key=lambda name: capacities[name])] += 1
    raise AssertionError("no convergence")


def reconvergent(depth):
    """``F`` feeds ``J`` directly over ``x`` and through ``depth``
    stages of latency 10."""
    builder = SystemBuilder(f"reconvergent{depth}").source("src")
    builder.process("F", latency=1).process("J", latency=1).sink("snk")
    for k in range(depth):
        builder.process(f"A{k}", latency=10)
    builder.channel("i", "src", "F").channel("x", "F", "J")
    builder.channel("y0", "F", "A0")
    for k in range(1, depth):
        builder.channel(f"y{k}", f"A{k - 1}", f"A{k}")
    builder.channel("z", f"A{depth - 1}", "J").channel("o", "J", "snk")
    return builder.build()


def _sizing_cases():
    for depth in range(3, 7):
        system = reconvergent(depth)
        yield system.name, system, channel_ordering(system)
    for key, system, ordering in _shipped():
        yield key, system, ordering
    for key, system in _generated():
        if key.endswith("-fifo"):
            continue
        try:
            yield key, system, channel_ordering(_buffered(system, 1))
        except DeadlockError:
            pass
    for key, system, ordering, latencies in _mpeg2():
        yield key, system.with_process_latencies(latencies), ordering


def test_sizing_matches_the_name_parsers(monkeypatch):
    grew = 0
    for key, system, ordering in _sizing_cases():
        unit = {c.name: max(1, c.initial_tokens) for c in system.channels}
        try:
            start = capacity.cycle_time_with_capacities(system, unit, ordering)
        except DeadlockError:
            continue
        floor = capacity.cycle_time_with_capacities(
            system, {name: MAX_CAPACITY for name in unit}, ordering
        )
        target = floor if floor < start else start * Fraction(9, 10)
        sized = capacity.size_buffers(
            system, target, ordering, max_capacity=MAX_CAPACITY
        )
        assert sized == size_buffers_by_name(
            system, target, ordering, max_capacity=MAX_CAPACITY
        ), key
        grew += sized.total_slots > sum(unit.values())
        if not sized.feasible:
            continue
        minimized = capacity.minimize_buffers(
            system, target, ordering, max_capacity=MAX_CAPACITY
        )
        with monkeypatch.context() as patch:
            patch.setattr(capacity, "size_buffers", size_buffers_by_name)
            assert minimized == capacity.minimize_buffers(
                system, target, ordering, max_capacity=MAX_CAPACITY
            ), key
    assert grew >= 4


def _verifier_cases():
    motivating = motivating_example()
    yield "motivating-listing1", motivating, motivating_deadlock_ordering(
        motivating
    )
    for key, system, ordering in _shipped():
        yield key, system, ordering
    for key, system in _generated():
        yield key, system, None
        for seed in range(2):
            yield f"{key}-shuffle{seed}", system, random_ordering(system, seed)
    for key, system, ordering, _ in _mpeg2():
        yield key, system, ordering


#: States per configuration whose blocked and wait-for maps are compared.
STATES = 48


def test_verifier_statements_match_the_chains():
    witnesses = 0
    for key, system, ordering in _verifier_cases():
        ts = TransitionSystem(system, ordering)
        state, seen = ts.initial_state(), 0
        while seen < STATES:
            assert ts.blocked_map(state) == statement_reference.blocked_map(
                ts, state
            ), key
            assert ts.wait_for_edges(
                state
            ) == statement_reference.wait_for_edges(ts, state), key
            seen += 1
            enabled = ts.enabled(state)
            if not enabled:
                break
            state = ts.successor(state, enabled[seen % len(enabled)])
        result = check_deadlock(system, ordering, budget_states=20_000)
        if result.witness is None:
            continue
        witnesses += 1
        witness = result.witness
        reference = decode_deadlock(
            statement_reference.ReferenceDecoding(ts),
            witness.state,
            witness.schedule,
        )
        assert witness == reference, key
        assert witness.format() == reference.format(), key
    assert witnesses >= 5


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_family_has_a_live_configuration(family):
    """The corpus reaches every family's critical cycle, not just its
    deadlocks."""
    system = generate(family, seed=0).system
    performance = analyze_system(system, channel_ordering(system))
    assert performance.critical_processes or performance.critical_channels
