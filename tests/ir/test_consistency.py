"""The four IR consumers agree with the pre-IR interpretations.

The refactor's contract is bit-identity: lowering first and executing
the arrays must change *nothing* observable.  The simulator is checked
against the frozen reference engine, the cached event-graph structure
against the TMG route, and the verifier's chains against the ordering
projection they replaced.
"""

import glob
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ChannelOrdering, load_system, synthetic_soc
from repro.errors import DeadlockError, SimulationDeadlock
from repro.ir import lower
from repro.model.build import build_tmg
from repro.model.performance import analyze_system, is_deadlock_free
from repro.ordering import channel_ordering, random_ordering
from repro.perf import PerformanceEngine, build_structure, effective_latencies
from repro.sim import Simulator
from repro.tmg import analyze
from repro.tmg.event_graph import build_event_graph
from repro.verify.semantics import TransitionSystem
from repro.workloads import generate
from tests.sim.reference import ReferenceSimulator
from tests.strategies import layered_systems

SEED_SYSTEMS = sorted(
    path
    for path in glob.glob("examples/designs/*.json")
    if not path.endswith(".ordering.json")
)


def _orderings(system):
    declaration = ChannelOrdering.declaration_order(system)
    return [declaration, channel_ordering(system, initial_ordering=declaration)]


def _run(simulator_cls, system, ordering, iterations):
    try:
        return simulator_cls(system, ordering).run(iterations=iterations)
    except SimulationDeadlock as deadlock:
        return ("deadlock", deadlock.cycle, deadlock.waiting)


@pytest.mark.parametrize("path", SEED_SYSTEMS)
def test_simulator_matches_reference_on_seed_examples(path):
    system = load_system(path)
    for ordering in _orderings(system):
        expected = _run(ReferenceSimulator, system, ordering, iterations=40)
        actual = _run(Simulator, system, ordering, iterations=40)
        assert actual == expected


@pytest.mark.parametrize("path", SEED_SYSTEMS)
def test_traces_match_reference_on_seed_examples(path):
    system = load_system(path)
    ordering = ChannelOrdering.declaration_order(system)
    expected = ReferenceSimulator(system, ordering, record_trace=True).run(
        iterations=15
    )
    actual = Simulator(system, ordering, record_trace=True).run(iterations=15)
    assert actual.trace == expected.trace
    assert actual == expected


@settings(max_examples=30, deadline=None)
@given(system=layered_systems(), seed=st.integers(0, 25))
def test_simulator_matches_reference_on_random_systems(system, seed):
    ordering = random_ordering(system, seed=seed)
    expected = _run(ReferenceSimulator, system, ordering, iterations=30)
    actual = _run(Simulator, system, ordering, iterations=30)
    assert actual == expected


def _assert_structure_matches_tmg_route(system, ordering, overrides=None):
    """The event graph the cached path lowers from the IR
    (``build_structure(ir).instantiate``) equals the event graph
    contracted from a fresh TMG: the same CSR lists (node order, per-node
    edge order, targets, tokens, delays, place rows) and the same decoded
    transition and place names.  This is the guarantee that keeps cached
    and uncached critical cycles identical."""
    latencies = effective_latencies(system, overrides)
    model = build_tmg(system, ordering, overrides)
    direct = build_event_graph(model.tmg)
    patched = build_structure(lower(system, ordering)).instantiate(latencies)
    for graph in (patched, model.graph):
        assert graph.name == direct.name
        assert tuple(graph.names) == tuple(direct.names)
        assert graph.start == direct.start
        assert graph.target == direct.target
        assert graph.tokens == direct.tokens
        assert graph.delay == direct.delay
        assert graph.place == direct.place
        assert [graph.place_name(row) for row in graph.place] == [
            direct.place_name(row) for row in direct.place
        ]
    assert [patched.place_name(row) for row in range(len(model.tmg.places))] == [
        p.name for p in model.tmg.places
    ]


@pytest.mark.parametrize("path", SEED_SYSTEMS)
def test_event_graph_from_ir_matches_tmg_route(path):
    system = load_system(path)
    for ordering in _orderings(system):
        _assert_structure_matches_tmg_route(system, ordering)
        scaled = {p.name: 3 * p.latency + 1 for p in system.processes}
        _assert_structure_matches_tmg_route(system, ordering, scaled)


@pytest.mark.parametrize("family,size", [("bursty-soc", 12), ("rate-converter", 3)])
def test_event_graph_from_ir_matches_tmg_route_on_buffered_families(family, size):
    # Buffered and pre-loaded channels: data and credit places, split
    # put/get transitions.
    system = generate(family, seed=0, size=size).system
    assert any(c.capacity or c.initial_tokens for c in system.channels)
    for ordering in _orderings(system):
        _assert_structure_matches_tmg_route(system, ordering)
        huge = {p.name: 2**70 + 7 * i for i, p in enumerate(system.processes)}
        _assert_structure_matches_tmg_route(system, ordering, huge)


@settings(max_examples=30, deadline=None)
@given(system=layered_systems(), scale=st.integers(0, 3))
def test_event_graph_from_ir_matches_tmg_route_on_random_systems(system, scale):
    ordering = ChannelOrdering.declaration_order(system)
    overrides = {p.name: p.latency * scale for p in system.processes}
    _assert_structure_matches_tmg_route(system, ordering, overrides)


def _result(performance):
    report = performance.report
    return report.cycle_time, report.critical_cycle, report.critical_places


def test_three_routes_agree_on_a_large_soc():
    """Uncached, cached, and the TMG route: the same exact ratio, critical
    cycle and places on a graph whose large SCC runs the array kernel,
    and with latencies near ``2**70``, where it falls back to the list
    form."""
    system = synthetic_soc(1000, seed=0)
    ordering = channel_ordering(system)
    huge = {p.name: 2**70 + 3 * i for i, p in enumerate(system.processes)}
    for overrides in (None, huge):
        uncached = analyze_system(system, ordering, overrides)
        cached = PerformanceEngine().analyze(system, ordering, overrides)
        via_tmg = analyze(
            build_event_graph(build_tmg(system, ordering, overrides).tmg)
        )
        assert _result(uncached) == _result(cached)
        assert _result(uncached) == (
            via_tmg.cycle_time, via_tmg.critical_cycle, via_tmg.critical_places
        )


@pytest.mark.parametrize("family,size", [("bursty-soc", 12), ("rate-converter", 3)])
def test_latencies_near_2_pow_70_stay_exact(family, size):
    system = generate(family, seed=0, size=size).system
    ordering = channel_ordering(system)
    huge = {p.name: 2**70 + 3 * i for i, p in enumerate(system.processes)}
    uncached = analyze_system(system, ordering, process_latencies=huge)
    cached = PerformanceEngine().analyze(system, ordering, process_latencies=huge)
    assert _result(uncached) == _result(cached)
    report = uncached.report
    tmg = build_tmg(system, ordering, huge).tmg
    assert report.cycle_time == Fraction(
        sum(tmg.delay(t) for t in report.critical_cycle),
        sum(tmg.tokens(p) for p in report.critical_places),
    )
    assert report.cycle_time > 2**70


def _deadlock(analyze_call):
    with pytest.raises(DeadlockError) as excinfo:
        analyze_call()
    return str(excinfo.value), excinfo.value.cycle


@settings(max_examples=30, deadline=None)
@given(system=layered_systems(), seed=st.integers(0, 999))
def test_deadlock_errors_match_on_both_paths(system, seed):
    ordering = random_ordering(system, seed=seed)
    if is_deadlock_free(system, ordering):
        return
    uncached = _deadlock(lambda: analyze_system(system, ordering))
    cached = _deadlock(lambda: PerformanceEngine().analyze(system, ordering))
    assert uncached == cached


def test_deadlock_errors_match_on_the_motivating_example(
    motivating, deadlock_ordering
):
    uncached = _deadlock(lambda: analyze_system(motivating, deadlock_ordering))
    cached = _deadlock(
        lambda: PerformanceEngine().analyze(motivating, deadlock_ordering)
    )
    assert uncached == cached
    assert uncached[1]


@settings(max_examples=30, deadline=None)
@given(system=layered_systems(), seed=st.integers(0, 25))
def test_verifier_chains_match_the_ordering_projection(system, seed):
    """The verifier's IR-decoded chains equal the statements_of view."""
    ordering = random_ordering(system, seed=seed)
    ts = TransitionSystem(system, ordering)
    for process in system.process_names:
        full = ordering.statements_of(process)
        comm = [
            (kind, channel, i)
            for i, (kind, channel) in enumerate(full)
            if kind in ("get", "put")
        ]
        if not comm:
            assert process not in ts.chains
            continue
        assert [
            (s.kind, s.channel, s.chain_index) for s in ts.chains[process]
        ] == comm
        assert ts.chain_totals[process] == len(full)


def test_simulator_exposes_its_ir(motivating):
    simulator = Simulator(motivating)
    assert simulator.ir is lower(motivating)
    assert simulator.ir.structural_hash == (
        TransitionSystem(motivating).ir.structural_hash
    )
