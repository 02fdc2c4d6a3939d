"""The four IR consumers agree with the pre-IR interpretations.

The refactor's contract is bit-identity: lowering first and executing
the arrays must change *nothing* observable.  The simulator is checked
against the frozen reference engine, the IR event-graph translator
against the TMG route, and the verifier's chains against the ordering
projection they replaced.
"""

import glob

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ChannelOrdering, load_system
from repro.errors import SimulationDeadlock
from repro.ir import lower
from repro.model.build import build_tmg
from repro.ordering import channel_ordering, random_ordering
from repro.perf.fingerprint import effective_latencies
from repro.sim import Simulator
from repro.tmg.event_graph import build_event_graph, event_graph_from_ir
from repro.verify.semantics import TransitionSystem
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


@pytest.mark.parametrize("path", SEED_SYSTEMS)
def test_event_graph_from_ir_matches_tmg_route(path):
    system = load_system(path)
    for ordering in _orderings(system):
        ir = lower(system, ordering)
        latencies = effective_latencies(system, None)
        direct = build_event_graph(build_tmg(system, ordering).tmg)
        translated = event_graph_from_ir(ir, latencies)
        assert translated.nodes == direct.nodes
        assert translated.succ == direct.succ


@settings(max_examples=30, deadline=None)
@given(system=layered_systems())
def test_event_graph_from_ir_matches_tmg_route_on_random_systems(system):
    ordering = ChannelOrdering.declaration_order(system)
    ir = lower(system, ordering)
    latencies = effective_latencies(system, None)
    direct = build_event_graph(build_tmg(system, ordering).tmg)
    translated = event_graph_from_ir(ir, latencies)
    assert translated.nodes == direct.nodes
    assert translated.succ == direct.succ


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
