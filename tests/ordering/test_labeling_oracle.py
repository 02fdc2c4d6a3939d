"""Differential oracle: Algorithm 1 against the two-pass reference.

:func:`repro.ordering.channel_ordering_with_labels` runs one labeling
traversal forward and backward over integer tables;
``tests/ordering/labeling_reference.py`` writes the two passes out over
name-keyed ``SystemGraph`` lookups.  Both must agree on the ordering
(dict order included), on every arc's head and tail label, and on the
type, message and ``cycle`` of every error.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ChannelOrdering, synthetic_soc
from repro.core.system import Channel, Process, ProcessKind, SystemGraph
from repro.errors import ReproError
from repro.mpeg2 import build_mpeg2_system
from repro.ordering import channel_ordering_with_labels
from repro.workloads import generate
from tests.ordering.labeling_reference import reference_ordering_with_labels
from tests.strategies import layered_systems, random_orderings


def _run(fn):
    try:
        return fn()
    except ReproError as error:
        return (type(error), str(error), getattr(error, "cycle", None))


def _assert_agree(system, initial=None):
    got = _run(lambda: channel_ordering_with_labels(system, initial))
    want = _run(lambda: reference_ordering_with_labels(system, initial))
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return want[0]
    ordering, labels = want
    assert list(got.ordering.gets.items()) == list(ordering.gets.items())
    assert list(got.ordering.puts.items()) == list(ordering.puts.items())
    for channel in system.channel_names:
        assert got.labels.head(channel) == labels.head(channel)
        assert got.labels.tail(channel) == labels.tail(channel)
    return None


@st.composite
def arbitrary_systems(draw) -> SystemGraph:
    """Unvalidated graphs: any kinds, any endpoints, 0–1 initial tokens.

    Covers systems with no testbench, dead token-free loops, processes
    no traversal reaches, and closed systems seeded by pre-loaded arcs.
    """
    system = SystemGraph("arb")
    n = draw(st.integers(2, 6))
    kinds = st.sampled_from(list(ProcessKind))
    for i in range(n):
        system.add_process(
            Process(f"p{i}", kind=draw(kinds), latency=draw(st.integers(0, 9)))
        )
    for c in range(draw(st.integers(0, 10))):
        producer = draw(st.integers(0, n - 1))
        consumer = (producer + draw(st.integers(1, n - 1))) % n
        system.add_channel(
            Channel(
                f"c{c}",
                f"p{producer}",
                f"p{consumer}",
                latency=draw(st.integers(1, 9)),
                initial_tokens=draw(st.integers(0, 1)),
            )
        )
    return system


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_agrees_on_layered_systems_and_random_orderings(data):
    system = data.draw(layered_systems())
    initial = data.draw(st.none() | random_orderings(system))
    assert _assert_agree(system, initial) is None


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_agrees_on_arbitrary_graphs_including_dead_ones(data):
    system = data.draw(arbitrary_systems())
    initial = data.draw(st.none() | random_orderings(system))
    if initial is not None and data.draw(st.booleans()):
        # Drop one process's puts: the caller's ordering must be refused.
        victim = data.draw(st.sampled_from(system.process_names))
        initial = ChannelOrdering(
            gets=initial.gets, puts={**initial.puts, victim: ()}
        )
    _assert_agree(system, initial)


def _golden_systems():
    yield "synthetic_soc(500)", synthetic_soc(500, seed=0)
    yield "mpeg2", build_mpeg2_system()
    for family, size in (
        ("ofdm-rx", 8), ("noc-torus", 4), ("butterfly", 3),
        ("rate-converter", 3), ("bursty-soc", 24),
    ):
        yield f"{family}:{size}", generate(family, seed=0, size=size).system


@pytest.mark.parametrize(
    "system", [s for _, s in _golden_systems()],
    ids=[name for name, _ in _golden_systems()],
)
def test_agrees_on_golden_inputs(system):
    assert _assert_agree(system) is None


def test_agrees_on_each_error_path():
    """A token-free loop, a system with no forward seed and one with no
    backward seed."""
    dead = SystemGraph("dead")
    for name, kind in (("s", ProcessKind.SOURCE), ("a", ProcessKind.WORKER),
                       ("b", ProcessKind.WORKER), ("k", ProcessKind.SINK)):
        dead.add_process(Process(name, kind=kind))
    for name, producer, consumer in (("i", "s", "a"), ("x", "a", "b"),
                                     ("y", "b", "a"), ("o", "b", "k")):
        dead.add_channel(Channel(name, producer, consumer))
    closed = SystemGraph("closed")
    closed.add_process(Process("a"))
    closed.add_process(Process("b"))
    closed.add_channel(Channel("x", "a", "b"))
    closed.add_channel(Channel("y", "b", "a"))
    no_sink = SystemGraph("no-sink")
    no_sink.add_process(Process("s", kind=ProcessKind.SOURCE))
    no_sink.add_process(Process("a"))
    no_sink.add_channel(Channel("x", "s", "a"))
    no_sink.add_channel(Channel("y", "a", "s"))
    kinds = {
        _assert_agree(dead).__name__,
        _assert_agree(closed).__name__,
        _assert_agree(no_sink).__name__,
    }
    assert kinds == {"DeadlockError", "ValidationError"}
