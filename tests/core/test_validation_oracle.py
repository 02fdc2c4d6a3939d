"""Differential oracle: structural validation against the per-node walk.

:func:`repro.core.validation.structural_diagnostics` builds its port
census and reachability adjacency once from the channel table; the
reference in :mod:`tests.core.validation_reference` asks the graph API
for every node's ports and neighbours.  Both must return the same
diagnostics — rule, severity, message, location — in the same order, on
valid systems and on every kind of broken one.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import synthetic_soc
from repro.core.system import (
    Channel,
    ChannelOrdering,
    Process,
    ProcessKind,
    SystemGraph,
)
from repro.core.validation import structural_diagnostics, validate_system
from repro.errors import ValidationError
from tests.core import validation_reference
from tests.strategies import layered_systems

#: Names whose sorted order differs from any declaration order drawn.
_NAMES = ("p10", "p2", "b", "a", "z1", "m", "q", "c7")


@st.composite
def raw_systems(draw) -> SystemGraph:
    """Any graph SystemGraph accepts: any kinds, any channels.

    Covers islands, sources with inputs, sinks with outputs, workers
    with no ports, systems without workers, sources or sinks, and
    parallel channels.
    """
    n = draw(st.integers(0, len(_NAMES)))
    names = draw(st.permutations(_NAMES))[:n]
    system = SystemGraph(draw(st.sampled_from(("s", "soc"))))
    for name in names:
        kind = draw(st.sampled_from(ProcessKind))
        system.add_process(Process(name, kind=kind))
    if n >= 2:
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda pair: pair[0] != pair[1]
                ),
                max_size=3 * n,
            )
        )
        for i, (u, v) in enumerate(pairs):
            system.add_channel(Channel(f"ch{i}", names[u], names[v]))
    return system


@st.composite
def orderings_for(draw, system: SystemGraph) -> ChannelOrdering | None:
    """``None``, a valid ordering, or one with ERM108 mismatches."""
    choice = draw(st.sampled_from(("none", "valid", "broken")))
    if choice == "none":
        return None
    gets: dict[str, tuple[str, ...]] = {}
    puts: dict[str, tuple[str, ...]] = {}
    for name in system.process_names:
        for table, ports in (
            (gets, system.input_channels(name)),
            (puts, system.output_channels(name)),
        ):
            order = list(draw(st.permutations(ports)))
            if choice == "broken":
                edit = draw(st.sampled_from(("keep", "drop", "extra", "omit")))
                if edit == "drop" and order:
                    order.pop()
                elif edit == "extra":
                    order.append("ghost")
                elif edit == "omit":
                    continue
            table[name] = tuple(order)
    if choice == "broken" and draw(st.booleans()):
        gets["unknown"] = ("ch0",)
    return ChannelOrdering(gets=gets, puts=puts)


def _assert_same(system: SystemGraph, ordering: ChannelOrdering | None) -> None:
    expected = validation_reference.structural_diagnostics(system, ordering)
    assert structural_diagnostics(system, ordering) == expected


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_matches_reference_on_arbitrary_graphs(data):
    system = data.draw(raw_systems())
    _assert_same(system, data.draw(orderings_for(system)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_matches_reference_on_valid_systems(data):
    system = data.draw(layered_systems())
    _assert_same(system, data.draw(orderings_for(system)))
    assert structural_diagnostics(system) == []


def _graph(kinds: dict[str, ProcessKind], channels: list[tuple[str, str]]):
    system = SystemGraph("case")
    for name, kind in kinds.items():
        system.add_process(Process(name, kind=kind))
    for i, (u, v) in enumerate(channels):
        system.add_channel(Channel(f"c{i}", u, v))
    return system


W, SRC, SNK = ProcessKind.WORKER, ProcessKind.SOURCE, ProcessKind.SINK

BROKEN = {
    "island": (
        {"s": SRC, "w": W, "x": W, "y": W, "k": SNK},
        [("s", "w"), ("w", "k"), ("x", "y"), ("y", "x")],
        ["ERM106", "ERM107"],
    ),
    "source_with_inputs": (
        {"s": SRC, "w": W, "k": SNK},
        [("s", "w"), ("w", "k"), ("w", "s")],
        ["ERM102"],
    ),
    "sink_with_outputs": (
        {"s": SRC, "w": W, "k": SNK},
        [("s", "w"), ("w", "k"), ("k", "w")],
        ["ERM103"],
    ),
    "worker_without_ports": (
        {"s": SRC, "w": W, "idle": W, "k": SNK},
        [("s", "w"), ("w", "k")],
        ["ERM104", "ERM105", "ERM106", "ERM107"],
    ),
    "no_workers": (
        {"s": SRC, "k": SNK},
        [("s", "k")],
        ["ERM101"],
    ),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_matches_reference_on_broken_systems(case):
    kinds, channels, rules = BROKEN[case]
    system = _graph(kinds, channels)
    found = structural_diagnostics(system)
    assert [d.rule for d in found] == rules
    _assert_same(system, None)
    with pytest.raises(ValidationError, match=re.escape(found[0].message)):
        validate_system(system)


def test_matches_reference_on_scal_input():
    system = synthetic_soc(500, seed=0)
    ordering = ChannelOrdering.declaration_order(system)
    _assert_same(system, ordering)
    assert structural_diagnostics(system, ordering) == []
