"""Differential oracle: the static analysis against its name-keyed reference.

:func:`repro.absint.analyze_ir` reads occupancy bounds and dead structure
off one reachability closure, and ranks transitions and bounds cycles on
the integer marked-graph rows.  ``tests/absint/absint_reference.py``
runs the interval fixpoint, Kahn's sort and the min-token-cycle Dijkstra
over transition names, on the places of ``build_tmg(...).tmg``.  Both
must return equal results: bounds, invariants, dead channels,
unreachable statements, certificate bytes and the token-free cycle.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.absint import analyze_ir, result_to_dict
from repro.core import ChannelOrdering, SystemBuilder, synthetic_soc
from repro.core.serialization import load_system
from repro.core.system import SystemGraph
from repro.ir import lower
from repro.mpeg2 import build_mpeg2_system
from repro.ordering import channel_ordering
from repro.workloads import generate
from tests.absint.absint_reference import reference_analyze
from tests.strategies import (
    dsl_combinator_systems,
    layered_systems,
    random_orderings,
    replicated_family_systems,
)

DESIGNS = Path(__file__).resolve().parents[2] / "examples" / "designs"


def _assert_agree(system: SystemGraph, ordering: ChannelOrdering) -> None:
    got = analyze_ir(lower(system, ordering))
    want = reference_analyze(system, ordering)
    assert got == want
    assert json.dumps(result_to_dict(got)) == json.dumps(result_to_dict(want))


@st.composite
def buffered_layered_systems(draw) -> SystemGraph:
    """A layered system whose channels get random capacities 0–3."""
    base = draw(layered_systems())
    system = SystemGraph(base.name)
    for process in base.processes:
        system.add_process(process)
    for channel in base.channels:
        system.add_channel(
            dataclasses.replace(channel, capacity=draw(st.integers(0, 3)))
        )
    return system


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_agrees_on_buffered_layered_systems_and_random_orderings(data):
    system = data.draw(buffered_layered_systems())
    ordering = data.draw(random_orderings(system))
    _assert_agree(system, ordering)


@settings(max_examples=30, deadline=None)
@given(system=dsl_combinator_systems())
def test_agrees_on_dsl_combinator_systems(system):
    _assert_agree(system, ChannelOrdering.declaration_order(system))


@settings(max_examples=30, deadline=None)
@given(system=replicated_family_systems())
def test_agrees_on_replicated_families(system):
    _assert_agree(system, ChannelOrdering.declaration_order(system))


def _golden_systems():
    for path in sorted(DESIGNS.glob("*.json")):
        if not path.name.endswith(".ordering.json"):
            yield path.stem, load_system(path)
    for family, size in (
        ("ofdm-rx", 8), ("noc-torus", 4), ("butterfly", 3),
        ("rate-converter", 3), ("bursty-soc", 16), ("bursty-soc", 24),
    ):
        yield f"{family}:{size}", generate(family, seed=0, size=size).system
    yield "mpeg2", build_mpeg2_system()
    yield "synthetic_soc(500)", synthetic_soc(500, seed=0)


GOLDEN = list(_golden_systems())


@pytest.mark.parametrize(
    "system", [s for _, s in GOLDEN], ids=[name for name, _ in GOLDEN]
)
def test_agrees_on_golden_inputs(system):
    _assert_agree(system, ChannelOrdering.declaration_order(system))
    _assert_agree(system, channel_ordering(system))


def test_agrees_when_a_full_fifo_blocks_its_producer():
    """P puts on the pre-filled FIFO ``c`` before ``d``, and Q gets ``d``
    before ``c``: the put on ``c`` waits for a get that never fires."""
    system = (
        SystemBuilder("fullfifo")
        .source("src")
        .process("P")
        .process("Q")
        .sink("snk")
        .channel("a", "src", "P")
        .channel("c", "P", "Q", capacity=1, initial_tokens=1)
        .channel("d", "P", "Q")
        .channel("o", "Q", "snk")
        .build()
    )
    declared = ChannelOrdering.declaration_order(system)
    ordering = ChannelOrdering(
        gets={**declared.gets, "Q": ("d", "c")}, puts=declared.puts
    )
    _assert_agree(system, ordering)
    result = analyze_ir(lower(system, ordering))
    assert result.dead_channels == ("c", "d", "o")
    assert (result.bound_of("c").lo, result.bound_of("c").hi) == (1, 1)
