"""Tests for the non-blocking (FIFO) channel model extension.

A channel with a ``capacity`` is modelled by ``build_tmg`` itself, as
split put/get transitions joined by data and credit places; the all-FIFO
model of a rendezvous system is ``build_tmg`` of
``system.with_channel_capacities(...)``.
"""

from repro.core import SystemBuilder
from repro.model import build_tmg
from repro.tmg import analyze


def buffered_pipeline(capacity=2):
    return (
        SystemBuilder("nb")
        .source("src", latency=1)
        .process("A", latency=4)
        .process("B", latency=4)
        .sink("snk", latency=1)
        .channel("i", "src", "A", latency=1, capacity=capacity)
        .channel("x", "A", "B", latency=1, capacity=capacity)
        .channel("o", "B", "snk", latency=1, capacity=capacity)
        .build()
    )


class TestConstruction:
    def test_split_transitions(self):
        model = build_tmg(buffered_pipeline())
        assert "ch:x.put" in model.tmg.transition_names
        assert "ch:x.get" in model.tmg.transition_names

    def test_data_credit_marking(self):
        model = build_tmg(buffered_pipeline(capacity=3))
        assert model.tmg.tokens("x/data") == 0
        assert model.tmg.tokens("x/credit") == 3


class TestPerformance:
    def test_fifo_slack_never_hurts(self):
        """Replacing rendezvous with FIFOs cannot lengthen the cycle time
        (credits only add tokens to reverse cycles)."""
        rendezvous = (
            SystemBuilder("r")
            .source("src", latency=1)
            .process("A", latency=4)
            .process("B", latency=4)
            .sink("snk", latency=1)
            .channel("i", "src", "A", latency=1)
            .channel("x", "A", "B", latency=1)
            .channel("o", "B", "snk", latency=1)
            .build()
        )
        blocking_ct = analyze(build_tmg(rendezvous).tmg).cycle_time
        fifo = rendezvous.with_channel_capacities(
            {channel.name: 4 for channel in rendezvous.channels}
        )
        fifo_ct = analyze(build_tmg(fifo).tmg).cycle_time
        assert fifo_ct <= blocking_ct

    def test_deeper_fifo_monotone(self):
        shallow = analyze(build_tmg(buffered_pipeline(capacity=1)).tmg).cycle_time
        deep = analyze(build_tmg(buffered_pipeline(capacity=4)).tmg).cycle_time
        assert deep <= shallow
