"""Tests for the Section 3 TMG construction."""

import pytest

from repro.core import ChannelOrdering, SystemBuilder
from repro.errors import ValidationError
from repro.model import (
    build_tmg,
    channel_transition,
    process_transition,
    statement_place,
)
from repro.model.build import (
    buffered_get_transition,
    buffered_put_transition,
    critical_channels,
)


class TestNames:
    def test_prefixes(self):
        assert channel_transition("a") == "ch:a"
        assert process_transition("P2") == "proc:P2"
        assert statement_place("P2", "put", "b") == "P2/put:b"
        assert statement_place("P2", "compute") == "P2/comp"

    def test_statement_place_needs_channel(self):
        with pytest.raises(ValidationError):
            statement_place("P2", "get")


class TestBlockingModel:
    def test_element_counts(self, motivating):
        model = build_tmg(motivating)
        tmg = model.tmg
        # one transition per channel (no buffering here) + one per process
        assert len(tmg.transitions) == 8 + 7
        # one place per statement: per process 1 compute + its gets + puts
        expected_places = sum(
            1
            + len(motivating.input_channels(p.name))
            + len(motivating.output_channels(p.name))
            for p in motivating.processes
        )
        assert len(tmg.places) == expected_places

    def test_channel_transition_delay_is_latency(self, motivating):
        tmg = build_tmg(motivating).tmg
        assert tmg.delay("ch:d") == 3
        assert tmg.delay("proc:P2") == 5

    def test_chain_structure_of_p2(self, motivating):
        """Fig. 3: a -> L2 -> b -> d -> f, cyclically."""
        tmg = build_tmg(motivating).tmg
        # P2's compute place is fed by channel a's transition.
        comp = tmg.place("P2/comp")
        assert comp.source == "ch:a"
        assert comp.target == "proc:P2"
        # first put place fed by the computation
        put_b = tmg.place("P2/put:b")
        assert put_b.source == "proc:P2"
        assert put_b.target == "ch:b"
        # the first read follows the last write (chain loops back)
        get_a = tmg.place("P2/get:a")
        assert get_a.source == "ch:f"
        assert get_a.target == "ch:a"

    def test_channel_fed_by_put_and_get_places(self, motivating):
        tmg = build_tmg(motivating).tmg
        feeders = {tmg.place(p).name for p in tmg.input_places("ch:b")}
        assert feeders == {"P2/put:b", "P3/get:b"}

    def test_initial_marking_first_get_places(self, motivating):
        """One token in the first get-place of each reading process and in
        the source's first put-place (the paper's marking rule)."""
        tmg = build_tmg(motivating).tmg
        marking = tmg.initial_marking()
        marked = {name for name, tokens in marking.items() if tokens}
        assert marked == {
            "Psrc/put:a",  # environment always ready
            "P2/get:a",
            "P3/get:b",
            "P4/get:c",
            "P5/get:f",
            "P6/get:d",  # declaration order: d first
            "Psnk/get:h",
        }

    def test_marking_follows_ordering(self, motivating):
        ordering = ChannelOrdering.from_orders(
            motivating, gets={"P6": ("g", "d", "e")}
        )
        tmg = build_tmg(motivating, ordering).tmg
        assert tmg.tokens("P6/get:g") == 1
        assert tmg.tokens("P6/get:d") == 0

    def test_latency_overrides(self, motivating):
        model = build_tmg(motivating, process_latencies={"P2": 50})
        assert model.tmg.delay("proc:P2") == 50
        # the original system is untouched
        assert motivating.process("P2").latency == 5

    def test_negative_override_rejected(self, motivating):
        with pytest.raises(ValidationError):
            build_tmg(motivating, process_latencies={"P2": -1})

    def test_invalid_ordering_rejected(self, motivating):
        bad = ChannelOrdering(gets={"P6": ("d", "e")}, puts={})
        with pytest.raises(ValidationError):
            build_tmg(motivating, bad)


class TestBufferedChannels:
    def _system(self, capacity=0, tokens=1):
        return (
            SystemBuilder("buf")
            .source("src")
            .process("A", latency=2)
            .process("B", latency=2)
            .sink("snk")
            .channel("i", "src", "A")
            .channel("x", "A", "B", latency=3, capacity=capacity,
                     initial_tokens=tokens)
            .channel("o", "B", "snk")
            .build()
        )

    def test_preloaded_channel_splits(self):
        tmg = build_tmg(self._system()).tmg
        assert "ch:x.put" in tmg.transition_names
        assert "ch:x.get" in tmg.transition_names
        assert "ch:x" not in tmg.transition_names
        assert tmg.delay("ch:x.put") == 3
        assert tmg.delay("ch:x.get") == 0

    def test_data_and_credit_places(self):
        tmg = build_tmg(self._system(capacity=3, tokens=1)).tmg
        assert tmg.tokens("x/data") == 1
        assert tmg.tokens("x/credit") == 2

    def test_capacity_only_channel_also_buffered(self):
        tmg = build_tmg(self._system(capacity=2, tokens=0)).tmg
        assert tmg.tokens("x/data") == 0
        assert tmg.tokens("x/credit") == 2

    def test_capacity_defaults_to_initial_tokens(self):
        tmg = build_tmg(self._system(capacity=0, tokens=2)).tmg
        assert tmg.tokens("x/data") == 2
        assert tmg.tokens("x/credit") == 0


class TestSystemTmgHelpers:
    def test_critical_processes_extraction(self, motivating):
        model = build_tmg(motivating)
        cycle = ("ch:a", "proc:P2", "ch:b", "proc:P3")
        assert model.critical_processes(cycle) == ("P2", "P3")
        assert model.critical_channels(cycle) == ("a", "b")

    def test_critical_channels_strip_buffer_suffix(self, feedback_system):
        model = build_tmg(feedback_system)
        cycle = ("ch:y.put", "ch:y.get", "proc:A")
        assert model.critical_channels(cycle) == ("y",)

    def test_critical_channels_dedupe_in_first_appearance_order(self):
        cycle = (
            "ch:c", "proc:P1", "ch:a.put", "ch:b", "ch:a.get", "ch:c",
            "proc:P2", "ch:b",
        )
        assert critical_channels(cycle) == ("c", "a", "b")

    def test_processes_touching(self, motivating):
        model = build_tmg(motivating)
        places = ("P2/put:b", "P3/get:b", "P2/comp")
        assert model.processes_touching(places) == ("P2", "P3")
        # Repeated owners keep the order of their first appearance.
        places = ("P3/comp", "P1/put:a", "P3/get:b", "P2/get:a", "P1/comp",
                  "P2/put:b", "P3/put:c")
        assert model.processes_touching(places) == ("P3", "P1", "P2")
