"""Tests for the Section 3 TMG construction."""

import pytest

from repro.core import ChannelOrdering, SystemBuilder
from repro.errors import ValidationError
from repro.ir import lower
from repro.model import build_tmg
from repro.model.build import build_structure
from tests.model.witness_reference import (
    critical_channels,
    critical_processes,
    transition_cycle,
)


class TestNames:
    def test_prefixes(self, motivating):
        tmg = build_tmg(motivating).tmg
        assert {"ch:a", "proc:P2"} <= set(tmg.transition_names)
        assert {"P2/put:b", "P2/comp"} <= set(tmg.place_names)

    def test_statement_place_needs_channel(self, motivating):
        """Every get/put statement place names its channel."""
        tmg = build_tmg(motivating).tmg
        channels = {c.name for c in motivating.channels}
        statements = [
            name.split("/", 1)[1] for name in tmg.place_names
            if not name.endswith("/comp")
        ]
        assert statements
        for statement in statements:
            kind, channel = statement.split(":")
            assert kind in ("get", "put") and channel in channels


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


class TestCircularWait:
    """The one decoding of a token-free cycle, by row and node index."""

    def test_listing1_deadlock(self, motivating, deadlock_ordering):
        entry = build_structure(lower(motivating, deadlock_ordering))
        assert transition_cycle(entry) == ["ch:d", "ch:f", "proc:P5", "ch:g"]
        wait = entry.circular_wait
        assert wait.cycle == ("d", "f", "P5", "g")
        # P2 puts f only after d; P5 computes only after getting f and
        # puts g only after computing; P6 gets d only after g.
        assert wait.statements == (
            ("P2", 4, "d"), ("P5", 1, "f"), ("P5", 2, None), ("P6", 1, "g"),
        )

    def test_buffered_sides_merge_into_the_channel(self):
        system = (
            SystemBuilder("loop")
            .source("src")
            .process("A")
            .process("B")
            .sink("snk")
            .channel("i", "src", "A")
            .channel("x", "A", "B", capacity=1)
            .channel("y", "B", "A")
            .channel("o", "B", "snk")
            .build()
        )
        entry = build_structure(lower(system))
        assert transition_cycle(entry) == [
            "ch:y", "proc:A", "ch:x.put", "ch:x.get", "proc:B",
        ]
        wait = entry.circular_wait
        assert wait.cycle == ("y", "A", "x", "B")
        # The data place x.put -> x.get is no statement.
        assert wait.statements == (
            ("A", 2, "y"), ("A", 3, None), ("B", 1, "x"), ("B", 2, None),
        )

    def test_live_configuration_has_none(self, motivating, optimal_ordering):
        entry = build_structure(lower(motivating, optimal_ordering))
        assert entry.circular_wait is None


def _loop_structure():
    """``src -> A <-> B -> snk`` with ``x`` (A -> B) and ``c`` (B -> A)
    buffered, ``y`` (B -> A) a rendezvous."""
    system = (
        SystemBuilder("loop")
        .source("src")
        .process("A")
        .process("B")
        .sink("snk")
        .channel("i", "src", "A")
        .channel("x", "A", "B", capacity=1)
        .channel("c", "B", "A", capacity=2, initial_tokens=1)
        .channel("y", "B", "A")
        .channel("o", "B", "snk")
        .build()
    )
    return build_structure(lower(system))


def _elements(entry, cycle):
    """The index decoding of transition names ``cycle``, checked against
    the name parsers it replaced."""
    found = entry.decoder.elements([entry.names.index(t) for t in cycle])
    assert found == (critical_processes(cycle), critical_channels(cycle))
    return found


class TestSystemTmgHelpers:
    """Critical-cycle nodes decode to the design by index."""

    def test_critical_processes_extraction(self):
        entry = _loop_structure()
        cycle = ("ch:i", "proc:A", "ch:y", "proc:B")
        assert _elements(entry, cycle) == (("A", "B"), ("i", "y"))

    def test_critical_channels_strip_buffer_suffix(self):
        entry = _loop_structure()
        cycle = ("ch:x.put", "ch:x.get", "proc:A")
        assert _elements(entry, cycle) == (("A",), ("x",))

    def test_critical_channels_dedupe_in_first_appearance_order(self):
        entry = _loop_structure()
        cycle = (
            "ch:y", "proc:A", "ch:c.put", "ch:x.put", "ch:c.get", "ch:y",
            "proc:B", "ch:x.get",
        )
        assert _elements(entry, cycle) == (("A", "B"), ("y", "c", "x"))

    def test_credit_places_decode_to_their_channels(self):
        entry = _loop_structure()
        rows = range(len(entry.decoder.buffered) * 2 + 2)
        names = [entry.decoder(row) for row in rows]
        assert names[:4] == ["x/data", "x/credit", "c/data", "c/credit"]
        assert entry.decoder.credit_channels(rows) == ["x", "c"]
