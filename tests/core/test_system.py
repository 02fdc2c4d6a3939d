"""Unit tests for the system model (processes, channels, orderings)."""

import math

import pytest

from repro.core import ChannelOrdering, SystemGraph
from repro.core.system import Channel, Process, ProcessKind, all_orderings
from repro.errors import ValidationError


class TestProcess:
    def test_defaults(self):
        p = Process("a")
        assert p.latency == 1
        assert p.kind is ProcessKind.WORKER
        assert not p.is_testbench

    def test_source_is_testbench(self):
        assert Process("s", kind=ProcessKind.SOURCE).is_testbench

    def test_sink_is_testbench(self):
        assert Process("s", kind=ProcessKind.SINK).is_testbench

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            Process("")

    def test_negative_latency_rejected(self):
        with pytest.raises(ValidationError):
            Process("a", latency=-1)

    def test_zero_latency_allowed(self):
        assert Process("a", latency=0).latency == 0

    def test_with_latency_returns_new_value(self):
        p = Process("a", latency=3)
        q = p.with_latency(7)
        assert q.latency == 7
        assert p.latency == 3
        assert q.name == "a"


class TestChannel:
    def test_defaults(self):
        c = Channel("c", "a", "b")
        assert c.latency == 1
        assert c.capacity == 0
        assert c.initial_tokens == 0

    def test_default_is_rendezvous(self):
        c = Channel("c", "a", "b")
        assert not c.is_buffered
        assert c.effective_capacity == 0

    def test_capacity_makes_buffered(self):
        c = Channel("c", "a", "b", capacity=3)
        assert c.is_buffered
        assert c.effective_capacity == 3

    def test_initial_tokens_promote_to_buffered(self):
        # capacity == 0 but pre-loaded: cannot be a rendezvous — the first
        # transfers complete with no producer involved.  The promotion is
        # explicit here, not buried in the simulator/model layers.
        c = Channel("c", "a", "b", initial_tokens=2)
        assert c.capacity == 0
        assert c.is_buffered
        assert c.effective_capacity == 2

    def test_effective_capacity_is_max_of_both(self):
        assert Channel("c", "a", "b", capacity=3,
                       initial_tokens=1).effective_capacity == 3
        assert Channel("c", "a", "b", capacity=1,
                       initial_tokens=4).effective_capacity == 4

    def test_zero_latency_rejected(self):
        with pytest.raises(ValidationError):
            Channel("c", "a", "b", latency=0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValidationError):
            Channel("c", "a", "b", capacity=-1)

    def test_negative_initial_tokens_rejected(self):
        with pytest.raises(ValidationError):
            Channel("c", "a", "b", initial_tokens=-2)

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            Channel("c", "a", "a")

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            Channel("", "a", "b")


class TestSystemGraph:
    def _two_process_system(self):
        s = SystemGraph("s")
        s.add_process(Process("src", kind=ProcessKind.SOURCE))
        s.add_process(Process("a", latency=4))
        s.add_process(Process("b", latency=2))
        s.add_process(Process("snk", kind=ProcessKind.SINK))
        s.add_channel(Channel("i", "src", "a"))
        s.add_channel(Channel("x", "a", "b", latency=3))
        s.add_channel(Channel("o", "b", "snk"))
        return s

    def test_duplicate_process_rejected(self):
        s = SystemGraph()
        s.add_process(Process("a"))
        with pytest.raises(ValidationError):
            s.add_process(Process("a"))

    def test_duplicate_channel_rejected(self):
        s = self._two_process_system()
        with pytest.raises(ValidationError):
            s.add_channel(Channel("x", "a", "b"))

    def test_channel_unknown_endpoint_rejected(self):
        s = self._two_process_system()
        with pytest.raises(ValidationError):
            s.add_channel(Channel("bad", "a", "ghost"))

    def test_both_endpoints_unknown_names_the_producer(self):
        s = self._two_process_system()
        with pytest.raises(ValidationError) as excinfo:
            s.add_channel(Channel("bad", "ghost1", "ghost2"))
        assert str(excinfo.value) == (
            "channel 'bad' references unknown process 'ghost1'"
        )
        with pytest.raises(ValidationError) as excinfo:
            s.add_channel(Channel("bad", "a", "ghost2"))
        assert str(excinfo.value) == (
            "channel 'bad' references unknown process 'ghost2'"
        )
        assert not s.has_channel("bad")

    def test_duplicate_channel_checked_before_endpoints(self):
        s = self._two_process_system()
        with pytest.raises(ValidationError) as excinfo:
            s.add_channel(Channel("x", "ghost1", "ghost2"))
        assert str(excinfo.value) == "duplicate channel 'x'"

    def test_declaration_port_order_preserved(self):
        s = SystemGraph()
        s.add_process(Process("src", kind=ProcessKind.SOURCE))
        s.add_process(Process("m"))
        s.add_process(Process("snk", kind=ProcessKind.SINK))
        s.add_channel(Channel("c2", "src", "m"))
        s.add_channel(Channel("c1", "src", "m"))
        s.add_channel(Channel("o", "m", "snk"))
        assert s.input_channels("m") == ("c2", "c1")
        assert s.output_channels("src") == ("c2", "c1")

    def test_predecessors_successors(self):
        s = self._two_process_system()
        assert s.predecessors("b") == ("a",)
        assert s.successors("a") == ("b",)

    def test_sources_sinks_workers(self):
        s = self._two_process_system()
        assert [p.name for p in s.sources()] == ["src"]
        assert [p.name for p in s.sinks()] == ["snk"]
        assert [p.name for p in s.workers()] == ["a", "b"]

    def test_unknown_process_raises(self):
        s = self._two_process_system()
        with pytest.raises(ValidationError):
            s.process("ghost")

    def test_unknown_channel_raises(self):
        s = self._two_process_system()
        with pytest.raises(ValidationError):
            s.channel("ghost")

    def test_contains(self):
        s = self._two_process_system()
        assert "a" in s
        assert "x" in s
        assert "ghost" not in s

    def test_latency_maps(self):
        s = self._two_process_system()
        assert s.process_latencies()["a"] == 4
        assert s.channel_latencies()["x"] == 3

    def test_with_process_latencies_does_not_mutate(self):
        s = self._two_process_system()
        s2 = s.with_process_latencies({"a": 9})
        assert s.process("a").latency == 4
        assert s2.process("a").latency == 9
        # topology shared by value
        assert s2.channel_names == s.channel_names

    def test_replace_process_unknown_raises(self):
        s = self._two_process_system()
        with pytest.raises(ValidationError):
            s.replace_process(Process("ghost"))

    def test_copy_is_independent(self):
        s = self._two_process_system()
        clone = s.copy()
        clone.add_process(Process("extra"))
        assert not s.has_process("extra")


class TestOrderSpace:
    def test_motivating_is_36(self, motivating):
        assert motivating.order_space_size() == 36

    def test_matches_factorial_formula(self, motivating):
        expected = 1
        for p in motivating.workers():
            expected *= math.factorial(len(motivating.input_channels(p.name)))
            expected *= math.factorial(len(motivating.output_channels(p.name)))
        assert motivating.order_space_size() == expected

    def test_enumeration_count_matches(self, motivating):
        assert sum(1 for _ in all_orderings(motivating)) == 36

    def test_enumeration_is_unique(self, motivating):
        seen = set()
        for ordering in all_orderings(motivating):
            key = (
                tuple(sorted(ordering.gets.items())),
                tuple(sorted(ordering.puts.items())),
            )
            assert key not in seen
            seen.add(key)


class TestChannelOrdering:
    def test_declaration_order(self, motivating):
        ordering = ChannelOrdering.declaration_order(motivating)
        assert ordering.puts_of("P2") == ("b", "d", "f")
        assert ordering.gets_of("P6") == ("d", "e", "g")

    def test_from_orders_overrides_only_named(self, motivating):
        ordering = ChannelOrdering.from_orders(
            motivating, puts={"P2": ("f", "b", "d")}
        )
        assert ordering.puts_of("P2") == ("f", "b", "d")
        assert ordering.gets_of("P6") == ("d", "e", "g")

    def test_from_orders_rejects_non_permutation(self, motivating):
        with pytest.raises(ValidationError):
            ChannelOrdering.from_orders(motivating, puts={"P2": ("b", "b", "d")})

    def test_from_orders_rejects_foreign_channel(self, motivating):
        with pytest.raises(ValidationError):
            ChannelOrdering.from_orders(motivating, puts={"P2": ("b", "d", "h")})

    def test_statements_chain_shape(self, motivating):
        ordering = ChannelOrdering.declaration_order(motivating)
        chain = ordering.statements_of("P2")
        kinds = [kind for kind, _ in chain]
        assert kinds == ["get", "compute", "put", "put", "put"]
        assert chain[1] == ("compute", "P2")

    def test_statements_source_has_no_gets(self, motivating):
        ordering = ChannelOrdering.declaration_order(motivating)
        chain = ordering.statements_of("Psrc")
        assert [kind for kind, _ in chain] == ["compute", "put"]

    def test_differs_from(self, motivating):
        a = ChannelOrdering.declaration_order(motivating)
        b = ChannelOrdering.from_orders(motivating, puts={"P2": ("f", "b", "d")})
        assert b.differs_from(a) == ("P2",)
        assert a.differs_from(a) == ()
