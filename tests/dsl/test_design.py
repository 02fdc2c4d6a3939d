"""Design: the open netlist, its call-site errors, and elaboration."""

import pytest

from repro.core import validate_system
from repro.core.system import ProcessKind
from repro.dsl import Design, Wire, wire_for_latency
from repro.errors import CompositionError


def linear_design():
    design = Design("lin")
    design.source("src", latency=1)
    design.worker("mid", latency=4)
    design.sink("snk", latency=1)
    design.connect("i", "src", "mid", wire=wire_for_latency(2))
    design.connect("o", "mid", "snk", wire=wire_for_latency(1))
    return design


class TestNodes:
    def test_duplicate_node_rejected(self):
        design = Design("d")
        design.worker("a")
        with pytest.raises(CompositionError, match="duplicate node 'a'"):
            design.source("a")

    def test_kinds_reach_the_elaborated_system(self):
        system = linear_design().build()
        assert system.process("src").kind is ProcessKind.SOURCE
        assert system.process("mid").kind is ProcessKind.WORKER
        assert system.process("snk").kind is ProcessKind.SINK

    def test_node_latency_of_unknown_node(self):
        with pytest.raises(CompositionError, match="unknown node 'ghost'"):
            Design("d").node_latency("ghost")


class TestConnect:
    def test_unknown_producer_fails_at_call_site(self):
        design = Design("d")
        design.worker("a")
        with pytest.raises(
            CompositionError,
            match="channel 'c' producer 'ghost' is not a node of this design",
        ):
            design.connect("c", "ghost", "a")

    def test_unknown_consumer_names_the_role(self):
        design = Design("d")
        design.worker("a")
        with pytest.raises(
            CompositionError,
            match="channel 'c' consumer 'typo' is not a node",
        ):
            design.connect("c", "a", "typo")

    def test_self_loop_rejected(self):
        design = Design("d")
        design.worker("a")
        with pytest.raises(CompositionError, match="self-loop on 'a'"):
            design.connect("c", "a", "a")

    def test_duplicate_channel_rejected(self):
        design = Design("d")
        design.worker("a")
        design.worker("b")
        design.connect("c", "a", "b")
        with pytest.raises(CompositionError, match="duplicate channel 'c'"):
            design.connect("c", "a", "b")

    def test_channel_physics_derived_from_wire(self):
        system = (
            Design("d")
            .merge(linear_design())
            .build()
        )
        assert system.channel("i").latency == 2
        wired = Design("w")
        wired.source("s")
        wired.worker("a")
        wired.sink("k")
        wired.connect("x", "s", "a", wire=Wire(elements=6, rate=2, depth=3,
                                               tokens=1))
        wired.connect("y", "a", "k")
        built = wired.build()
        channel = built.channel("x")
        assert (channel.latency, channel.capacity, channel.initial_tokens) \
            == (3, 3, 1)


class TestPorts:
    def test_port_on_unknown_node_rejected(self):
        with pytest.raises(CompositionError, match="unknown node 'a'"):
            Design("d").input("a")

    def test_duplicate_port_rejected(self):
        design = Design("d")
        design.worker("a")
        design.output("a", "out")
        with pytest.raises(
            CompositionError, match="duplicate output port a.out"
        ):
            design.output("a", "out")

    def test_wire_ports_type_mismatch(self):
        design = Design("d")
        design.worker("a")
        design.worker("b")
        out_port = design.output("a", wire=Wire(elements=8, rate=4))
        in_port = design.input("b", wire=Wire(elements=2, rate=1))
        with pytest.raises(CompositionError, match="port type mismatch"):
            design.wire_ports(out_port, in_port)

    def test_wire_ports_merges_buffering_and_consumes_ports(self):
        design = Design("d")
        design.source("s")
        design.worker("a")
        design.sink("k")
        out_port = design.output("s", wire=Wire(elements=4, rate=2, depth=2))
        in_port = design.input("a", wire=Wire(elements=4, rate=2, setup=1))
        name = design.wire_ports(out_port, in_port)
        assert name == "s.out"
        assert design.inputs == () and design.outputs == ()
        design.connect("o", "a", "k")
        channel = design.build().channel("s.out")
        assert (channel.latency, channel.capacity) == (3, 2)

    def test_foreign_port_rejected(self):
        design = Design("d")
        design.worker("a")
        other = Design("o")
        other.worker("b")
        foreign = other.output("b")
        own = design.input("a")
        with pytest.raises(
            CompositionError, match="not a dangling output of this design"
        ):
            design.wire_ports(foreign, own)


class TestMergeAndBuild:
    def test_merge_collision_on_nodes(self):
        left = Design("l")
        left.worker("a")
        right = Design("r")
        right.worker("a")
        with pytest.raises(
            CompositionError, match="merging 'r' collides on node"
        ):
            left.merge(right)

    def test_build_rejects_dangling_ports(self):
        design = Design("d")
        design.worker("a")
        design.input("a", "in")
        design.output("a", "out")
        with pytest.raises(
            CompositionError,
            match=r"cannot elaborate with unconnected port\(s\): "
                  r"->a.in, a.out->",
        ):
            design.build()

    def test_allow_dangling_skips_the_check(self):
        design = Design("d")
        design.worker("a")
        design.input("a")
        system = design.build(validate=False, allow_dangling=True)
        assert system.has_process("a")

    def test_declaration_order_is_composition_order(self):
        system = linear_design().build(name="renamed")
        assert system.name == "renamed"
        assert system.process_names == ("src", "mid", "snk")
        assert system.channel_names == ("i", "o")
        validate_system(system)


class TestFamilies:
    def _two_lane_design(self):
        design = Design("lanes")
        design.source("src")
        design.sink("snk")
        for i in range(2):
            design.worker(f"w{i}", latency=3)
            design.connect(f"i{i}", "src", f"w{i}")
            design.connect(f"o{i}", f"w{i}", "snk")
        return design

    def test_declare_family_unknown_member_rejected(self):
        design = self._two_lane_design()
        with pytest.raises(
            CompositionError,
            match="family 'lanes' references unknown node 'w9'",
        ):
            design.declare_family("lanes", "interchangeable",
                                  [["w0"], ["w9"]])

    def test_declared_family_survives_elaboration(self):
        design = self._two_lane_design()
        design.declare_family(
            "lanes", "interchangeable",
            [["w0"], ["w1"]], [["i0", "o0"], ["i1", "o1"]],
        )
        system = design.build()
        (family,) = system.declared_families
        assert family.name == "lanes"
        assert family.process_blocks == (("w0",), ("w1",))

    def test_cross_lane_edge_retracts_interchangeable_claim(self):
        design = self._two_lane_design()
        design.declare_family(
            "lanes", "interchangeable",
            [["w0"], ["w1"]], [["i0", "o0"], ["i1", "o1"]],
        )
        # A hand edge between two lanes contradicts interchangeability:
        # the family must be retracted, not declared falsely.
        design.connect("sneak", "w0", "w1")
        system = design.build()
        assert system.declared_families == ()

    def test_later_connection_extends_the_blocks(self):
        design = self._two_lane_design()
        design.declare_family(
            "lanes", "interchangeable",
            [["w0"], ["w1"]], [["i0", "o0"], ["i1", "o1"]],
        )
        design.worker("t0")
        design.worker("t1")
        design.adopt_process_into_family("w0", "t0")
        design.adopt_process_into_family("w1", "t1")
        design.connect("x0", "w0", "t0")
        design.connect("x1", "w1", "t1")
        design.connect("d0", "t0", "snk")
        design.connect("d1", "t1", "snk")
        (family,) = design.build().declared_families
        assert family.process_blocks == (("w0", "t0"), ("w1", "t1"))
        assert family.channel_blocks == (
            ("i0", "o0", "x0", "d0"), ("i1", "o1", "x1", "d1"),
        )

    def test_misaligned_blocks_freeze_to_nothing(self):
        design = self._two_lane_design()
        design.declare_family(
            "lanes", "interchangeable",
            [["w0"], ["w1"]], [["i0", "o0"], ["i1", "o1"]],
        )
        # Extending only one lane misaligns the blocks: the claim dies
        # quietly at build() instead of overclaiming.
        design.worker("t0")
        design.adopt_process_into_family("w0", "t0")
        design.connect("x0", "w0", "t0")
        design.connect("d0", "t0", "snk")
        assert design.build().declared_families == ()
