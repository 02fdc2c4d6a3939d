"""The combinator catalog: composition shapes and call-site errors."""

import pytest

from repro.core import validate_system
from repro.dsl import (
    Wire,
    butterfly,
    mesh,
    parallel,
    pipe,
    replicate,
    sink_stage,
    source_stage,
    stage,
)
from repro.dsl.combinators import fanout, join, reduce_tree, ring
from repro.dsl import testbenched as close_ports  # avoid pytest collection
from repro.errors import CompositionError


def lane(i, latency=3, wire=Wire()):
    return stage(f"w{i}", latency=latency, wire=wire)


class TestStageFactories:
    def test_stage_exposes_typed_ports(self):
        wire = Wire(elements=4, rate=2)
        design = stage("s", latency=2, inputs=2, outputs=[("a", wire)])
        assert [str(p) for p in design.inputs] == ["s.in0", "s.in1"]
        (out,) = design.outputs
        assert (out.label, out.wire) == ("a", wire)

    def test_source_and_sink_are_testbench_kinds(self):
        system = pipe(
            source_stage("src"), stage("w"), sink_stage("snk")
        ).build()
        assert [p.name for p in system.sources()] == ["src"]
        assert [p.name for p in system.sinks()] == ["snk"]
        assert [p.name for p in system.workers()] == ["w"]


class TestPipe:
    def test_channels_follow_the_producer_port(self):
        system = pipe(
            source_stage("src"), stage("a"), stage("b"), sink_stage("snk")
        ).build()
        assert system.channel_names == ("src.out", "a.out", "b.out")

    def test_arity_mismatch_names_both_sides(self):
        with pytest.raises(
            CompositionError,
            match=r"pipe: 'a' exposes 2 output\(s\) but 'b' expects "
                  r"1 input\(s\)",
        ):
            pipe(stage("a", outputs=2), stage("b"))

    def test_port_type_checked_per_connection(self):
        with pytest.raises(CompositionError, match="port type mismatch"):
            pipe(
                stage("a", wire=Wire(elements=8)),
                stage("b", wire=Wire(elements=2)),
            )

    def test_empty_pipe_rejected(self):
        with pytest.raises(CompositionError, match="needs at least one"):
            pipe()


class TestParallelAndReplicate:
    def test_aligned_lanes_declare_interchangeable_family(self):
        design = close_ports(
            parallel(*(lane(i) for i in range(3)), family="lanes")
        )
        (family,) = design.build(name="p").declared_families
        assert (family.name, family.kind) == ("lanes", "interchangeable")
        assert family.replicas == 3

    def test_aligned_lanes_get_an_auto_named_claim(self):
        design = close_ports(parallel(lane(0), lane(1)))
        (family,) = design.build(name="p").declared_families
        assert family.name == "lanes:w0"

    def test_misaligned_lanes_without_family_declare_nothing(self):
        design = close_ports(
            parallel(lane(0), pipe(stage("a"), stage("b")))
        )
        assert design.build(name="p").declared_families == ()

    def test_misaligned_lanes_with_family_rejected(self):
        with pytest.raises(
            CompositionError, match="do not structurally align"
        ):
            parallel(lane(0), stage("two", inputs=2), family="lanes")

    def test_replicate_builds_fresh_lanes(self):
        design = close_ports(replicate(4, lane, family="lanes"))
        (family,) = design.build(name="r").declared_families
        assert family.replicas == 4

    def test_replicate_count_must_be_positive(self):
        with pytest.raises(CompositionError, match="count must be >= 1"):
            replicate(0, lane)


class TestFanoutJoinReduce:
    def test_fanout_spreads_head_over_lanes(self):
        head = stage("split", outputs=3)
        tail = stage("merge", inputs=3)
        design = fanout(head, *(lane(i) for i in range(3)), family="lanes")
        system = close_ports(pipe(design, tail)).build(name="fj")
        validate_system(system)
        assert {f.name for f in system.declared_families} == {"lanes"}
        assert system.successors("split") == ("w0", "w1", "w2")

    def test_join_gathers_lanes_into_tail(self):
        system = close_ports(
            pipe(
                stage("split", outputs=2),
                join(lane(0), lane(1), tail=stage("merge", inputs=2),
                     family="lanes"),
            )
        ).build(name="j")
        assert system.predecessors("merge") == ("w0", "w1")

    def test_fanout_needs_a_lane(self):
        with pytest.raises(CompositionError, match="at least one lane"):
            fanout(stage("h", outputs=0))

    def test_reduce_tree_shape(self):
        design = reduce_tree(
            [stage(f"leaf{i}") for i in range(4)],
            lambda level, index, fan_in: stage(
                f"red{level}_{index}", inputs=fan_in
            ),
            arity=2,
        )
        system = close_ports(design).build(name="tree")
        assert system.predecessors("red1_0") == ("red0_0", "red0_1")

    def test_reduce_tree_arity_floor(self):
        with pytest.raises(CompositionError, match="arity must be >= 2"):
            reduce_tree([stage("a")], lambda *_: stage("r"), arity=1)


class TestFabrics:
    def test_ring_declares_cyclic_family(self):
        parts = [
            stage(f"st{i}", inputs=["ring_in", "in"],
                  outputs=["ring_out", "out"])
            for i in range(4)
        ]
        system = close_ports(ring(parts, tokens=1, family="ring")) \
            .build(name="ring4")
        (family,) = system.declared_families
        assert (family.kind, family.replicas) == ("cyclic", 4)

    def test_tokenless_ring_rejected(self):
        parts = [stage(f"st{i}") for i in range(2)]
        with pytest.raises(CompositionError, match="deadlocks under every"):
            ring(parts, tokens=0)

    def test_torus_declares_row_and_column_families(self):
        system = close_ports(mesh(3, 3, wrap=True, tokens=1)) \
            .build(name="torus")
        assert {f.name for f in system.declared_families} == {
            "torus-rows", "torus-cols",
        }
        assert all(f.kind == "cyclic" for f in system.declared_families)

    def test_open_mesh_declares_nothing(self):
        system = close_ports(mesh(2, 3)).build(name="mesh")
        assert system.declared_families == ()
        validate_system(system)

    def test_wrapped_mesh_needs_tokens(self):
        with pytest.raises(CompositionError, match="at least one token"):
            mesh(2, 2, wrap=True, tokens=0)

    def test_butterfly_declares_one_family_per_bit(self):
        system = close_ports(butterfly(3)).build(name="bfly")
        assert {f.name for f in system.declared_families} == {
            "bit0", "bit1", "bit2",
        }

    def test_butterfly_bits_floor(self):
        with pytest.raises(CompositionError, match="bits must be >= 1"):
            butterfly(0)


class TestTestbenched:
    def test_per_port_mode_keeps_lane_symmetry(self):
        design = close_ports(replicate(2, lane, family="lanes"))
        (family,) = design.build(name="tb").declared_families
        # Each lane's private source and sink joined its replica block.
        assert all(len(block) == 3 for block in family.process_blocks)

    def test_shared_mode_uses_one_source_and_sink(self):
        system = close_ports(
            replicate(2, lane, family="lanes"), shared=True
        ).build(name="tb")
        assert len(system.sources()) == 1
        assert len(system.sinks()) == 1
