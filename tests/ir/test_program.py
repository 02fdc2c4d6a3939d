"""Schema and memoization tests of the lowered core IR."""

import pickle

import pytest

from repro.cache import memos
from repro.core import ChannelOrdering, SystemBuilder
from repro.core.system import ProcessKind
from repro.errors import ValidationError
from repro.ir import (
    OP_COMPUTE,
    OP_GET,
    OP_PUT,
    clear_lowering_cache,
    lower,
)
from repro.ir.program import (
    KIND_SINK,
    KIND_SOURCE,
    KIND_WORKER,
    kind_code,
    structural_digest,
)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_lowering_cache()
    yield
    clear_lowering_cache()


class TestTables:
    def test_ids_follow_declaration_order(self, motivating):
        ir = lower(motivating)
        assert ir.processes == motivating.process_names
        assert ir.channels == motivating.channel_names
        assert ir.n_processes == len(motivating.process_names)
        assert ir.n_channels == len(motivating.channel_names)
        for pid, name in enumerate(ir.processes):
            assert ir.pid(name) == pid
        for cid, name in enumerate(ir.channels):
            assert ir.cid(name) == cid

    def test_channel_tables_match_object_model(self, feedback_system):
        ir = lower(feedback_system)
        for cid, name in enumerate(ir.channels):
            channel = feedback_system.channel(name)
            assert ir.processes[ir.producers[cid]] == channel.producer
            assert ir.processes[ir.consumers[cid]] == channel.consumer
            assert ir.channel_latencies[cid] == channel.latency
            assert ir.capacities[cid] == channel.capacity
            assert ir.initial_tokens[cid] == channel.initial_tokens
            assert ir.buffered[cid] == channel.is_buffered
            assert ir.effective_capacities[cid] == channel.effective_capacity

    def test_process_kinds(self, motivating):
        ir = lower(motivating)
        for pid, process in enumerate(motivating.processes):
            assert ir.process_kinds[pid] == kind_code(process.kind)
        assert kind_code(ProcessKind.WORKER) == KIND_WORKER
        assert kind_code(ProcessKind.SOURCE) == KIND_SOURCE
        assert kind_code(ProcessKind.SINK) == KIND_SINK

    def test_programs_decode_to_statement_chains(self, motivating):
        ordering = ChannelOrdering.declaration_order(motivating)
        ir = lower(motivating, ordering)
        for pid, name in enumerate(ir.processes):
            assert (
                tuple(ir.statements_of(pid))
                == ordering.statements_of(name)
            )
            assert ir.program_length(pid) == len(ordering.statements_of(name))

    def test_op_args_are_dense_ids(self, motivating):
        ir = lower(motivating)
        for pid in range(ir.n_processes):
            for op, arg in zip(ir.op_kinds[pid], ir.op_args[pid]):
                if op == OP_COMPUTE:
                    assert arg == pid
                else:
                    assert op in (OP_GET, OP_PUT)
                    assert 0 <= arg < ir.n_channels

    def test_comm_indices_skip_exactly_the_compute(self, motivating):
        ir = lower(motivating)
        for pid in range(ir.n_processes):
            comm = ir.comm_indices[pid]
            all_indices = set(range(ir.program_length(pid)))
            computes = {
                i
                for i, op in enumerate(ir.op_kinds[pid])
                if op == OP_COMPUTE
            }
            assert set(comm) == all_indices - computes
            assert list(comm) == sorted(comm)

    def test_first_marked_rule(self, motivating):
        # First get; sources (no gets) their first put; degenerate
        # processes the compute.
        ir = lower(motivating)
        for pid in range(ir.n_processes):
            ops = ir.op_kinds[pid]
            if OP_GET in ops:
                assert ops[ir.first_marked[pid]] == OP_GET
                assert ir.first_marked[pid] == 0
            elif OP_PUT in ops:
                assert ops[ir.first_marked[pid]] == OP_PUT
            else:
                assert ops[ir.first_marked[pid]] == OP_COMPUTE

    def test_total_statements(self, tiny_pipeline):
        ir = lower(tiny_pipeline)
        # Each process: gets + 1 compute + puts; 3 channels -> 6 endpoint
        # statements + 4 computes.
        assert ir.total_statements() == 10

    def test_repr_carries_hash_prefix(self, tiny_pipeline):
        ir = lower(tiny_pipeline)
        assert ir.structural_hash[:12] in repr(ir)

    def test_roundtrips_through_pickle(self, motivating):
        ir = lower(motivating)
        clone = pickle.loads(pickle.dumps(ir))
        assert clone == ir
        assert clone.pid(ir.processes[-1]) == ir.n_processes - 1
        assert clone.cid(ir.channels[-1]) == ir.n_channels - 1


class TestMemo:
    def test_repeated_lowering_returns_the_same_object(self, motivating):
        ordering = ChannelOrdering.declaration_order(motivating)
        assert lower(motivating, ordering) is lower(motivating, ordering)

    def test_default_and_explicit_declaration_order_share_one_entry(
        self, motivating
    ):
        first = lower(motivating)
        second = lower(
            motivating, ChannelOrdering.declaration_order(motivating)
        )
        assert first is second
        assert len(memos()["lower"]) == 1

    def test_clear_forces_recompute(self, motivating):
        first = lower(motivating)
        clear_lowering_cache()
        second = lower(motivating)
        assert first is not second
        assert first == second
        assert first.structural_hash == second.structural_hash

    def test_invalid_ordering_raises(self, motivating):
        bad = ChannelOrdering(gets={"P6": ("d", "e")}, puts={})
        with pytest.raises(ValidationError):
            lower(motivating, bad)

    def test_distinct_orderings_get_distinct_entries(self, motivating):
        declaration = ChannelOrdering.declaration_order(motivating)
        swapped = ChannelOrdering(
            gets={**declaration.gets, "P6": ("e", "d", "g")},
            puts=dict(declaration.puts),
        )
        a = lower(motivating, declaration)
        b = lower(motivating, swapped)
        assert a is not b
        assert a.structural_hash != b.structural_hash
        assert len(memos()["lower"]) == 2


class TestStructuralHash:
    def test_matches_standalone_hash(self, motivating):
        # The digest of the object model's own rendering: the IR decodes
        # its integer tables back to the declared content.
        ordering = ChannelOrdering.declaration_order(motivating)
        standalone = structural_digest(
            motivating.name,
            ((p.name, p.kind.value) for p in motivating.processes),
            ((c.name, c.producer, c.consumer, c.latency, c.capacity,
              c.initial_tokens) for c in motivating.channels),
            ((name, ordering.gets_of(name), ordering.puts_of(name))
             for name in motivating.process_names),
        )
        assert lower(motivating, ordering).structural_hash == standalone

    def test_process_latency_is_not_structural(self):
        def build(latency):
            return (
                SystemBuilder("lat")
                .source("src", latency=1)
                .process("A", latency=latency)
                .sink("snk", latency=1)
                .channel("i", "src", "A")
                .channel("o", "A", "snk")
                .build()
            )

        assert (
            lower(build(3)).structural_hash == lower(build(9)).structural_hash
        )

    def test_channel_latency_is_structural(self):
        def build(latency):
            return (
                SystemBuilder("lat")
                .source("src", latency=1)
                .process("A", latency=2)
                .sink("snk", latency=1)
                .channel("i", "src", "A", latency=latency)
                .channel("o", "A", "snk")
                .build()
            )

        assert (
            lower(build(1)).structural_hash != lower(build(4)).structural_hash
        )

    def test_capacity_and_tokens_are_structural(self):
        def build(capacity):
            return (
                SystemBuilder("cap")
                .source("src", latency=1)
                .process("A", latency=2)
                .sink("snk", latency=1)
                .channel("i", "src", "A", capacity=capacity)
                .channel("o", "A", "snk")
                .build()
            )

        assert (
            lower(build(0)).structural_hash != lower(build(2)).structural_hash
        )
