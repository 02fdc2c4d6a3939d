"""The occupancy engine: bounds, dead structure, caching."""

from __future__ import annotations

import pytest

from repro.absint import analyze, analyze_ir, clear_analysis_cache
from repro.cache import memos
from repro.core import ChannelOrdering, SystemBuilder
from repro.ir import lower


def buffered_pipeline(n_stages: int, capacity: int = 2):
    """src -> s0 -> ... -> s(n-1) -> snk, all channels buffered."""
    builder = SystemBuilder(f"abspipe{n_stages}")
    builder.source("src", latency=1)
    names = [f"s{i}" for i in range(n_stages)]
    for name in names:
        builder.process(name, latency=1)
    builder.sink("snk", latency=1)
    chain = ["src"] + names + ["snk"]
    for i in range(len(chain) - 1):
        builder.channel(
            f"c{i}", chain[i], chain[i + 1], latency=1, capacity=capacity
        )
    return builder.build()


@pytest.fixture()
def credit_loop():
    """Two workers exchanging one circulating token through deep FIFOs.

    Channels ``f`` and ``bk`` declare capacity 4, but the loop carries a
    single token, so neither FIFO can ever hold more than one item — the
    min-token-cycle pass must prove it.
    """
    return (
        SystemBuilder("creditloop")
        .source("src", latency=1)
        .process("w1", latency=1)
        .process("w2", latency=1)
        .sink("snk", latency=1)
        .channel("c_in", "src", "w1", latency=1)
        .channel("f", "w1", "w2", latency=1, capacity=4)
        .channel("bk", "w2", "w1", latency=1, capacity=4, initial_tokens=1)
        .channel("c_out", "w2", "snk", latency=1)
        .build()
    )


@pytest.fixture()
def dead_on_arrival():
    """A live src->w1->snk spine plus a token-free w1<->w2 rendezvous loop.

    ``w1`` completes its first get (channel ``a``) and then blocks on
    ``y`` forever: ``w2`` cannot put ``y`` before getting ``x``, which
    ``w1`` only puts *after* getting ``y``.  Channels ``x``, ``y`` and
    ``o`` are therefore statically dead while ``a`` fires once.
    """
    return (
        SystemBuilder("doa")
        .source("src", latency=1)
        .process("w1", latency=1)
        .process("w2", latency=1)
        .sink("snk", latency=1)
        .channel("a", "src", "w1", latency=1)
        .channel("x", "w1", "w2", latency=1)
        .channel("y", "w2", "w1", latency=1)
        .channel("o", "w1", "snk", latency=1)
        .build()
    )


class TestPipelineBounds:
    def test_bounds_reach_capacity(self):
        system = buffered_pipeline(3, capacity=2)
        result = analyze(system)
        assert result.deadlock_free
        assert len(result.bounds) == 4
        for bound in result.bounds:
            assert (bound.lo, bound.hi) == (0, 2)
            assert bound.effective_capacity == 2

    def test_bounds_are_sorted_by_channel(self):
        result = analyze(buffered_pipeline(4))
        names = [bound.channel for bound in result.bounds]
        assert names == sorted(names)

    def test_no_dead_structure_in_a_live_pipeline(self):
        result = analyze(buffered_pipeline(3))
        assert result.dead_channels == ()
        assert result.unreachable_ops == ()

    def test_rendezvous_systems_have_no_bounds(self, tiny_pipeline):
        result = analyze(tiny_pipeline)
        assert result.bounds == ()
        assert result.deadlock_free

    def test_widening_converges_on_deep_fifos(self):
        system = buffered_pipeline(2, capacity=1000)
        result = analyze(system)
        assert all(bound.hi == 1000 for bound in result.bounds)


class TestMinTokenCycleTightening:
    def test_loop_fifos_are_bounded_by_the_circulating_token(
        self, credit_loop
    ):
        result = analyze(credit_loop)
        assert result.deadlock_free
        assert result.bound_of("f").hi == 1
        assert result.bound_of("bk").hi == 1
        assert result.bound_of("f").declared_capacity == 4
        assert result.bound_of("bk").declared_capacity == 4

    def test_tightening_is_reported_as_an_invariant(self, credit_loop):
        result = analyze(credit_loop)
        subjects = {
            invariant.subject
            for invariant in result.invariants
            if invariant.kind == "min-token-cycle"
        }
        assert {"f", "bk"} <= subjects

    def test_feedforward_pipelines_are_not_tightened(self):
        result = analyze(buffered_pipeline(3, capacity=2))
        kinds = {invariant.kind for invariant in result.invariants}
        assert "min-token-cycle" not in kinds


class TestDeadStructure:
    def test_dead_channels(self, dead_on_arrival):
        result = analyze(dead_on_arrival)
        assert not result.deadlock_free
        assert set(result.dead_channels) == {"o", "x", "y"}

    def test_unreachable_statements(self, dead_on_arrival):
        result = analyze(dead_on_arrival)
        ops = {
            (op.process, op.kind, op.channel)
            for op in result.unreachable_ops
        }
        assert ("w1", "get", "y") in ops
        assert ("w1", "put", "x") in ops
        assert ("w2", "put", "y") in ops
        assert ("snk", "get", "o") in ops
        # Computes behind a permanently-blocked get are dead too.
        assert ("w1", "compute", None) in ops
        assert ("w2", "compute", None) in ops
        # The source side stays live: its put on 'a' fires once.
        assert not any(process == "src" for process, _, _ in ops)

    def test_refutation_carries_a_cycle(self, dead_on_arrival):
        result = analyze(dead_on_arrival)
        assert result.certificate is None
        assert result.token_free_cycle is not None

    def test_certificate_and_cycle_are_exclusive(
        self, motivating, optimal_ordering, deadlock_ordering
    ):
        live = analyze(motivating, optimal_ordering)
        assert live.certificate is not None
        assert live.token_free_cycle is None
        dead = analyze(motivating, deadlock_ordering)
        assert dead.certificate is None
        assert dead.token_free_cycle is not None


class TestCaching:
    def test_results_are_cached_by_structural_hash(self, motivating):
        clear_analysis_cache()
        ir = lower(motivating, ChannelOrdering.declaration_order(motivating))
        first = analyze_ir(ir)
        before = memos()["absint"].stats.hits
        second = analyze_ir(ir)
        assert second is first
        assert memos()["absint"].stats.hits == before + 1

    def test_analyze_defaults_to_declaration_order(self, motivating):
        explicit = analyze(
            motivating, ChannelOrdering.declaration_order(motivating)
        )
        assert analyze(motivating).ir_hash == explicit.ir_hash

    def test_clear_drops_entries_but_keeps_counters(self, motivating):
        analyze(motivating)
        misses_before = memos()["absint"].stats.misses
        clear_analysis_cache()
        analyze(motivating)
        assert memos()["absint"].stats.misses == misses_before + 1
