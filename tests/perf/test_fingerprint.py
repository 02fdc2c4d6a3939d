"""The invalidation keys of the analysis caches.

:class:`~repro.perf.PerformanceEngine` keys its structure cache on the
lowered IR and its result cache on the IR plus the effective latencies
in pid order.  The fingerprints below are the IR's
:attr:`~repro.ir.LoweredIR.structural_hash`, the content address that
ignores process latencies and declaration order.
"""

from repro.core import ChannelOrdering, SystemBuilder
from repro.ir import lower
from repro.model import analyze_system
from repro.perf import PerformanceEngine
from repro.model.build import effective_latencies


def declaration(system):
    return ChannelOrdering.declaration_order(system)


def structure_fingerprint(system, ordering):
    return lower(system, ordering).structural_hash


class TestEffectiveLatencies:
    def test_defaults_from_system(self, tiny_pipeline):
        latencies = effective_latencies(tiny_pipeline)
        assert latencies == {"src": 1, "A": 3, "B": 2, "snk": 1}

    def test_partial_override_resolves_like_build(self, tiny_pipeline):
        latencies = effective_latencies(tiny_pipeline, {"A": 7})
        assert latencies == {"src": 1, "A": 7, "B": 2, "snk": 1}

    def test_spelled_out_equals_partial(self, tiny_pipeline):
        partial = effective_latencies(tiny_pipeline, {"A": 7})
        full = effective_latencies(tiny_pipeline, partial)
        assert partial == full


class TestStructureFingerprint:
    def test_deterministic_across_rebuilds(self, tiny_pipeline):
        rebuilt = tiny_pipeline.with_process_latencies({})
        assert structure_fingerprint(
            tiny_pipeline, declaration(tiny_pipeline)
        ) == structure_fingerprint(rebuilt, declaration(rebuilt))

    def test_ignores_process_latencies(self, tiny_pipeline):
        faster = tiny_pipeline.with_process_latencies({"A": 1, "B": 1})
        assert structure_fingerprint(
            tiny_pipeline, declaration(tiny_pipeline)
        ) == structure_fingerprint(faster, declaration(faster))

    def test_sensitive_to_ordering(self, motivating, suboptimal_ordering,
                                   optimal_ordering):
        assert structure_fingerprint(
            motivating, suboptimal_ordering
        ) != structure_fingerprint(motivating, optimal_ordering)

    def test_sensitive_to_channel_latency(self):
        def build(latency):
            return (
                SystemBuilder("s")
                .source("src", latency=1)
                .process("A", latency=3)
                .sink("snk", latency=1)
                .channel("i", "src", "A", latency=latency)
                .channel("o", "A", "snk", latency=1)
                .build()
            )

        a, b = build(1), build(2)
        assert structure_fingerprint(a, declaration(a)) != \
            structure_fingerprint(b, declaration(b))

    def test_sensitive_to_buffering(self):
        def build(capacity):
            return (
                SystemBuilder("s")
                .source("src", latency=1)
                .process("A", latency=3)
                .sink("snk", latency=1)
                .channel("i", "src", "A", latency=1)
                .channel("o", "A", "snk", latency=1, capacity=capacity)
                .build()
            )

        a, b = build(0), build(2)
        assert structure_fingerprint(a, declaration(a)) != \
            structure_fingerprint(b, declaration(b))


def pipeline(order, latencies):
    """src -> A -> B -> snk, with the workers declared in ``order``."""
    builder = SystemBuilder("s").source("src", latency=1)
    for name in order:
        builder.process(name, latency=latencies[name])
    return (
        builder.sink("snk", latency=1)
        .channel("i", "src", "A", latency=1)
        .channel("x", "A", "B", latency=1)
        .channel("o", "B", "snk", latency=6)
        .build()
    )


class TestAnalysisFingerprint:
    def test_latency_change_changes_key(self, tiny_pipeline):
        engine = PerformanceEngine()
        engine.analyze(tiny_pipeline)
        got = engine.analyze(tiny_pipeline, process_latencies={"A": 1})
        assert engine.results.stats.misses == 2
        assert engine.structures.stats.hits == 1
        assert got == analyze_system(
            tiny_pipeline, process_latencies={"A": 1}
        )

    def test_float_conversion_shares_the_exact_entry(self, tiny_pipeline):
        engine = PerformanceEngine()
        exact = analyze_system(tiny_pipeline, perf_engine=engine)
        approx = analyze_system(
            tiny_pipeline, exact=False, perf_engine=engine
        )
        assert engine.results.stats.hits == 1
        assert approx.cycle_time == float(exact.cycle_time)

    def test_override_spelling_is_canonical(self, tiny_pipeline):
        engine = PerformanceEngine()
        partial = engine.analyze(tiny_pipeline, process_latencies={"A": 7})
        spelled = engine.analyze(
            tiny_pipeline,
            process_latencies=effective_latencies(tiny_pipeline, {"A": 7}),
        )
        assert spelled is partial
        assert engine.results.stats.hits == 1

    def test_declaration_orders_keep_their_own_entries(self):
        # Same structure, declared in the other order, with the latencies
        # swapped: the latency vectors in pid order are (1, 3, 9, 1) for
        # both and the structural hashes agree, so only the IR, which
        # compares its tables in declaration order, tells them apart.
        first = pipeline(("A", "B"), {"A": 3, "B": 9})
        second = pipeline(("B", "A"), {"A": 9, "B": 3})
        assert structure_fingerprint(first, declaration(first)) == \
            structure_fingerprint(second, declaration(second))
        engine = PerformanceEngine()
        got_first = engine.analyze(first)
        got_second = engine.analyze(second)
        assert engine.structures.stats.hits == 0
        assert engine.results.stats.hits == 0
        assert len(engine.structures) == 2
        for system, got in ((first, got_first), (second, got_second)):
            fresh = analyze_system(system)
            assert got == fresh
            assert got.report.critical_nodes == fresh.report.critical_nodes
            assert got.report.critical_edges == fresh.report.critical_edges
        assert got_second != got_first
