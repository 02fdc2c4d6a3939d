"""The canonical invalidation keys of the analysis caches."""

from repro.core import ChannelOrdering, SystemBuilder
from repro.perf import (
    analysis_fingerprint,
    effective_latencies,
    structure_fingerprint,
)


def declaration(system):
    return ChannelOrdering.declaration_order(system)


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


class TestAnalysisFingerprint:
    def test_latency_change_changes_key(self, tiny_pipeline):
        structure = structure_fingerprint(
            tiny_pipeline, declaration(tiny_pipeline)
        )
        base = effective_latencies(tiny_pipeline)
        fast = effective_latencies(tiny_pipeline, {"A": 1})
        assert analysis_fingerprint(structure, base, True) != \
            analysis_fingerprint(structure, fast, True)

    def test_mode_changes_key(self, tiny_pipeline):
        structure = structure_fingerprint(
            tiny_pipeline, declaration(tiny_pipeline)
        )
        latencies = effective_latencies(tiny_pipeline)
        keys = {
            analysis_fingerprint(structure, latencies, exact)
            for exact in (True, False)
        }
        assert len(keys) == 2

    def test_override_spelling_is_canonical(self, tiny_pipeline):
        structure = structure_fingerprint(
            tiny_pipeline, declaration(tiny_pipeline)
        )
        partial = effective_latencies(tiny_pipeline, {"A": 7})
        spelled = effective_latencies(tiny_pipeline, dict(partial))
        assert analysis_fingerprint(
            structure, partial, True
        ) == analysis_fingerprint(structure, spelled, True)

