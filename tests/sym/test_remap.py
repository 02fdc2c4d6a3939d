"""Cross-design performance reuse through the canonical frame."""

from repro.core.system import ChannelOrdering
from repro.ir import lower
from repro.perf import PerformanceEngine
from repro.store import ArtifactStore
from repro.sym import analyze_symmetry
from repro.sym.remap import (
    CanonicalEnvelope,
    canonical_result_key,
    make_envelope,
    remap_performance,
)
from tests.sym.conftest import build_lanes


def _ir(system):
    return lower(system, ChannelOrdering.declaration_order(system))


class TestEnvelopeRoundTrip:
    def test_remap_translates_every_name(self):
        original = build_lanes(3)
        renamed = build_lanes(3, prefix="x_")
        performance = PerformanceEngine().analyze(original)
        writer = analyze_symmetry(_ir(original))
        reader = analyze_symmetry(_ir(renamed))
        assert writer.canonical_hash == reader.canonical_hash

        translated = remap_performance(
            make_envelope(performance, writer), reader
        )
        assert translated is not None
        assert translated.cycle_time == performance.cycle_time
        renamed_names = set(renamed.process_names) | set(
            renamed.channel_names
        )
        for name in translated.critical_processes:
            assert name in renamed_names and name.startswith("x_")
        for name in translated.critical_channels:
            assert name in renamed_names and name.startswith("x_")
        # The TMG-level report is rewritten token by token, never half-way.
        for token in translated.report.critical_cycle:
            assert "x_" in token

    def test_identity_remap_is_exact(self):
        system = build_lanes(3)
        performance = PerformanceEngine().analyze(system)
        analysis = analyze_symmetry(_ir(system))
        translated = remap_performance(
            make_envelope(performance, analysis), analysis
        )
        assert translated == performance

    def test_frame_size_mismatch_is_a_miss(self):
        performance = PerformanceEngine().analyze(build_lanes(3))
        writer = analyze_symmetry(_ir(build_lanes(3)))
        reader = analyze_symmetry(_ir(build_lanes(4)))
        envelope = make_envelope(performance, writer)
        assert remap_performance(envelope, reader) is None

    def test_unparseable_token_is_a_miss(self):
        performance = PerformanceEngine().analyze(build_lanes(3))
        analysis = analyze_symmetry(_ir(build_lanes(3)))
        envelope = make_envelope(performance, analysis)
        broken = CanonicalEnvelope(
            performance=performance,
            process_names=tuple(
                f"not-{n}" for n in envelope.process_names
            ),
            channel_names=envelope.channel_names,
        )
        assert remap_performance(broken, analysis) is None

    def test_canonical_key_is_positional_in_latencies(self):
        a = analyze_symmetry(_ir(build_lanes(3)))
        b = analyze_symmetry(_ir(build_lanes(3, prefix="x_")))
        lat_a = {
            name: 1 if name.startswith("src") else 2
            for name in a.canonical_process_names
        }
        lat_b = {
            name: 1 if "src" in name else 2
            for name in b.canonical_process_names
        }
        key_a = canonical_result_key(a, lat_a, True)
        key_b = canonical_result_key(b, lat_b, True)
        assert key_a == key_b


class TestEngineSecondChance:
    def test_renamed_sibling_is_served_from_the_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        writer_engine = PerformanceEngine(store=store, canonical_reuse=True)
        original = build_lanes(3)
        baseline = writer_engine.analyze(original)
        analyses_after_write = store.count("analysis")

        renamed = build_lanes(3, prefix="x_")
        reader_engine = PerformanceEngine(store=store, canonical_reuse=True)
        served = reader_engine.analyze(renamed)

        assert served.cycle_time == baseline.cycle_time
        assert all(
            n.startswith("x_") for n in served.critical_processes
        )
        assert all(n.startswith("x_") for n in served.critical_channels)
        # A second-chance hit returns without recomputing, so nothing new
        # lands in the store under the renamed design's own hashes.
        assert store.count("analysis") == analyses_after_write

    def test_reuse_is_opt_in(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        PerformanceEngine(store=store, canonical_reuse=True).analyze(
            build_lanes(3)
        )
        before = store.count("analysis")
        plain = PerformanceEngine(store=store)  # reuse not requested
        plain.analyze(build_lanes(3, prefix="x_"))
        # The plain engine recomputes and files its own exact entry.
        assert store.count("analysis") > before
