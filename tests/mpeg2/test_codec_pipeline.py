"""End-to-end codec tests: encoder/decoder round trips, rate control,
frames."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.mpeg2.codec import (
    Decoder,
    Encoder,
    EncoderConfig,
    Frame,
    VideoFormat,
    psnr,
    synthetic_sequence,
)
from repro.mpeg2.codec.frames import macroblock, gray_frame


FMT = VideoFormat(width=96, height=64)


@pytest.fixture(scope="module")
def frames():
    return synthetic_sequence(6, FMT, seed=3)


class TestFrames:
    def test_format_constraints(self):
        with pytest.raises(ValidationError):
            VideoFormat(width=100, height=64)  # not multiple of 16

    def test_macroblock_counts(self):
        assert FMT.mb_cols == 6
        assert FMT.mb_rows == 4
        assert FMT.macroblocks == 24

    def test_chroma_shape_enforced(self):
        with pytest.raises(ValidationError):
            Frame(
                y=np.zeros((64, 96), dtype=np.uint8),
                cb=np.zeros((64, 96), dtype=np.uint8),
                cr=np.zeros((32, 48), dtype=np.uint8),
            )

    def test_synthetic_sequence_deterministic(self, frames):
        again = synthetic_sequence(6, FMT, seed=3)
        for a, b in zip(frames, again):
            assert np.array_equal(a.y, b.y)

    def test_sequence_has_motion(self, frames):
        assert not np.array_equal(frames[0].y, frames[1].y)

    def test_macroblock_extraction(self, frames):
        mb = macroblock(frames[0], 1, 2)
        assert mb["y"].shape == (16, 16)
        assert mb["cb"].shape == (8, 8)
        assert np.array_equal(mb["y"], frames[0].y[16:32, 32:48])

    def test_psnr_identical_infinite(self, frames):
        assert psnr(frames[0].y, frames[0].y) == float("inf")

    def test_psnr_shape_mismatch(self, frames):
        with pytest.raises(ValidationError):
            psnr(frames[0].y, frames[0].cb)

    def test_gray_frame(self):
        g = gray_frame(FMT)
        assert int(g.y[0, 0]) == 128
        assert g.cb.shape == (32, 48)


class TestEncoderDecoder:
    @pytest.mark.parametrize("delay", [1, 2])
    def test_decoder_matches_encoder_reconstruction(self, frames, delay):
        config = EncoderConfig(gop_size=3, qscale=6, search_range=4,
                               reference_delay=delay)
        video = Encoder(config).encode_sequence(frames)
        decoded = Decoder(FMT, reference_delay=delay).decode_sequence(
            video.bitstream, len(frames)
        )
        for recon, dec in zip(video.reconstructed, decoded):
            assert np.array_equal(recon.y, dec.y)
            assert np.array_equal(recon.cb, dec.cb)
            assert np.array_equal(recon.cr, dec.cr)

    def test_gop_structure(self, frames):
        video = Encoder(EncoderConfig(gop_size=3, qscale=8)).encode_sequence(
            frames
        )
        assert [s.intra for s in video.stats] == [
            True, False, False, True, False, False
        ]

    def test_quality_improves_with_finer_qscale(self, frames):
        coarse = Encoder(EncoderConfig(qscale=24)).encode_sequence(frames)
        fine = Encoder(EncoderConfig(qscale=2)).encode_sequence(frames)
        psnr_coarse = psnr(frames[-1].y, coarse.reconstructed[-1].y)
        psnr_fine = psnr(frames[-1].y, fine.reconstructed[-1].y)
        assert psnr_fine > psnr_coarse
        assert fine.total_bits > coarse.total_bits

    def test_compresses(self, frames):
        video = Encoder(EncoderConfig(qscale=8)).encode_sequence(frames)
        raw_bits = len(frames) * (96 * 64 + 2 * 48 * 32) * 8
        assert video.total_bits < raw_bits / 2

    def test_reasonable_quality(self, frames):
        video = Encoder(EncoderConfig(qscale=6)).encode_sequence(frames)
        for frame, recon in zip(frames, video.reconstructed):
            assert psnr(frame.y, recon.y) > 30.0

    def test_motion_vectors_recorded_for_p_frames(self, frames):
        video = Encoder(
            EncoderConfig(gop_size=3, search_range=4)
        ).encode_sequence(frames)
        for stats in video.stats:
            if stats.intra:
                assert stats.motion_vectors == []
            else:
                assert len(stats.motion_vectors) == FMT.macroblocks

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValidationError):
            Encoder().encode_sequence([])

    def test_mixed_sizes_rejected(self, frames):
        other = synthetic_sequence(1, VideoFormat(64, 48))[0]
        with pytest.raises(ValidationError):
            Encoder().encode_sequence([frames[0], other])

    def test_decoder_detects_index_mismatch(self, frames):
        video = Encoder(EncoderConfig(qscale=8)).encode_sequence(frames)
        with pytest.raises(ValidationError):
            # skipping a frame desynchronizes the header indices
            Decoder(FMT).decode_sequence(video.bitstream[10:], 2)


class TestRateControl:
    def test_qscale_rises_when_over_budget(self, frames):
        config = EncoderConfig(qscale=4, target_bits_per_frame=1000)
        video = Encoder(config).encode_sequence(frames)
        qscales = [s.qscale for s in video.stats]
        assert qscales[-1] > qscales[0]

    def test_qscale_falls_when_under_budget(self, frames):
        config = EncoderConfig(qscale=20, target_bits_per_frame=10**9)
        video = Encoder(config).encode_sequence(frames)
        qscales = [s.qscale for s in video.stats]
        assert qscales[-1] < qscales[0]

    def test_qscale_clamped(self, frames):
        config = EncoderConfig(qscale=30, target_bits_per_frame=1)
        video = Encoder(config).encode_sequence(frames)
        assert max(s.qscale for s in video.stats) <= 31

    def test_disabled_without_target(self, frames):
        video = Encoder(EncoderConfig(qscale=9)).encode_sequence(frames)
        assert {s.qscale for s in video.stats} == {9}

    def test_rate_controlled_stream_decodable(self, frames):
        config = EncoderConfig(qscale=8, target_bits_per_frame=4000,
                               reference_delay=2)
        video = Encoder(config).encode_sequence(frames)
        decoded = Decoder(FMT, reference_delay=2).decode_sequence(
            video.bitstream, len(frames)
        )
        assert np.array_equal(decoded[-1].y, video.reconstructed[-1].y)


class TestConfigValidation:
    def test_bad_gop(self):
        with pytest.raises(ValidationError):
            EncoderConfig(gop_size=0)

    def test_bad_qscale(self):
        with pytest.raises(ValidationError):
            EncoderConfig(qscale=0)

    def test_bad_delay(self):
        with pytest.raises(ValidationError):
            EncoderConfig(reference_delay=0)
        with pytest.raises(ValidationError):
            Decoder(FMT, reference_delay=0)
