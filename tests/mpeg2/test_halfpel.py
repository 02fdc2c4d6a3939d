"""Half-pel motion estimation: interpolation, refinement, end-to-end."""

import numpy as np
import pytest

from repro.mpeg2.codec import (
    Decoder,
    Encoder,
    EncoderConfig,
    VideoFormat,
    psnr,
    synthetic_sequence,
)
from repro.mpeg2.codec.motion import (
    MotionVector,
    halfpel_refine,
    interpolate_block,
    predict_macroblock_halfpel,
)
from repro.mpeg2.functional import encode_through_system

FMT = VideoFormat(width=96, height=64)


class TestInterpolation:
    @pytest.fixture()
    def plane(self):
        rng = np.random.default_rng(2)
        return rng.integers(0, 255, (32, 48)).astype(np.uint8)

    def test_integer_position_exact(self, plane):
        block = interpolate_block(plane, 2 * 4, 2 * 6, 16)
        assert np.array_equal(block, plane[4:20, 6:22])

    def test_horizontal_halfpel_average(self, plane):
        block = interpolate_block(plane, 2 * 4, 2 * 6 + 1, 8)
        a = plane[4:12, 6:14].astype(np.int32)
        b = plane[4:12, 7:15].astype(np.int32)
        assert np.array_equal(block, ((a + b + 1) >> 1).astype(np.uint8))

    def test_vertical_halfpel_average(self, plane):
        block = interpolate_block(plane, 2 * 4 + 1, 2 * 6, 8)
        a = plane[4:12, 6:14].astype(np.int32)
        b = plane[5:13, 6:14].astype(np.int32)
        assert np.array_equal(block, ((a + b + 1) >> 1).astype(np.uint8))

    def test_diagonal_four_tap(self, plane):
        block = interpolate_block(plane, 2 * 4 + 1, 2 * 6 + 1, 8)
        a = plane[4:12, 6:14].astype(np.int32)
        b = plane[4:12, 7:15].astype(np.int32)
        c = plane[5:13, 6:14].astype(np.int32)
        d = plane[5:13, 7:15].astype(np.int32)
        assert np.array_equal(block, ((a + b + c + d + 2) >> 2).astype(np.uint8))

    def test_border_clamped(self, plane):
        block = interpolate_block(plane, -5, -5, 16)
        assert np.array_equal(block, plane[0:16, 0:16])
        block = interpolate_block(plane, 10_000, 10_000, 16)
        assert block.shape == (16, 16)


class TestHalfpelRefine:
    def test_never_degrades_integer_result(self):
        rng = np.random.default_rng(5)
        reference = rng.integers(0, 255, (64, 96)).astype(np.uint8)
        current = rng.integers(0, 255, (16, 16)).astype(np.uint8)
        from repro.mpeg2.codec.motion import full_search, sad

        integer_mv, integer_cost = full_search(current, reference, 1, 2, 4)
        half_mv, half_cost = halfpel_refine(current, reference, 1, 2,
                                            integer_mv)
        assert half_cost <= integer_cost

    def test_finds_true_halfpel_shift(self):
        # reference shifted by exactly half a pel horizontally: the
        # half-pel interpolation reconstructs it exactly on smooth content.
        yy, xx = np.mgrid[0:64, 0:96]
        plane = (100 + 40 * np.sin(xx / 7.0)).astype(np.uint8)
        current = interpolate_block(plane, 2 * 16, 2 * 16 + 1, 16)
        mv, cost = halfpel_refine(current, plane, 1, 1, MotionVector(0, 0))
        assert (mv.dx, mv.dy) == (1, 0)  # +1 in half-pel units
        assert cost == 0

    def test_prediction_matches_refined_vector(self):
        rng = np.random.default_rng(6)
        plane = rng.integers(0, 255, (64, 96)).astype(np.uint8)
        mv = MotionVector(3, -1)  # half-pel units
        predicted = predict_macroblock_halfpel(plane, 1, 1, mv)
        direct = interpolate_block(plane, 2 * 16 - 1, 2 * 16 + 3, 16)
        assert np.array_equal(predicted, direct)


class TestHalfpelPipeline:
    @pytest.fixture(scope="class")
    def frames(self):
        return synthetic_sequence(6, FMT, seed=11)

    def test_decoder_round_trip(self, frames):
        config = EncoderConfig(gop_size=4, qscale=7, half_pel=True,
                               reference_delay=2)
        video = Encoder(config).encode_sequence(frames)
        decoded = Decoder(FMT, reference_delay=2).decode_sequence(
            video.bitstream, len(frames)
        )
        for d, r in zip(decoded, video.reconstructed):
            assert np.array_equal(d.y, r.y)
            assert np.array_equal(d.cb, r.cb)

    def test_distributed_bit_exact(self, frames):
        config = EncoderConfig(gop_size=4, qscale=7, me_mode="two_stage",
                               half_pel=True, reference_delay=2)
        reference = Encoder(config).encode_sequence(frames)
        run = encode_through_system(frames, config)
        assert run.bitstream == reference.bitstream

    def test_halfpel_improves_rate_or_quality(self, frames):
        base = EncoderConfig(gop_size=4, qscale=7, reference_delay=2)
        half = EncoderConfig(gop_size=4, qscale=7, half_pel=True,
                             reference_delay=2)
        video_i = Encoder(base).encode_sequence(frames)
        video_h = Encoder(half).encode_sequence(frames)
        psnr_i = sum(psnr(f.y, r.y)
                     for f, r in zip(frames, video_i.reconstructed))
        psnr_h = sum(psnr(f.y, r.y)
                     for f, r in zip(frames, video_h.reconstructed))
        # Half-pel must win on at least one axis and not lose on both.
        better_quality = psnr_h >= psnr_i
        fewer_bits = video_h.total_bits <= video_i.total_bits
        assert better_quality or fewer_bits

    def test_header_flag_self_describing(self, frames):
        # A half-pel stream decodes correctly without telling the decoder.
        config = EncoderConfig(gop_size=4, qscale=8, half_pel=True,
                               reference_delay=2)
        video = Encoder(config).encode_sequence(frames)
        decoded = Decoder(FMT, reference_delay=2).decode_sequence(
            video.bitstream, len(frames)
        )
        assert np.array_equal(decoded[-1].y, video.reconstructed[-1].y)
