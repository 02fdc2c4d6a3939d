"""Vectorized and two-stage motion estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.mpeg2.codec import (
    Encoder,
    EncoderConfig,
    VideoFormat,
    psnr,
    synthetic_sequence,
)
from repro.mpeg2.codec.motion import (
    MotionVector,
    coarse_search,
    full_search,
    full_search_fast,
    refine_search,
    two_stage_search,
)
from repro.mpeg2.functional import encode_through_system

FMT = VideoFormat(width=96, height=64)


@pytest.fixture(scope="module")
def reference_plane():
    rng = np.random.default_rng(7)
    return rng.integers(0, 255, (64, 96)).astype(np.uint8)


class TestFastSearch:
    @settings(max_examples=60, deadline=None)
    @given(
        row=st.integers(0, 3),
        col=st.integers(0, 5),
        search_range=st.integers(0, 10),
        seed=st.integers(0, 1000),
    )
    def test_equals_scalar_search(self, reference_plane, row, col,
                                  search_range, seed):
        rng = np.random.default_rng(seed)
        current = rng.integers(0, 255, (16, 16)).astype(np.uint8)
        scalar = full_search(current, reference_plane, row, col, search_range)
        fast = full_search_fast(current, reference_plane, row, col,
                                search_range)
        assert (scalar[0].dx, scalar[0].dy, scalar[1]) == (
            fast[0].dx, fast[0].dy, fast[1]
        )

    def test_finds_exact_shift(self, reference_plane):
        current = reference_plane[16 + 3 : 32 + 3, 16 - 2 : 32 - 2]
        mv, cost = full_search_fast(current, reference_plane, 1, 1,
                                    search_range=5)
        assert (mv.dx, mv.dy, cost) == (-2, 3, 0)

    def test_bad_shape_rejected(self, reference_plane):
        with pytest.raises(ValidationError):
            full_search_fast(np.zeros((8, 8), dtype=np.uint8),
                             reference_plane, 0, 0)


class TestTwoStage:
    def test_coarse_grid_respects_step(self, reference_plane):
        current = np.zeros((16, 16), dtype=np.uint8)
        mv, __ = coarse_search(current, reference_plane, 1, 1,
                               search_range=6, step=2)
        assert mv.dx % 2 == 0 and mv.dy % 2 == 0

    def test_refine_never_degrades(self, reference_plane):
        rng = np.random.default_rng(1)
        current = rng.integers(0, 255, (16, 16)).astype(np.uint8)
        coarse, coarse_cost = coarse_search(
            current, reference_plane, 1, 2, search_range=6
        )
        refined, refined_cost = refine_search(
            current, reference_plane, 1, 2, coarse
        )
        assert refined_cost <= coarse_cost

    def test_two_stage_close_to_full(self, reference_plane):
        # on an exact even shift the grid finds it directly
        current = reference_plane[16 + 4 : 32 + 4, 16 + 2 : 32 + 2]
        mv, cost = two_stage_search(current, reference_plane, 1, 1,
                                    search_range=6)
        assert (mv.dx, mv.dy, cost) == (2, 4, 0)

    def test_two_stage_finds_odd_shift_on_smooth_content(self):
        # Random texture has no SAD basin, so the coarse grid can land
        # anywhere; on smooth content the basin guides the grid to a
        # neighbour of the true (odd) shift and refinement closes the gap.
        yy, xx = np.mgrid[0:64, 0:96]
        smooth = (128 + 100 * np.sin(yy / 9.0) * np.cos(xx / 11.0)).astype(
            np.uint8
        )
        current = smooth[16 + 3 : 32 + 3, 16 + 1 : 32 + 1]
        mv, cost = two_stage_search(current, smooth, 1, 1,
                                    search_range=6, step=2, refine_range=1)
        assert (mv.dx, mv.dy, cost) == (1, 3, 0)

    def test_invalid_step_rejected(self, reference_plane):
        with pytest.raises(ValidationError):
            coarse_search(np.zeros((16, 16), dtype=np.uint8),
                          reference_plane, 0, 0, step=0)


class TestTwoStageEncoder:
    def test_config_validation(self):
        with pytest.raises(ValidationError):
            EncoderConfig(me_mode="diamond")
        with pytest.raises(ValidationError):
            EncoderConfig(me_step=0)
        with pytest.raises(ValidationError):
            EncoderConfig(refine_range=-1)

    def test_two_stage_quality_close_to_full(self):
        frames = synthetic_sequence(5, FMT, seed=2)
        full = Encoder(EncoderConfig(gop_size=4, qscale=7,
                                     search_range=8)).encode_sequence(frames)
        staged = Encoder(EncoderConfig(gop_size=4, qscale=7, search_range=8,
                                       me_mode="two_stage")).encode_sequence(
            frames
        )
        q_full = psnr(frames[-1].y, full.reconstructed[-1].y)
        q_staged = psnr(frames[-1].y, staged.reconstructed[-1].y)
        assert q_staged >= q_full - 1.0  # within 1 dB

    def test_distributed_two_stage_bit_exact(self):
        frames = synthetic_sequence(4, FMT, seed=3)
        config = EncoderConfig(gop_size=2, qscale=8, search_range=8,
                               me_mode="two_stage", reference_delay=2)
        reference = Encoder(config).encode_sequence(frames)
        run = encode_through_system(frames, config)
        assert run.bitstream == reference.bitstream

    def test_modes_differ_only_in_vectors(self):
        frames = synthetic_sequence(3, FMT, seed=4)
        full = Encoder(EncoderConfig(gop_size=4, qscale=7,
                                     search_range=8)).encode_sequence(frames)
        staged = Encoder(EncoderConfig(gop_size=4, qscale=7, search_range=8,
                                       me_mode="two_stage")).encode_sequence(
            frames
        )
        # intra frames are identical regardless of ME mode
        assert full.stats[0].bits == staged.stats[0].bits
