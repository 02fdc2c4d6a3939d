"""Unit and property tests for the functional codec building blocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ValidationError
from repro.mpeg2.codec.bitstream import BitReader, BitWriter
from repro.mpeg2.codec.quant import INTRA_MATRIX, dequantize, quantize
from repro.mpeg2.codec.motion import (
    MotionVector,
    full_search,
    predict_macroblock,
    sad,
)
from repro.mpeg2.codec.dct import (
    blocks_of_macroblock,
    dct2,
    idct2,
    macroblock_of_blocks,
)
from repro.mpeg2.codec.vlc import (
    decode_block,
    decode_motion_vector,
    encode_block,
    encode_motion_vector,
    read_se,
    read_ue,
    write_se,
    write_ue,
)
from repro.mpeg2.codec.zigzag import (
    run_level_decode,
    run_level_encode,
    scan,
    unscan,
)

int8x8 = hnp.arrays(np.int32, (8, 8), elements=st.integers(-255, 255))
uint8x8 = hnp.arrays(np.uint8, (8, 8), elements=st.integers(0, 255))


class TestDct:
    def test_constant_block_energy_in_dc(self):
        block = np.full((8, 8), 100.0)
        coefficients = dct2(block)
        assert coefficients[0, 0] == pytest.approx(800.0)
        assert np.abs(coefficients).sum() == pytest.approx(800.0)

    @settings(max_examples=50, deadline=None)
    @given(block=int8x8)
    def test_round_trip(self, block):
        assert np.allclose(idct2(dct2(block)), block, atol=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(block=int8x8)
    def test_parseval(self, block):
        # Orthonormal transform preserves energy.
        coefficients = dct2(block)
        assert np.sum(coefficients**2) == pytest.approx(
            float(np.sum(block.astype(np.float64) ** 2)), rel=1e-9
        )

    def test_batched(self):
        blocks = np.arange(2 * 64, dtype=np.float64).reshape(2, 8, 8)
        out = dct2(blocks)
        assert out.shape == (2, 8, 8)
        assert np.allclose(out[0], dct2(blocks[0]))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValidationError):
            dct2(np.zeros((4, 4)))
        with pytest.raises(ValidationError):
            idct2(np.zeros((8, 7)))

    def test_macroblock_split_round_trip(self):
        mb = np.arange(256, dtype=np.int32).reshape(16, 16)
        assert np.array_equal(macroblock_of_blocks(blocks_of_macroblock(mb)), mb)

    def test_macroblock_shapes_enforced(self):
        with pytest.raises(ValidationError):
            blocks_of_macroblock(np.zeros((8, 8)))
        with pytest.raises(ValidationError):
            macroblock_of_blocks(np.zeros((2, 8, 8)))


class TestQuant:
    def test_quantize_dequantize_bounded_error(self):
        rng = np.random.default_rng(0)
        block = rng.integers(-200, 200, (8, 8)).astype(np.float64)
        for qscale in (1, 8, 31):
            levels = quantize(block, qscale, intra=False)
            recovered = dequantize(levels, qscale, intra=False)
            step = 2.0 * qscale  # flat inter matrix 16 * 2q/16
            assert np.all(np.abs(recovered - block) <= step / 2 + 1e-9)

    def test_intra_dc_fixed_step(self):
        block = np.zeros((8, 8))
        block[0, 0] = 77.0
        levels = quantize(block, qscale=31, intra=True)
        assert levels[0, 0] == round(77 / 8)
        recovered = dequantize(levels, qscale=31, intra=True)
        assert recovered[0, 0] == levels[0, 0] * 8.0

    def test_larger_qscale_coarser(self):
        rng = np.random.default_rng(1)
        block = rng.normal(0, 60, (8, 8))
        fine = quantize(block, 2, intra=False)
        coarse = quantize(block, 20, intra=False)
        assert np.abs(coarse).sum() <= np.abs(fine).sum()

    def test_qscale_bounds(self):
        with pytest.raises(ValidationError):
            quantize(np.zeros((8, 8)), 0)
        with pytest.raises(ValidationError):
            dequantize(np.zeros((8, 8), dtype=np.int32), 32)

    def test_intra_matrix_shape(self):
        assert INTRA_MATRIX.shape == (8, 8)
        assert INTRA_MATRIX[0, 0] == 8


class TestZigzag:
    def test_scan_visits_every_index_once(self):
        block = np.arange(64, dtype=np.int32).reshape(8, 8)
        assert sorted(scan(block).tolist()) == list(range(64))

    def test_scan_starts_dc_then_low_frequencies(self):
        block = np.arange(64, dtype=np.int32).reshape(8, 8)
        vector = scan(block)
        assert vector[0] == 0  # (0,0)
        assert set(vector[1:3].tolist()) == {1, 8}  # (0,1) and (1,0)

    @settings(max_examples=50, deadline=None)
    @given(block=int8x8)
    def test_scan_unscan_inverse(self, block):
        assert np.array_equal(unscan(scan(block)), block)

    @settings(max_examples=50, deadline=None)
    @given(block=int8x8)
    def test_run_level_round_trip(self, block):
        vector = scan(block)
        assert np.array_equal(run_level_decode(run_level_encode(vector)), vector)

    def test_run_level_drops_trailing_zeros(self):
        vector = np.zeros(64, dtype=np.int32)
        vector[0] = 5
        assert run_level_encode(vector) == [(0, 5)]

    def test_run_level_overrun_rejected(self):
        with pytest.raises(ValidationError):
            run_level_decode([(63, 1), (1, 1)])

    def test_zero_level_rejected(self):
        with pytest.raises(ValidationError):
            run_level_decode([(0, 0)])


class TestBitstream:
    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.tuples(st.integers(0, 2**16 - 1),
                                     st.integers(1, 16)), max_size=30))
    def test_writer_reader_round_trip(self, values):
        writer = BitWriter()
        for value, width in values:
            writer.write_bits(value % (1 << width), width)
        reader = BitReader(writer.getvalue())
        for value, width in values:
            assert reader.read_bits(width) == value % (1 << width)

    def test_value_too_wide_rejected(self):
        with pytest.raises(ValidationError):
            BitWriter().write_bits(4, 2)

    def test_align(self):
        writer = BitWriter()
        writer.write_bits(1, 3)
        writer.align()
        assert writer.bit_length == 8

    def test_getbits_matches_written(self):
        writer = BitWriter()
        writer.write_bits(0b1011, 4)
        assert writer.getbits() == "1011"

    def test_reader_exhaustion(self):
        reader = BitReader(b"\xff")
        reader.read_bits(8)
        with pytest.raises(ValidationError):
            reader.read_bit()


class TestVlc:
    @settings(max_examples=80, deadline=None)
    @given(value=st.integers(0, 100_000))
    def test_ue_round_trip(self, value):
        writer = BitWriter()
        write_ue(writer, value)
        assert read_ue(BitReader(writer.getvalue())) == value

    @settings(max_examples=80, deadline=None)
    @given(value=st.integers(-50_000, 50_000))
    def test_se_round_trip(self, value):
        writer = BitWriter()
        write_se(writer, value)
        assert read_se(BitReader(writer.getvalue())) == value

    def test_small_values_short_codes(self):
        writer = BitWriter()
        write_ue(writer, 0)
        assert writer.bit_length == 1  # '1'

    @settings(max_examples=50, deadline=None)
    @given(block=int8x8)
    def test_block_round_trip(self, block):
        pairs = run_level_encode(scan(block))
        writer = BitWriter()
        encode_block(writer, pairs)
        assert decode_block(BitReader(writer.getvalue())) == pairs

    def test_motion_vector_round_trip(self):
        writer = BitWriter()
        encode_motion_vector(writer, -7, 12)
        assert decode_motion_vector(BitReader(writer.getvalue())) == (-7, 12)

    def test_negative_ue_rejected(self):
        with pytest.raises(ValidationError):
            write_ue(BitWriter(), -1)


class TestMotion:
    def test_sad_zero_for_identical(self):
        block = np.full((16, 16), 7, dtype=np.uint8)
        assert sad(block, block) == 0

    def test_full_search_finds_exact_shift(self):
        rng = np.random.default_rng(3)
        reference = rng.integers(0, 255, (64, 64)).astype(np.uint8)
        # current macroblock = reference shifted by (dx=3, dy=-2)
        current = reference[16 - 2 : 32 - 2, 16 + 3 : 32 + 3]
        mv, cost = full_search(current, reference, 1, 1, search_range=4)
        assert (mv.dx, mv.dy) == (3, -2)
        assert cost == 0

    def test_zero_vector_preferred_on_ties(self):
        reference = np.zeros((64, 64), dtype=np.uint8)
        current = np.zeros((16, 16), dtype=np.uint8)
        mv, cost = full_search(current, reference, 1, 1, search_range=4)
        assert (mv.dx, mv.dy) == (0, 0)

    def test_predict_clamps_at_borders(self):
        reference = np.arange(64 * 64, dtype=np.uint8).reshape(64, 64)
        patch = predict_macroblock(reference, 0, 0, MotionVector(-8, -8))
        assert np.array_equal(patch, reference[0:16, 0:16])

    def test_bad_macroblock_shape_rejected(self):
        with pytest.raises(ValidationError):
            full_search(np.zeros((8, 8), dtype=np.uint8),
                        np.zeros((64, 64), dtype=np.uint8), 0, 0)
