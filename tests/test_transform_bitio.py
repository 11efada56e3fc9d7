"""Residual transform/quantization and Exp-Golomb bit I/O."""

import numpy as np
import pytest

from texcodec.bitio import BitReader, BitstreamError, BitWriter, se_to_ue
from texcodec.transform import (dequantize, forward_transform,
                                inverse_transform, quantize,
                                reconstruct_residual, scan, transform_quantize,
                                unscan, zigzag_order)


# ---------------------------------------------------------------------------
# bit I/O


def test_bit_roundtrip_fixed_width():
    bw = BitWriter()
    bw.write_bits(0b1011, 4)
    bw.write_bits(5, 9)
    bw.write_bit(1)
    assert bw.bits_written == 14
    br = BitReader(bw.to_bytes())
    assert br.read_bits(4) == 0b1011
    assert br.read_bits(9) == 5
    assert br.read_bit() == 1


def test_exp_golomb_roundtrip_randomized():
    rng = np.random.default_rng(0)
    ue = rng.integers(0, 10000, 200).tolist() + [0, 1, 2, 255]
    se = rng.integers(-5000, 5000, 200).tolist() + [0, 1, -1, 127, -128]
    bw = BitWriter()
    for v in ue:
        bw.write_ue(int(v))
    for v in se:
        bw.write_ue(se_to_ue(int(v)))
    br = BitReader(bw.to_bytes())
    assert [br.read_ue() for _ in ue] == [int(v) for v in ue]
    assert [br.read_se() for _ in se] == [int(v) for v in se]


def test_exp_golomb_canonical_codes():
    # ue: 0 -> "1", 1 -> "010", 2 -> "011"
    for value, bits in ((0, "1"), (1, "010"), (2, "011"), (3, "00100")):
        bw = BitWriter()
        bw.write_ue(value)
        assert bw.bits_written == len(bits)
        raw = bw.to_bytes()[0] >> (8 - len(bits))
        assert format(raw, f"0{len(bits)}b") == bits


def test_bit_writer_validation_and_padding():
    bw = BitWriter()
    with pytest.raises(ValueError):
        bw.write_bits(4, 2)
    with pytest.raises(ValueError):
        bw.write_ue(-1)
    bw.write_bit(1)
    assert bw.to_bytes() == b"\x80"  # zero-padded final byte


def test_bit_reader_exhaustion():
    br = BitReader(b"\x00")
    br.read_bits(8)
    with pytest.raises(BitstreamError):
        br.read_bit()
    with pytest.raises(BitstreamError, match="Exp-Golomb"):
        BitReader(bytes(20)).read_ue()


# ---------------------------------------------------------------------------
# transform


def test_zero_residual_roundtrip():
    z = np.zeros((16, 16), np.int64)
    levels = transform_quantize(z, 16)
    assert np.all(levels == 0)
    assert np.all(reconstruct_residual(levels, 16) == 0)


def test_constant_residual_dc_closed_form():
    # orthonormal 2-D DCT of a constant c on 16x16: DC = 16*c, rest 0
    r = np.full((16, 16), 16, np.int64)
    coeffs = forward_transform(r)
    assert coeffs[0, 0] == pytest.approx(256.0)
    assert np.max(np.abs(coeffs.flat[1:])) < 1e-9
    levels = transform_quantize(r, 16)
    assert levels[0, 0] == 16
    assert np.count_nonzero(levels) == 1
    assert np.array_equal(reconstruct_residual(levels, 16), r)


def test_quantizer_coefficient_error_bound():
    # per-coefficient reconstruction error is bounded by q_step/2
    rng = np.random.default_rng(1)
    for q in (1, 4, 16):
        c = rng.uniform(-300, 300, (16, 16))
        err = np.abs(dequantize(quantize(c, q), q) - c)
        assert err.max() <= q / 2 + 1e-9


def test_quantize_rounds_half_away_from_zero():
    assert quantize(np.array([24.0]), 16)[0] == 2    # 1.5 -> 2
    assert quantize(np.array([-24.0]), 16)[0] == -2
    assert quantize(np.array([8.0]), 16)[0] == 1     # 0.5 -> 1
    assert quantize(np.array([7.99]), 16)[0] == 0
    with pytest.raises(ValueError):
        quantize(np.zeros((2, 2)), 0)


def test_random_residual_roundtrip_fine_quantizer():
    # spatial-domain error can exceed the per-coefficient q/2 bound because
    # coefficient errors superpose; at q=1 it stays small
    rng = np.random.default_rng(2)
    r = rng.integers(-255, 256, (16, 16))
    back = reconstruct_residual(transform_quantize(r, 1), 1)
    assert np.max(np.abs(back - r)) <= 2


def test_inverse_transform_integer_rounding():
    rng = np.random.default_rng(3)
    r = rng.integers(-100, 100, (8, 8))
    assert np.array_equal(inverse_transform(forward_transform(r)), r)


# ---------------------------------------------------------------------------
# zigzag


def test_zigzag_order_2x2_and_3x3():
    assert zigzag_order(2) == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert zigzag_order(3) == ((0, 0), (0, 1), (1, 0), (2, 0), (1, 1),
                               (0, 2), (1, 2), (2, 1), (2, 2))


def test_zigzag_is_permutation():
    for n in (2, 8, 16):
        order = zigzag_order(n)
        assert sorted(order) == [(i, j) for i in range(n) for j in range(n)]


def test_scan_unscan_inverse():
    rng = np.random.default_rng(4)
    for n in (8, 16):
        m = rng.integers(-50, 50, (n, n))
        assert np.array_equal(unscan(scan(m), n), m)


def test_block_stacks_match_per_block_calls():
    # the codec transforms, quantizes and scans a leaf's TUs as one stack
    rng = np.random.default_rng(5)
    for k, n in ((1, 16), (4, 8), (16, 16), (64, 8)):
        r = rng.integers(-255, 256, (k, n, n))
        levels = transform_quantize(r, 3)
        assert np.array_equal(levels, [transform_quantize(b, 3) for b in r])
        assert np.array_equal(reconstruct_residual(levels, 3),
                              [reconstruct_residual(b, 3) for b in levels])
        assert np.array_equal(scan(levels), [scan(b) for b in levels])
        assert np.array_equal(unscan(scan(levels), n), levels)
