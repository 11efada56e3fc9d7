"""Residual integer transform/quantization and Exp-Golomb bit I/O."""

import numpy as np
import pytest

from texcodec.bitio import BitReader, BitstreamError, BitWriter, se_to_ue
from texcodec.codec import MAX_LEVEL
from texcodec.transform import (DC_BASIS, core_matrix, forward_transform,
                                inverse_sums, inverse_transform, quant_step,
                                quantize, reconstruct_residual, scan, shift,
                                transform_quantize, unscan, zigzag_order)


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


def test_core_matrices():
    # HEVC's core matrices: integer entries of magnitude <= 90, a DC row of
    # 64s, AC rows that sum to exactly 0, the 8-point matrix as the even
    # rows of the 16-point one's left half, and L1 row norms <= 64·n
    for n in (16, 8):
        t = core_matrix(n)
        assert np.array_equal(t, np.rint(t)) and np.abs(t).max() <= 90
        assert DC_BASIS == 64 and np.all(t[0] == 64)
        assert np.all(t[1:].sum(axis=1) == 0)
        assert np.abs(t).sum(axis=1).max() == 64 * n
        # nearly orthogonal: T @ T.T is about 4096·n times the identity
        g = t @ t.T
        assert np.abs(g - 4096 * n * np.eye(n)).max() <= 200
    assert np.array_equal(core_matrix(16)[::2, :8], core_matrix(8))
    assert (shift(16), shift(8)) == (16, 15)


def test_max_level_follows_from_l1_norms():
    # |coefficient| <= 255·(64·n)**2 and the step is >= 2**shift(n), so
    # |level| <= 255·1024**2 / 2**16 = 4080 at 16x16 and 2040 at 8x8; a
    # constant block of 255 attains it
    assert MAX_LEVEL == 255 * 1024 ** 2 // 2 ** 16 == 4080
    for n, bound in ((16, 4080), (8, 2040)):
        for sign in (1, -1):
            levels = transform_quantize(np.full((n, n), sign * 255), 1)
            assert levels[0, 0] == sign * bound
        r = np.random.default_rng(6).choice([-255, 255], (500, n, n))
        assert np.abs(transform_quantize(r, 1)).max() <= bound


def test_zero_residual_roundtrip():
    z = np.zeros((16, 16), np.int64)
    levels = transform_quantize(z, 16)
    assert np.all(levels == 0)
    assert np.all(reconstruct_residual(levels, 16) == 0)


def test_constant_residual_dc_closed_form():
    # the AC rows sum to 0: a constant residual c has exactly zero AC
    # coefficients and the DC coefficient 64**2·n**2·c, so adding c to any
    # block changes its DC coefficient alone
    rng = np.random.default_rng(7)
    for n in (16, 8):
        x = rng.integers(-200, 200, (n, n))
        for c in (-255, -1, 1, 16, 255):
            coeffs = forward_transform(np.full((n, n), c))
            assert coeffs[0, 0] == 4096 * n * n * c
            assert np.all(coeffs.flat[1:] == 0)
            diff = forward_transform(x + c) - forward_transform(x)
            assert diff[0, 0] == 4096 * n * n * c
            assert np.all(diff.flat[1:] == 0)
    r = np.full((16, 16), 16, np.int64)
    levels = transform_quantize(r, 16)
    assert levels[0, 0] == 16  # 2**20·16 / (16·2**16)
    assert np.count_nonzero(levels) == 1
    assert np.array_equal(reconstruct_residual(levels, 16), r)


def test_quantizer_coefficient_error_bound():
    # per-coefficient reconstruction error is bounded by step/2, where the
    # step is q_step·2**shift(n)
    rng = np.random.default_rng(1)
    for n in (16, 8):
        for q in (1, 4, 16):
            step = quant_step(q, n)
            assert step == q << shift(n)
            c = rng.integers(-255 * 2 ** 20, 255 * 2 ** 20, (n, n))
            err = np.abs(quantize(c, step) * step - c)
            assert err.max() <= step // 2


def test_quantize_rounds_half_away_from_zero():
    assert quantize(np.array([24]), 16)[0] == 2    # 1.5 -> 2
    assert quantize(np.array([-24]), 16)[0] == -2
    assert quantize(np.array([8]), 16)[0] == 1     # 0.5 -> 1
    assert quantize(np.array([-8]), 16)[0] == -1
    assert quantize(np.array([7]), 16)[0] == 0
    for step in (0, 1, 15):
        with pytest.raises(ValueError):
            quantize(np.zeros((2, 2)), step)
    with pytest.raises(ValueError):
        quant_step(0, 16)


def test_random_residual_roundtrip_fine_quantizer():
    # at q=1 the spatial error comes from the basis: its rows are only
    # nearly orthogonal (test_core_matrices), and coefficient errors
    # superpose.  Over 2 000 random +-255 blocks it stays within 4 at 16x16
    # and 2 at 8x8
    rng = np.random.default_rng(2)
    for n, bound in ((16, 4), (8, 2)):
        r = rng.integers(-255, 256, (2000, n, n))
        back = reconstruct_residual(transform_quantize(r, 1), 1)
        assert np.abs(back - r).max() <= bound


def test_inverse_transform_integer_rounding():
    # the inverse's float64 matmuls are exact: they equal Python-integer
    # sums, shifted once with rounding, for levels up to MAX_LEVEL at q 63
    rng = np.random.default_rng(3)
    for n in (16, 8):
        t = core_matrix(n).astype(np.int64).tolist()
        c = rng.integers(-MAX_LEVEL * 63, MAX_LEVEL * 63 + 1, (n, n))
        c[0, 0] = MAX_LEVEL * 63
        exact = [[sum(t[k][i] * int(c[k, l]) * t[l][j]
                      for k in range(n) for l in range(n))
                  for j in range(n)] for i in range(n)]
        assert np.array_equal(inverse_sums(c), exact)
        half = 1 << (shift(n) - 1)
        assert np.array_equal(inverse_transform(c),
                              [[(v + half) >> shift(n) for v in row]
                               for row in exact])


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
