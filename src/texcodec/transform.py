"""Residual transform coding: HEVC's 16- and 8-point integer core transforms,
uniform quantization and zig-zag scan orders.  The transforms and scans act
on the last two axes, so a stack of blocks is coded in one call.

The n-point core matrix `core_matrix(n)` (Budagavi et al., "Core Transform
Design in the HEVC Standard", IEEE JSTSP 2013) has integer entries of
magnitude at most 90: row 0 is all 64, and every other row sums to exactly
0.  Its rows are nearly orthogonal with squared norms of about 4096·n, so
the forward transform `T @ X @ T.T` is about 2**shift(n) times the
orthonormal DCT, with shift(16) = 16 and shift(8) = 15.

- Forward: the exact integer coefficients `T @ X @ T.T`.
- Quantization: round half away from zero, in integers, with the step
  `q_step << shift(n)`; `q_step` = q_level.
- Inverse: `(T.T @ (levels * q_step) @ T + 2**(shift-1)) >> shift`, one
  rounding shift after both passes.

Every product is computed as a float64 matmul, which is exact: the operands
are integers and every partial sum is an integer below 2**53 (the inverse's
sums stay below 16·16·90·90·4080·63 < 2**39), whatever order the BLAS kernel
adds them in.  So encoder and decoder agree on any machine.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# HEVC's integer approximations of 64·√2·cos(mπ/32), m = 0..16; the DC row
# uses 64 instead of m = 0's 90.
_COS = (90, 90, 89, 87, 83, 80, 75, 70, 64, 57, 50, 43, 36, 25, 18, 9, 0)
# the value every DC-row entry takes
DC_BASIS = 64


@lru_cache(maxsize=None)
def core_matrix(n: int) -> np.ndarray:
    """The n-point HEVC core matrix (n = 16 or 8) as read-only float64:
    entry (k, j) approximates 64·√2·cos(kπ(2j+1)/(2n)) for k > 0."""
    if n not in (8, 16):
        raise ValueError(f"no {n}-point core transform")
    t = np.full((n, n), DC_BASIS, np.float64)
    for k in range(1, n):
        for j in range(n):
            m = (16 // n) * k * (2 * j + 1) % 64  # angle in units of π/32
            m = min(m, 64 - m)  # cos(2π - a) = cos(a)
            t[k, j] = -_COS[32 - m] if m > 16 else _COS[m]  # cos(π - a)
    t.flags.writeable = False
    return t


def shift(n: int) -> int:
    """log2 of the n-point transform's 2-D gain: 12 + log2(n)."""
    return 11 + n.bit_length()


def _matmul(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a @ b @ c as int64, exact for integer operands: see the module
    docstring."""
    return (a @ np.asarray(b, np.float64) @ c).astype(np.int64)


def forward_transform(residual: np.ndarray) -> np.ndarray:
    """The exact integer coefficients T @ X @ T.T of (..., n, n) blocks."""
    t = core_matrix(np.shape(residual)[-1])
    return _matmul(t, residual, t.T)


def inverse_sums(coeffs: np.ndarray) -> np.ndarray:
    """T.T @ C @ T of (..., n, n) dequantized coefficients: the inverse
    transform's integer sums before its rounding shift."""
    t = core_matrix(np.shape(coeffs)[-1])
    return _matmul(t.T, coeffs, t)


def round_shift(sums: np.ndarray, n: int) -> np.ndarray:
    """The n-point inverse's one rounding shift of its integer sums."""
    s = shift(n)
    return (sums + (1 << (s - 1))) >> s


def inverse_transform(coeffs: np.ndarray) -> np.ndarray:
    """Integer residual samples of (..., n, n) dequantized coefficients."""
    return round_shift(inverse_sums(coeffs), np.shape(coeffs)[-1])


def quantize(coeffs: np.ndarray, step: int) -> np.ndarray:
    """Uniform quantizer of integer coefficients by an even integer step,
    round half away from zero; returns int64 levels."""
    if step < 2 or step & 1:
        raise ValueError("step must be even and >= 2")
    c = np.asarray(coeffs, np.int64)
    mag = (np.abs(c) + (step >> 1)) // step
    return np.where(c < 0, -mag, mag)


def quant_step(q_step: int, n: int) -> int:
    """The quantizer step of an n-point TU's coefficients at `q_step`."""
    if q_step < 1:
        raise ValueError("q_step must be >= 1")
    return q_step << shift(n)


def dequantize(levels: np.ndarray, q_step: int) -> np.ndarray:
    return np.asarray(levels, np.int64) * q_step


def transform_quantize(residual: np.ndarray, q_step: int) -> np.ndarray:
    return quantize(forward_transform(residual),
                    quant_step(q_step, np.shape(residual)[-1]))


def reconstruct_residual(levels: np.ndarray, q_step: int) -> np.ndarray:
    return inverse_transform(dequantize(levels, q_step))


@lru_cache(maxsize=None)
def zigzag_order(n: int) -> tuple[tuple[int, int], ...]:
    """(row, col) scan order over an n x n block by anti-diagonals, direction
    alternating as in JPEG."""
    order = []
    for s in range(2 * n - 1):
        diag = [(i, s - i) for i in range(max(0, s - n + 1), min(s, n - 1) + 1)]
        if s % 2 == 0:
            diag.reverse()  # even diagonals run bottom-left to top-right
        order.extend(diag)
    return tuple(order)


@lru_cache(maxsize=None)
def _zigzag_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat raster index of each scan position, and its inverse."""
    fwd = np.array([i * n + j for i, j in zigzag_order(n)], np.intp)
    inv = np.argsort(fwd)
    fwd.flags.writeable = inv.flags.writeable = False
    return fwd, inv


def scan(levels: np.ndarray) -> np.ndarray:
    """(..., n, n) blocks -> (..., n*n) in zig-zag order."""
    levels = np.asarray(levels, np.int64)
    fwd, _ = _zigzag_index(levels.shape[-1])
    return levels.reshape(*levels.shape[:-2], len(fwd)).take(fwd, axis=-1)


def unscan(flat: np.ndarray, n: int) -> np.ndarray:
    """The inverse of `scan`: (..., n*n) -> (..., n, n), of the same integer
    dtype."""
    flat = np.asarray(flat)
    _, inv = _zigzag_index(n)
    return flat.take(inv, axis=-1).reshape(*flat.shape[:-1], n, n)
