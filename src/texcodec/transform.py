"""Residual transform coding: orthonormal 2-D DCT-II, uniform quantization
and zig-zag scan orders.  The transforms and scans act on the last two axes,
so a stack of blocks is coded in one call.

Quantization uses a direct step mapping (q_step = q_level) and rounds half
away from zero.  The per-coefficient reconstruction error is bounded by
q_step/2; the spatial-domain error after the inverse transform can exceed
that bound because coefficient errors superpose.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.fft import dctn, idctn


def forward_transform(residual: np.ndarray) -> np.ndarray:
    return dctn(residual.astype(np.float64), norm="ortho", axes=(-2, -1))


def inverse_transform(coeffs: np.ndarray) -> np.ndarray:
    """Inverse DCT rounded to integer residual samples."""
    return np.rint(idctn(np.asarray(coeffs, np.float64), norm="ortho",
                         axes=(-2, -1))).astype(np.int64)


def quantize(coeffs: np.ndarray, q_step: int) -> np.ndarray:
    """Uniform quantizer, round half away from zero; returns integer levels."""
    if q_step < 1:
        raise ValueError("q_step must be >= 1")
    c = np.asarray(coeffs, np.float64)
    return (np.sign(c) * np.floor(np.abs(c) / q_step + 0.5)).astype(np.int64)


def dequantize(levels: np.ndarray, q_step: int) -> np.ndarray:
    return np.asarray(levels, np.int64) * q_step


def transform_quantize(residual: np.ndarray, q_step: int) -> np.ndarray:
    return quantize(forward_transform(residual), q_step)


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
    return levels.reshape(*levels.shape[:-2], -1).take(fwd, axis=-1)


def unscan(flat: np.ndarray, n: int) -> np.ndarray:
    """The inverse of `scan`: (..., n*n) -> (..., n, n)."""
    flat = np.asarray(flat, np.int64)
    _, inv = _zigzag_index(n)
    return flat.take(inv, axis=-1).reshape(*flat.shape[:-1], n, n)
