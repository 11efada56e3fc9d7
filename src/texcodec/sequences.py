"""Synthetic test sequences: procedural content with known texture layout.

Used by the demos and the verification suite; every generator is
deterministic for a fixed seed and returns ground-truth masks on the padded
16x16 grid alongside the frames.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import gaussian_filter

from .analyzer import TextureMask
from .datasets import NON_TEXTURE, TEXTURE
from .frames import BLOCK, Frame, Sequence, pad16


def _noise_texture(rng, *shape, sigma=1.0, contrast=70.0):
    """Smoothed noise of `shape`, each (h, w) plane scaled on its own."""
    g = gaussian_filter(rng.normal(0.0, 1.0, shape), sigma, axes=(-2, -1))
    std = g.std(axis=(-2, -1), keepdims=True)
    return np.clip(128 + contrast * g / std, 0, 255).astype(np.uint8)


def random_sequence(width: int, height: int, n_frames: int,
                    seed: int = 0) -> Sequence:
    """Frames of a horizontally panning random-texture canvas; exercises the
    codec without any particular structure."""
    rng = np.random.default_rng(seed)
    span = width + 2 * n_frames + 8
    y = _noise_texture(rng, height, span, sigma=rng.uniform(0.6, 1.6))
    uv = rng.integers(90, 166, (2, (height + 1) // 2,
                                (span + 1) // 2)).astype(np.uint8)
    out = []
    for i in range(n_frames):
        o = 2 * i
        out.append(Frame(y=y[:, o:o + width],
                         uv=uv[:, :, o // 2:o // 2 + (width + 1) // 2],
                         frame_index=i))
    return Sequence(frames=tuple(out))


def panning_texture_sequence(width: int = 128, height: int = 96,
                             n_frames: int = 64, pan_per_frame: int = 2,
                             seed: int = 0):
    """Textured background translating `pan_per_frame` px/frame behind a
    static smooth foreground blob.

    Returns (Sequence, masks): one ground-truth TextureMask per frame on the
    padded grid, texture cells being those whose 16x16 block lies entirely
    in the background.
    """
    rng = np.random.default_rng(seed)
    span = width + pan_per_frame * n_frames + 4
    bg_y = _noise_texture(rng, height, span, sigma=0.9)
    bg_uv = _noise_texture(rng, 2, (height + 1) // 2,
                           (span + 1) // 2 + n_frames, sigma=1.2, contrast=25.0)

    # static smooth foreground: soft-edged ellipse with a gradient fill
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    cx, cy = width * 0.5, height * 0.55
    rx, ry = width * 0.18, height * 0.28
    d = ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2
    fg_mask = d <= 1.0
    fg_y = np.clip(60 + 120 * (yy / height), 0, 255)

    pw, ph = pad16(width), pad16(height)
    gh, gw = ph // BLOCK, pw // BLOCK
    cell_is_texture = np.ones((gh, gw), np.uint8) * TEXTURE
    for gy in range(gh):
        for gx in range(gw):
            y0, x0 = gy * BLOCK, gx * BLOCK
            block = fg_mask[y0:min(y0 + BLOCK, height),
                            x0:min(x0 + BLOCK, width)]
            if block.size and block.any():
                cell_is_texture[gy, gx] = NON_TEXTURE

    frames_out, masks = [], []
    for i in range(n_frames):
        o = pan_per_frame * i
        y = bg_y[:, o:o + width].copy()
        y[fg_mask] = fg_y[fg_mask]
        co = o // 2
        uv = bg_uv[:, :, co:co + (width + 1) // 2].copy()
        fg2 = fg_mask[::2, ::2]
        uv[0, fg2], uv[1, fg2] = 110, 140
        frames_out.append(Frame(y=y, uv=uv, frame_index=i))
        masks.append(TextureMask(
            labels=cell_is_texture.copy(),
            probs=cell_is_texture.astype(np.float32),
            frame_index=i,
        ))
    return Sequence(frames=tuple(frames_out)), masks
