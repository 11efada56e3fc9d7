"""Training-patch preparation and the synthetic desk-scale dataset.

Real corpora (pure-texture photographs, general scene images) are out of
scope; `synthesize_dataset` stands in with procedural generators whose class
boundary matches the intent: texture patches keep high-frequency content at
16x16, non-texture patches are smooth, flat, or so heavily downscaled that
any texture is destroyed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.ndimage import gaussian_filter

PATCH = 16

NON_TEXTURE = 0
TEXTURE = 1


@dataclass(frozen=True)
class PatchDataset:
    """RGB patches (N, 16, 16, 3) uint8 with labels (1=texture)."""

    patches: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        p, l = np.asarray(self.patches), np.asarray(self.labels)
        if p.ndim != 4 or p.shape[1:] != (PATCH, PATCH, 3):
            raise ValueError(f"patches must be (N,16,16,3), got {p.shape}")
        if p.dtype != np.uint8:
            raise ValueError("patches must be uint8")
        if l.shape != (p.shape[0],):
            raise ValueError("labels length mismatch")
        object.__setattr__(self, "patches", p)
        object.__setattr__(self, "labels", l.astype(np.int64))

    def __len__(self):
        return self.patches.shape[0]

    @property
    def class_counts(self) -> tuple[int, int]:
        """(non-texture count, texture count)."""
        return (
            int(np.sum(self.labels == NON_TEXTURE)),
            int(np.sum(self.labels == TEXTURE)),
        )

    def save_npz(self, path):
        np.savez_compressed(path, patches=self.patches, labels=self.labels)

    @classmethod
    def load_npz(cls, path):
        with np.load(path) as z:
            return cls(patches=z["patches"], labels=z["labels"])


# ---------------------------------------------------------------------------
# exact area-average (box) resize


@lru_cache(maxsize=64)
def _area_matrix(n: int, m: int) -> np.ndarray:
    """Row-stochastic (m, n) matrix averaging n samples into m cells."""
    w = np.zeros((m, n))
    scale = n / m
    for i in range(m):
        lo, hi = i * scale, (i + 1) * scale
        j0, j1 = int(np.floor(lo)), int(np.ceil(hi))
        for j in range(j0, min(j1, n)):
            w[i, j] = min(hi, j + 1) - max(lo, j)
    return w / scale


def resize_area(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Exact box-filter resize of (H, W) or (H, W, C) data; returns float64."""
    img = np.asarray(img, dtype=np.float64)
    mh = _area_matrix(img.shape[0], out_h)
    mw = _area_matrix(img.shape[1], out_w)
    if img.ndim == 2:
        return mh @ img @ mw.T
    return np.tensordot(np.tensordot(mh, img, axes=(1, 0)), mw.T, axes=(1, 0)
                        ).transpose(0, 2, 1)


def _to_u8(img: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def prepare_patches(images, cls: str) -> PatchDataset:
    """Turn source RGB images into labeled 16x16 patches.

    Texture sources are cut into non-overlapping 256x256 and 128x128 crops,
    each box-resized to 16x16 (a 512x512 source yields 4 + 16 = 20 patches).
    Non-texture sources are resized whole to 16x16, destroying any fine
    texture they contain.
    """
    if cls not in ("texture", "non_texture"):
        raise ValueError(f"unknown class {cls!r}")
    out = []
    for img in images:
        img = np.asarray(img)
        if img.ndim == 2:
            img = np.stack([img] * 3, axis=-1)
        h, w = img.shape[:2]
        if cls == "non_texture":
            out.append(_to_u8(resize_area(img, PATCH, PATCH)))
            continue
        if h < 128 or w < 128:
            raise ValueError(f"texture source {w}x{h} smaller than 128x128")
        for crop in (256, 128):
            for i in range(h // crop):
                for j in range(w // crop):
                    tile = img[i * crop:(i + 1) * crop, j * crop:(j + 1) * crop]
                    out.append(_to_u8(resize_area(tile, PATCH, PATCH)))
    label = TEXTURE if cls == "texture" else NON_TEXTURE
    return PatchDataset(
        patches=np.stack(out) if out else np.zeros((0, 16, 16, 3), np.uint8),
        labels=np.full(len(out), label, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# procedural generators

# The printed counts mirror the reference corpus imbalance (about 1:20.8).
@dataclass(frozen=True)
class DatasetConfig:
    n_texture: int = 1740
    n_non_texture: int = 36148


def _contrast(img, rng, lo=25.0, hi=60.0):
    """Normalize a raw pattern to a random mean/contrast in 8-bit range."""
    img = img - img.mean()
    std = img.std()
    if std < 1e-9:
        std = 1.0
    img = img / std * rng.uniform(lo, hi) + rng.uniform(70.0, 185.0)
    return img


def _colorize(gray, rng):
    """Spread a gray pattern over RGB with correlated per-channel gains."""
    gains = rng.uniform(0.75, 1.25, size=3)
    offs = rng.uniform(-15.0, 15.0, size=3)
    return gray[..., None] * gains + offs


def _grating(rng):
    f = rng.uniform(2.0, 8.0)
    theta = rng.uniform(0, np.pi)
    phase = rng.uniform(0, 2 * np.pi)
    yy, xx = np.mgrid[0:PATCH, 0:PATCH]
    g = np.sin(2 * np.pi * f * (xx * np.cos(theta) + yy * np.sin(theta)) / PATCH
               + phase)
    return _colorize(_contrast(g, rng), rng)


def _checkerboard(rng):
    cell = int(rng.integers(1, 5))
    ox, oy = rng.integers(0, cell, size=2)
    yy, xx = np.mgrid[0:PATCH, 0:PATCH]
    g = (((xx + ox) // cell + (yy + oy) // cell) % 2).astype(float)
    g = g * 2 - 1
    return _colorize(_contrast(g, rng, 30.0, 70.0), rng)


def _band_noise(rng):
    spec = np.fft.fft2(rng.standard_normal((PATCH, PATCH)))
    fy = np.fft.fftfreq(PATCH)[:, None]
    fx = np.fft.fftfreq(PATCH)[None, :]
    r = np.hypot(fx, fy)
    lo = rng.uniform(0.12, 0.25)
    keep = r >= lo
    g = np.real(np.fft.ifft2(spec * keep))
    return _colorize(_contrast(g, rng), rng)


def _filtered_noise(rng):
    g = gaussian_filter(rng.standard_normal((PATCH, PATCH)),
                        sigma=rng.uniform(0.4, 1.0), mode="wrap")
    return _colorize(_contrast(g, rng), rng)


def _random_phase(rng):
    fy = np.fft.fftfreq(PATCH)[:, None]
    fx = np.fft.fftfreq(PATCH)[None, :]
    r = np.hypot(fx, fy)
    r[0, 0] = 1.0
    mag = r ** rng.uniform(-0.8, -0.1)
    phase = rng.uniform(0, 2 * np.pi, size=(PATCH, PATCH))
    g = np.real(np.fft.ifft2(mag * np.exp(1j * phase)))
    return _colorize(_contrast(g, rng), rng)


_TEXTURE_GENS = (_grating, _checkerboard, _band_noise, _filtered_noise,
                 _random_phase)


def _linear_gradient(rng):
    theta = rng.uniform(0, 2 * np.pi)
    yy, xx = np.mgrid[0:PATCH, 0:PATCH]
    t = (xx * np.cos(theta) + yy * np.sin(theta)) / PATCH
    t = (t - t.min()) / max(t.max() - t.min(), 1e-9)
    c0 = rng.uniform(20, 235, size=3)
    c1 = rng.uniform(20, 235, size=3)
    return c0 + t[..., None] * (c1 - c0)


def _radial_gradient(rng):
    cy, cx = rng.uniform(-4, PATCH + 4, size=2)
    yy, xx = np.mgrid[0:PATCH, 0:PATCH]
    t = np.hypot(xx - cx, yy - cy)
    t = t / max(t.max(), 1e-9)
    c0 = rng.uniform(20, 235, size=3)
    c1 = rng.uniform(20, 235, size=3)
    return c0 + t[..., None] * (c1 - c0)


def _flat_with_feature(rng):
    img = np.full((PATCH, PATCH, 3), rng.uniform(20, 235, size=3))
    kind = rng.integers(0, 3)
    other = rng.uniform(20, 235, size=3)
    yy, xx = np.mgrid[0:PATCH, 0:PATCH]
    if kind == 0:  # straight edge
        theta = rng.uniform(0, np.pi)
        off = rng.uniform(2, PATCH - 2)
        mask = (xx * np.cos(theta) + yy * np.sin(theta)) > off * max(
            np.cos(theta) + np.sin(theta), 0.3)
        img[mask] = other
    elif kind == 1:  # small rectangle
        x0, y0 = rng.integers(0, PATCH - 4, size=2)
        w, h = rng.integers(3, 9, size=2)
        img[y0:y0 + h, x0:x0 + w] = other
    else:  # ellipse
        cy, cx = rng.uniform(3, PATCH - 3, size=2)
        ry, rx = rng.uniform(2, 6, size=2)
        mask = ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1
        img[mask] = other
    if rng.random() < 0.5:
        img = gaussian_filter(img, sigma=(rng.uniform(0.5, 1.2),) * 2 + (0,))
    return img


def _composite_scene(rng):
    big = np.empty((128, 128, 3))
    # a few vertically stacked regions of flat color or gradient
    splits = np.sort(rng.integers(16, 112, size=rng.integers(1, 4)))
    edges = np.concatenate([[0], splits, [128]])
    for a, b in zip(edges[:-1], edges[1:]):
        c0 = rng.uniform(10, 245, size=3)
        c1 = rng.uniform(10, 245, size=3)
        t = np.linspace(0, 1, b - a)[:, None, None]
        big[a:b] = c0 + t * (c1 - c0)
    for _ in range(rng.integers(0, 4)):  # sparse foreground shapes
        x0, y0 = rng.integers(0, 100, size=2)
        w, h = rng.integers(8, 28, size=2)
        big[y0:y0 + h, x0:x0 + w] = rng.uniform(10, 245, size=3)
    return resize_area(big, PATCH, PATCH)


_NON_TEXTURE_GENS = (_linear_gradient, _radial_gradient, _flat_with_feature,
                     _composite_scene)


def synthesize_dataset(config: DatasetConfig | None = None,
                       seed: int = 0) -> PatchDataset:
    """Procedural stand-in dataset; deterministic for a fixed seed."""
    if config is None:
        config = DatasetConfig()
    rng = np.random.default_rng(seed)
    patches = np.empty((config.n_texture + config.n_non_texture, PATCH, PATCH, 3),
                       dtype=np.uint8)
    labels = np.empty(len(patches), dtype=np.int64)
    for i in range(config.n_texture):
        gen = _TEXTURE_GENS[rng.integers(0, len(_TEXTURE_GENS))]
        patches[i] = _to_u8(gen(rng))
        labels[i] = TEXTURE
    for i in range(config.n_non_texture):
        gen = _NON_TEXTURE_GENS[rng.integers(0, len(_NON_TEXTURE_GENS))]
        img = gen(rng)
        img = img + rng.normal(0.0, rng.uniform(0.0, 1.5), size=img.shape)
        patches[config.n_texture + i] = _to_u8(img)
        labels[config.n_texture + i] = NON_TEXTURE
    # interleave classes deterministically so batches stay mixed
    order = rng.permutation(len(patches))
    return PatchDataset(patches=patches[order], labels=labels[order])
