"""Patch preparation geometry, box resize, and the synthetic dataset."""

import numpy as np
import pytest

from texcodec.datasets import (NON_TEXTURE, TEXTURE, DatasetConfig,
                               PatchDataset, prepare_patches, resize_area,
                               synthesize_dataset)


# ---------------------------------------------------------------------------
# resize_area


def test_resize_area_divisible_matches_block_means():
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 255, (128, 128, 3))
    out = resize_area(img, 16, 16)
    oracle = img.reshape(16, 8, 16, 8, 3).mean(axis=(1, 3))
    assert np.allclose(out, oracle, atol=1e-9)


def test_resize_area_fractional_matches_upsampled_means():
    # 24 -> 16 has fractional cells; replicate each source pixel 2x and
    # average 3x blocks on the lcm(24,16)=48 grid for an exact oracle
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 255, (24, 24))
    out = resize_area(img, 16, 16)
    up = np.kron(img, np.ones((2, 2)))
    oracle = up.reshape(16, 3, 16, 3).mean(axis=(1, 3))
    assert np.allclose(out, oracle, atol=1e-9)


def test_resize_area_preserves_mean():
    rng = np.random.default_rng(2)
    img = rng.uniform(0, 255, (50, 70))
    assert resize_area(img, 10, 7).mean() == pytest.approx(img.mean())


# ---------------------------------------------------------------------------
# prepare_patches


def test_prepare_patches_texture_crop_counts():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (512, 512, 3), dtype=np.uint8)
    ds = prepare_patches([img], "texture")
    assert len(ds) == 20  # 4 x 256-crops + 16 x 128-crops
    assert np.all(ds.labels == TEXTURE)
    assert ds.patches.shape == (20, 16, 16, 3)


def test_prepare_patches_constant_source_constant_patches():
    img = np.full((512, 512, 3), 77, np.uint8)
    ds = prepare_patches([img], "texture")
    assert np.all(ds.patches == 77)


def test_prepare_patches_non_texture_area_average():
    rng = np.random.default_rng(4)
    img = rng.integers(0, 256, (256, 256, 3), dtype=np.uint8)
    ds = prepare_patches([img], "non_texture")
    assert len(ds) == 1
    oracle = img.astype(np.float64).reshape(16, 16, 16, 16, 3).mean(axis=(1, 3))
    assert np.max(np.abs(ds.patches[0].astype(np.float64) - oracle)) <= 0.5
    assert ds.labels[0] == NON_TEXTURE


def test_prepare_patches_validation():
    with pytest.raises(ValueError, match="smaller"):
        prepare_patches([np.zeros((64, 64, 3), np.uint8)], "texture")
    with pytest.raises(ValueError, match="unknown class"):
        prepare_patches([], "blurry")


def test_prepare_patches_gray_input_promoted():
    img = np.full((128, 128), 50, np.uint8)
    ds = prepare_patches([img], "texture")
    assert ds.patches.shape[-1] == 3


# ---------------------------------------------------------------------------
# synthesize_dataset


def test_synthesize_deterministic():
    cfg = DatasetConfig(n_texture=40, n_non_texture=160)
    a = synthesize_dataset(cfg, seed=5)
    b = synthesize_dataset(cfg, seed=5)
    assert np.array_equal(a.patches, b.patches)
    assert np.array_equal(a.labels, b.labels)
    c = synthesize_dataset(cfg, seed=6)
    assert not np.array_equal(a.patches, c.patches)


def test_default_class_ratio_mirrors_reference_imbalance():
    cfg = DatasetConfig()
    ratio = cfg.n_non_texture / cfg.n_texture
    assert abs(ratio - 20.78) / 20.78 < 0.01  # 36148 / 1740


def test_synthesized_classes_differ_in_high_frequency_energy():
    ds = synthesize_dataset(DatasetConfig(n_texture=60, n_non_texture=60),
                            seed=7)
    gray = ds.patches.astype(np.float64).mean(axis=-1)
    # energy outside the lowest spatial frequencies
    spec = np.abs(np.fft.fft2(gray - gray.mean(axis=(1, 2), keepdims=True)))
    fy = np.abs(np.fft.fftfreq(16))[:, None]
    fx = np.abs(np.fft.fftfreq(16))[None, :]
    high = np.hypot(fx, fy) >= 0.2
    frac = (spec ** 2 * high).sum(axis=(1, 2)) / (spec ** 2).sum(axis=(1, 2))
    tex = frac[ds.labels == TEXTURE].mean()
    non = frac[ds.labels == NON_TEXTURE].mean()
    assert tex > non + 0.2


def test_grating_generator_properties():
    from texcodec.datasets import _grating

    rng = np.random.default_rng(8)
    for _ in range(10):
        g = _grating(rng).mean(axis=-1)
        assert np.all(g.var(axis=1) >= 0) and g.var() > 1.0
        # dominant spatial frequency is not DC and carries a large share
        # of the power (periodic structure)
        power = np.abs(np.fft.fft2(g - g.mean())) ** 2
        power[0, 0] = 0.0
        assert power.max() > 0.1 * power.sum()


# ---------------------------------------------------------------------------
# container


def test_patch_dataset_validation_and_io(tmp_path):
    rng = np.random.default_rng(9)
    ds = PatchDataset(
        patches=rng.integers(0, 256, (5, 16, 16, 3), dtype=np.uint8),
        labels=np.array([0, 1, 0, 1, 1]))
    assert ds.class_counts == (2, 3)
    path = tmp_path / "d.npz"
    ds.save_npz(path)
    back = PatchDataset.load_npz(path)
    assert np.array_equal(ds.patches, back.patches)
    assert np.array_equal(ds.labels, back.labels)
    with pytest.raises(ValueError):
        PatchDataset(patches=np.zeros((2, 8, 8, 3), np.uint8),
                     labels=np.zeros(2))
    with pytest.raises(ValueError):
        PatchDataset(patches=np.zeros((2, 16, 16, 3), np.float32),
                     labels=np.zeros(2))
    with pytest.raises(ValueError):
        PatchDataset(patches=np.zeros((2, 16, 16, 3), np.uint8),
                     labels=np.zeros(3))
