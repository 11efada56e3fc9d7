"""Texture segmentation: training loop behavior, per-frame classification,
mask post-processing and mask file I/O."""

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from conftest import SMALL_SPEC
from texcodec.analyzer import (TextureMask, all_texture_mask, balanced_accuracy,
                               clean_mask, frame_to_rgb,
                               inverse_frequency_weights, load_mask,
                               mask_filename, predict_labels,
                               preprocess_patches, save_mask, segment_frame,
                               train_classifier)
from texcodec.datasets import NON_TEXTURE, TEXTURE, PatchDataset
from texcodec.frames import Frame
from texcodec.nnet import NetSpec, TrainConfig


def _flat_vs_noise_dataset(n_per_class=120, seed=0):
    """Linearly separable toy set: flat gray patches vs strong noise."""
    rng = np.random.default_rng(seed)
    flat = np.full((n_per_class, 16, 16, 3),
                   rng.integers(40, 215, (n_per_class, 1, 1, 1)), np.uint8)
    noise = rng.integers(0, 256, (n_per_class, 16, 16, 3)).astype(np.uint8)
    return PatchDataset(
        patches=np.concatenate([flat, noise]),
        labels=np.concatenate([np.full(n_per_class, NON_TEXTURE),
                               np.full(n_per_class, TEXTURE)]))


def _gray_frame(y_plane, index=0):
    h, w = y_plane.shape
    return Frame(y=y_plane,
                 uv=np.stack((np.full((h // 2, w // 2), 128, np.uint8),
                              np.full((h // 2, w // 2), 128, np.uint8))),
                 frame_index=index)


# ---------------------------------------------------------------------------
# training


def test_inverse_frequency_weights_reference_imbalance():
    labels = np.concatenate([np.full(36148, NON_TEXTURE),
                             np.full(1740, TEXTURE)])
    w = inverse_frequency_weights(labels)
    assert w[0] == pytest.approx(1.0)
    assert w[1] == pytest.approx(36148 / 1740)
    assert w[1] == pytest.approx(20.78, abs=0.01)


def test_inverse_frequency_weights_needs_both_classes():
    from texcodec.analyzer import TrainingError
    with pytest.raises(TrainingError):
        inverse_frequency_weights(np.zeros(10, np.int64))


def test_train_separable_toy_set():
    ds = _flat_vs_noise_dataset()
    cfg = TrainConfig(batch_size=32, epochs=10, rng_seed=0)
    net, log = train_classifier(ds, cfg,
                                spec=NetSpec(conv_channels=(8,), fc_sizes=(16,)))
    assert any(e["train_accuracy"] >= 0.99 for e in log)


def test_train_zero_epochs():
    ds = _flat_vs_noise_dataset(20)
    net, log = train_classifier(ds, TrainConfig(epochs=0), spec=SMALL_SPEC)
    assert log == []
    assert net is not None


def test_train_deterministic():
    ds = _flat_vs_noise_dataset(40, seed=1)
    cfg = TrainConfig(batch_size=16, epochs=2, rng_seed=3)
    spec = NetSpec(conv_channels=(4,), fc_sizes=(8,))
    net1, log1 = train_classifier(ds, cfg, spec=spec)
    net2, log2 = train_classifier(ds, cfg, spec=spec)
    assert log1 == log2
    for (_, a), (_, b) in zip(net1.state_items(), net2.state_items()):
        assert np.array_equal(a, b)


def test_train_rejects_single_class():
    from texcodec.analyzer import TrainingError
    ds = PatchDataset(patches=np.zeros((10, 16, 16, 3), np.uint8),
                      labels=np.zeros(10))
    with pytest.raises(TrainingError):
        train_classifier(ds, TrainConfig(epochs=1), spec=SMALL_SPEC)


def test_train_eval_consistency(trained_net, small_dataset):
    """Accuracy from segment-style eval forwards equals the training loop's
    own eval pass on the same samples."""
    x = preprocess_patches(small_dataset.patches[:256])
    y = small_dataset.labels[:256]
    pred1 = predict_labels(trained_net, x)
    pred2 = trained_net.predict_probs(x).argmax(axis=1)
    assert np.array_equal(pred1, pred2)
    assert balanced_accuracy(pred1, y) == balanced_accuracy(pred2, y)


# ---------------------------------------------------------------------------
# frame classification


def test_segment_grid_shape(trained_net):
    rng = np.random.default_rng(0)
    f = _gray_frame(rng.integers(0, 256, (32, 32), dtype=np.uint8))
    mask = segment_frame(f, trained_net)
    assert (mask.grid_h, mask.grid_w) == (2, 2)


def test_segment_pads_to_grid(trained_net):
    rng = np.random.default_rng(1)
    f = Frame(y=rng.integers(0, 256, (18, 33), dtype=np.uint8),
              uv=np.stack((rng.integers(0, 256, (9, 17), dtype=np.uint8),
                           rng.integers(0, 256, (9, 17), dtype=np.uint8))))
    mask = segment_frame(f, trained_net)
    assert (mask.grid_h, mask.grid_w) == (2, 3)  # padded 32x48


def test_segment_constant_frame_all_non_texture(trained_net):
    f = _gray_frame(np.full((48, 48), 128, np.uint8))
    mask = segment_frame(f, trained_net)
    assert np.all(mask.labels == NON_TEXTURE)


def test_segment_threshold_one(trained_net):
    rng = np.random.default_rng(2)
    f = _gray_frame(rng.integers(0, 256, (32, 32), dtype=np.uint8))
    mask = segment_frame(f, trained_net, threshold=1.0)
    assert np.all((mask.labels == TEXTURE) == (mask.probs >= 1.0))


def test_segment_identical_blocks_get_identical_cells(trained_net):
    rng = np.random.default_rng(3)
    block_a = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    block_b = gaussian_filter(rng.integers(0, 256, (16, 16)), 2).astype(np.uint8)
    y = np.zeros((32, 32), np.uint8)
    y[0:16, 0:16] = block_a
    y[16:32, 16:32] = block_a
    y[0:16, 16:32] = block_b
    y[16:32, 0:16] = block_b
    mask = segment_frame(_gray_frame(y), trained_net)
    assert mask.probs[0, 0] == mask.probs[1, 1]
    assert mask.probs[0, 1] == mask.probs[1, 0]


def test_frame_to_rgb_gray_frame_is_achromatic():
    y = np.arange(256, dtype=np.uint8).reshape(16, 16)
    rgb = frame_to_rgb(_gray_frame(y))
    assert np.allclose(rgb[..., 0], rgb[..., 1], atol=1e-4)
    assert np.allclose(rgb[..., 1], rgb[..., 2], atol=1e-4)
    assert np.allclose(rgb[..., 0], y, atol=1e-4)


# ---------------------------------------------------------------------------
# clean_mask


def _mask_from_labels(labels):
    labels = np.asarray(labels, np.uint8)
    return TextureMask(labels=labels, probs=labels.astype(np.float32))


def _flood_fill_oracle(labels, min_blocks):
    """Brute-force 4-connected component relabeling."""
    labels = np.asarray(labels, np.uint8).copy()
    h, w = labels.shape
    seen = np.zeros_like(labels, bool)
    for sy in range(h):
        for sx in range(w):
            if labels[sy, sx] != TEXTURE or seen[sy, sx]:
                continue
            stack, comp = [(sy, sx)], []
            seen[sy, sx] = True
            while stack:
                y, x = stack.pop()
                comp.append((y, x))
                for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ny, nx = y + dy, x + dx
                    if (0 <= ny < h and 0 <= nx < w and not seen[ny, nx]
                            and labels[ny, nx] == TEXTURE):
                        seen[ny, nx] = True
                        stack.append((ny, nx))
            if len(comp) < min_blocks:
                for y, x in comp:
                    labels[y, x] = NON_TEXTURE
    return labels


def test_clean_mask_min_zero_is_identity():
    m = _mask_from_labels([[1, 0], [0, 1]])
    out = clean_mask(m, 0)
    assert np.array_equal(out.labels, m.labels)


def test_clean_mask_isolated_cell_flipped():
    labels = np.zeros((4, 4), np.uint8)
    labels[1, 1] = TEXTURE
    out = clean_mask(_mask_from_labels(labels), 2)
    assert np.all(out.labels == NON_TEXTURE)


def test_clean_mask_diagonal_not_connected():
    labels = np.zeros((4, 4), np.uint8)
    labels[1, 1] = labels[2, 2] = TEXTURE
    out = clean_mask(_mask_from_labels(labels), 2)
    assert np.all(out.labels == NON_TEXTURE)
    assert np.array_equal(out.labels, _flood_fill_oracle(labels, 2))


def test_clean_mask_matches_flood_fill_oracle_randomized():
    rng = np.random.default_rng(4)
    for _ in range(25):
        labels = (rng.random((8, 10)) < 0.45).astype(np.uint8) * TEXTURE
        for mn in (2, 3, 5):
            out = clean_mask(_mask_from_labels(labels), mn)
            assert np.array_equal(out.labels, _flood_fill_oracle(labels, mn))


def test_clean_mask_idempotent_and_monotone():
    rng = np.random.default_rng(5)
    labels = (rng.random((6, 6)) < 0.5).astype(np.uint8) * TEXTURE
    m = _mask_from_labels(labels)
    once = clean_mask(m, 3)
    twice = clean_mask(once, 3)
    assert np.array_equal(once.labels, twice.labels)
    assert np.sum(once.labels == TEXTURE) <= np.sum(labels == TEXTURE)
    assert np.array_equal(once.probs, m.probs)
    with pytest.raises(ValueError):
        clean_mask(m, -1)


# ---------------------------------------------------------------------------
# mask files


def test_mask_filename_format():
    assert mask_filename("clip", 7) == "clip.mask.0007.pgm"


def test_mask_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    labels = (rng.random((3, 5)) < 0.5).astype(np.uint8) * TEXTURE
    probs = rng.random((3, 5)).astype(np.float32)
    m = TextureMask(labels=labels, probs=probs, frame_index=2)
    path = tmp_path / mask_filename("seq", 2)
    save_mask(m, path)
    back = load_mask(path, frame_index=2)
    assert np.array_equal(back.labels, labels)
    assert np.allclose(back.probs, probs, atol=1e-6)
    assert back.frame_index == 2
    # without the sidecar, probs degrade to the labels
    path.with_suffix(".probs.txt").unlink()
    back2 = load_mask(path)
    assert np.array_equal(back2.labels, labels)


def test_load_mask_rejects_non_pgm(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
    with pytest.raises(ValueError, match="P5"):
        load_mask(p)


def test_texture_mask_validation():
    with pytest.raises(ValueError):
        TextureMask(labels=np.zeros((2, 2), np.uint8),
                    probs=np.zeros((3, 2), np.float32))
    m = all_texture_mask(2, 3)
    assert (m.grid_h, m.grid_w) == (2, 3)
