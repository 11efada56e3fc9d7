"""Per-frame texture segmentation: training loop, block classification and
mask post-processing / file I/O.

Classification works on RGB: video frames are converted from YUV (BT.601
full range, chroma upsampled by pixel replication) before the 16x16 blocks
are fed to the network.  Mask files are 1-byte-per-cell PGM thumbnails
(255 = texture) with a plain-text probability sidecar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .datasets import NON_TEXTURE, TEXTURE, PatchDataset
from .frames import BLOCK, Frame, pad_frame
from .nnet import Net, NetSpec, SGD, TrainConfig, cross_entropy_weighted, softmax

VAL_FRACTION = 0.1  # share of the dataset held out for validation
_EVAL_BATCH = 2048  # samples per eval-mode forward pass


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TextureMask:
    """Grid of 16x16 block labels (1 = texture) with classifier scores."""

    labels: np.ndarray  # (grid_h, grid_w) uint8
    probs: np.ndarray   # (grid_h, grid_w) float32, texture-class probability
    frame_index: int = 0

    def __post_init__(self):
        l = np.ascontiguousarray(self.labels, dtype=np.uint8)
        p = np.ascontiguousarray(self.probs, dtype=np.float32)
        if l.shape != p.shape or l.ndim != 2:
            raise ValueError("labels/probs must be matching 2-D grids")
        l.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "labels", l)
        object.__setattr__(self, "probs", p)

    @property
    def grid_w(self):
        return self.labels.shape[1]

    @property
    def grid_h(self):
        return self.labels.shape[0]


def all_texture_mask(grid_h: int, grid_w: int, frame_index: int = 0,
                     texture: bool = True) -> TextureMask:
    v = TEXTURE if texture else NON_TEXTURE
    return TextureMask(
        labels=np.full((grid_h, grid_w), v, np.uint8),
        probs=np.full((grid_h, grid_w), float(v), np.float32),
        frame_index=frame_index,
    )


# ---------------------------------------------------------------------------
# color conversion and patch preprocessing


def frame_to_rgb(frame: Frame) -> np.ndarray:
    """Full-range BT.601 YUV -> RGB, (H, W, 3) float32 in [0, 255].
    Chroma is upsampled by 2x pixel replication."""
    y = frame.y.astype(np.float32)
    uv = frame.uv.repeat(2, axis=1).repeat(2, axis=2)[:, : y.shape[0], : y.shape[1]]
    u, v = uv.astype(np.float32) - 128.0
    r = y + 1.402 * v
    g = y - 0.344136 * u - 0.714136 * v
    b = y + 1.772 * u
    return np.clip(np.stack([r, g, b], axis=-1), 0.0, 255.0)


def preprocess_patches(patches: np.ndarray) -> np.ndarray:
    """(N, 16, 16, 3) samples in [0,255] -> (N, 3, 16, 16) float32 in [0,1]."""
    x = np.asarray(patches, dtype=np.float32) / 255.0
    return np.ascontiguousarray(x.transpose(0, 3, 1, 2))


# ---------------------------------------------------------------------------
# training


def inverse_frequency_weights(labels: np.ndarray) -> tuple[float, float]:
    """Per-class weights proportional to inverse class frequency, scaled so
    the majority class has weight 1."""
    counts = np.array([np.sum(labels == NON_TEXTURE), np.sum(labels == TEXTURE)],
                      dtype=np.float64)
    if np.any(counts == 0):
        raise TrainingError("dataset must contain both classes")
    return tuple(counts.max() / counts)


def balanced_accuracy(pred: np.ndarray, labels: np.ndarray) -> float:
    accs = []
    for c in (NON_TEXTURE, TEXTURE):
        sel = labels == c
        if np.any(sel):
            accs.append(float(np.mean(pred[sel] == c)))
    return float(np.mean(accs))


def train_classifier(dataset: PatchDataset, cfg: TrainConfig,
                     spec: NetSpec | None = None,
                     target_val_accuracy: float | None = None):
    """Train the block classifier; returns (net, per-epoch log).

    The set is reshuffled before each epoch; the last mini-batch is kept
    unless it has a single sample (batchnorm needs >= 2).  If
    `target_val_accuracy` is given, training stops at the first epoch whose
    balanced validation accuracy reaches it.
    """
    counts = dataset.class_counts
    if 0 in counts:
        raise TrainingError("dataset must contain both classes")
    rng = np.random.default_rng(cfg.rng_seed)
    net = Net(spec or NetSpec(), rng=rng)

    n = len(dataset)
    order = rng.permutation(n)
    n_val = int(round(n * VAL_FRACTION))
    val_idx, train_idx = order[:n_val], order[n_val:]
    x_all = preprocess_patches(dataset.patches)
    y_all = dataset.labels
    weights = np.asarray(inverse_frequency_weights(y_all[train_idx]))

    opt = SGD(net, cfg)
    log = []
    for epoch in range(cfg.epochs):
        perm = train_idx[rng.permutation(len(train_idx))]
        losses, hits, seen = [], 0, 0
        for start in range(0, len(perm), cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            if len(idx) < 2:
                continue
            x, y = x_all[idx], y_all[idx]
            logits = net.forward(x, train=True, rng=rng)
            probs = softmax(logits)
            loss, dlogits = cross_entropy_weighted(probs, y, weights)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            net.backward(dlogits)
            opt.step()
            losses.append(loss)
            hits += int(np.sum(probs.argmax(axis=1) == y))
            seen += len(idx)
        entry = {
            "epoch": epoch,
            "train_loss": float(np.mean(losses)) if losses else float("nan"),
            "train_accuracy": hits / seen if seen else float("nan"),
        }
        if len(val_idx):
            pred = predict_labels(net, x_all[val_idx])
            entry["val_balanced_accuracy"] = balanced_accuracy(pred, y_all[val_idx])
        log.append(entry)
        if (target_val_accuracy is not None and len(val_idx)
                and entry["val_balanced_accuracy"] >= target_val_accuracy):
            break
    return net, log


def _predict_probs(net: Net, x: np.ndarray) -> np.ndarray:
    """Eval-mode class probabilities of `x`, _EVAL_BATCH samples per pass."""
    probs = np.empty((len(x), net.spec.n_classes))
    for start in range(0, len(x), _EVAL_BATCH):
        probs[start:start + _EVAL_BATCH] = net.predict_probs(
            x[start:start + _EVAL_BATCH])
    return probs


def predict_labels(net: Net, x: np.ndarray) -> np.ndarray:
    return _predict_probs(net, x).argmax(axis=1)


# ---------------------------------------------------------------------------
# inference on frames


def segment_frame(frame: Frame, net: Net, threshold: float = 0.5) -> TextureMask:
    """Classify every 16x16 block of a (padded) frame in eval mode."""
    frame = pad_frame(frame)
    gh, gw = frame.height // BLOCK, frame.width // BLOCK
    rgb = frame_to_rgb(frame)
    cells = (
        rgb.reshape(gh, BLOCK, gw, BLOCK, 3)
        .transpose(0, 2, 1, 3, 4)
        .reshape(gh * gw, BLOCK, BLOCK, 3)
    )
    probs = _predict_probs(net, preprocess_patches(cells))[:, TEXTURE]
    probs = probs.astype(np.float32).reshape(gh, gw)
    return TextureMask(
        labels=(probs >= threshold).astype(np.uint8) * TEXTURE,
        probs=probs,
        frame_index=frame.frame_index,
    )


def clean_mask(mask: TextureMask, min_region_blocks: int) -> TextureMask:
    """Relabel 4-connected texture components smaller than the minimum as
    non-texture.  Idempotent; probabilities are untouched."""
    if min_region_blocks < 0:
        raise ValueError("min_region_blocks must be >= 0")
    if min_region_blocks <= 1:
        return mask
    comp, n = ndimage.label(mask.labels == TEXTURE)
    labels = mask.labels.copy()
    for i in range(1, n + 1):
        sel = comp == i
        if np.sum(sel) < min_region_blocks:
            labels[sel] = NON_TEXTURE
    return TextureMask(labels=labels, probs=mask.probs,
                       frame_index=mask.frame_index)


# ---------------------------------------------------------------------------
# mask files


def mask_filename(stem: str, frame_index: int) -> str:
    return f"{stem}.mask.{frame_index:04d}.pgm"


_PGM_RE = re.compile(rb"^P5\s+(\d+)\s+(\d+)\s+(\d+)\s", re.S)


def save_mask(mask: TextureMask, path) -> None:
    path = Path(path)
    data = np.where(mask.labels == TEXTURE, 255, 0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{mask.grid_w} {mask.grid_h}\n255\n".encode())
        f.write(data.tobytes())
    with open(path.with_suffix(".probs.txt"), "w") as f:
        for row in mask.probs:
            f.write(" ".join(f"{p:.6f}" for p in row) + "\n")


def load_mask(path, frame_index: int = 0) -> TextureMask:
    path = Path(path)
    raw = path.read_bytes()
    m = _PGM_RE.match(raw)
    if not m:
        raise ValueError(f"{path}: not a raw (P5) PGM file")
    gw, gh, maxval = (int(g) for g in m.groups())
    if maxval != 255:
        raise ValueError(f"{path}: expected maxval 255")
    data = np.frombuffer(raw, np.uint8, count=gw * gh, offset=m.end())
    labels = (data.reshape(gh, gw) >= 128).astype(np.uint8) * TEXTURE
    sidecar = path.with_suffix(".probs.txt")
    if sidecar.exists():
        probs = np.loadtxt(sidecar, dtype=np.float32, ndmin=2)
        if probs.shape != (gh, gw):
            raise ValueError(f"{sidecar}: probability grid shape mismatch")
    else:
        probs = labels.astype(np.float32)
    return TextureMask(labels=labels, probs=probs, frame_index=frame_index)
