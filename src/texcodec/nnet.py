"""Minimal NN kernel for the 16x16 block classifier.

Exactly the layer set the classifier needs: 3x3 pad-1 convolution, batch
normalization, ReLU, 2x2 max pooling, fully connected, inverted dropout and
softmax, each with an analytic backward pass, plus classic momentum SGD and a
binary weight-file format ("TXNN").  Everything runs on plain numpy arrays;
float64 mode exists for finite-difference gradient checks.

Convolution uses the cross-correlation convention (no kernel flip).
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

WEIGHTS_MAGIC = b"TXNN"
WEIGHTS_VERSION = 1


class ShapeError(ValueError):
    pass


class WeightsError(ValueError):
    """Bad TXNN file: magic, version or architecture mismatch."""


# ---------------------------------------------------------------------------
# layers


class Layer:
    """Base layer: `params` are learnable, `buffers` are saved state."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def forward(self, x, train=False, rng=None):
        raise NotImplementedError

    def backward(self, dout):
        raise NotImplementedError

    def astype(self, dtype):
        for d in (self.params, self.buffers):
            for k in d:
                d[k] = d[k].astype(dtype)


class Conv2D(Layer):
    """3x3 convolution, stride 1, pad 1: spatial dims are preserved."""

    def __init__(self, in_ch, out_ch, rng):
        super().__init__()
        self.in_ch, self.out_ch = in_ch, out_ch
        fan_in = in_ch * 9
        self.params["w"] = rng.normal(
            0.0, np.sqrt(2.0 / fan_in), size=(out_ch, in_ch, 3, 3)
        ).astype(np.float32)
        self.params["b"] = np.zeros(out_ch, dtype=np.float32)

    def _im2col(self, x):
        """(n, c * 9, h * w) columns: row c * 9 + di * 3 + dj holds channel
        c shifted by (di - 1, dj - 1), zero outside the input."""
        n, c, h, w = x.shape
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        return sliding_window_view(xp, (h, w), axis=(2, 3)).reshape(
            n, c * 9, h * w)

    def forward(self, x, train=False, rng=None):
        n, c, h, w = x.shape
        if c != self.in_ch:
            raise ShapeError(f"conv expects {self.in_ch} channels, got {c}")
        cols = self._im2col(x)
        w2 = self.params["w"].reshape(self.out_ch, self.in_ch * 9)
        out = np.matmul(w2[None], cols) + self.params["b"][None, :, None]
        self._cache = (x.shape, cols)
        return out.reshape(n, self.out_ch, h, w)

    def backward(self, dout):
        (n, c, h, w), cols = self._cache
        d2 = dout.reshape(n, self.out_ch, h * w)
        self.grads["w"] = np.einsum("nok,nck->oc", d2, cols).reshape(
            self.out_ch, self.in_ch, 3, 3
        )
        self.grads["b"] = d2.sum(axis=(0, 2))
        w2 = self.params["w"].reshape(self.out_ch, self.in_ch * 9)
        dcols = np.matmul(w2.T[None], d2).reshape(n, c, 3, 3, h, w)
        dxp = np.zeros((n, c, h + 2, w + 2), dtype=dout.dtype)
        for di in range(3):
            for dj in range(3):
                dxp[:, :, di:di + h, dj:dj + w] += dcols[:, :, di, dj]
        return dxp[:, :, 1:-1, 1:-1]


class BatchNorm(Layer):
    """Per-channel batch normalization over (batch, H, W).

    Uses biased variance for both normalization and running statistics;
    running stats update with momentum 0.1, epsilon 1e-5.
    """

    EPS = 1e-5
    MOMENTUM = 0.1

    def __init__(self, ch):
        super().__init__()
        self.ch = ch
        self.params["gamma"] = np.ones(ch, dtype=np.float32)
        self.params["beta"] = np.zeros(ch, dtype=np.float32)
        self.buffers["running_mean"] = np.zeros(ch, dtype=np.float32)
        self.buffers["running_var"] = np.ones(ch, dtype=np.float32)

    def forward(self, x, train=False, rng=None):
        if x.shape[1] != self.ch:
            raise ShapeError(f"batchnorm expects {self.ch} channels")
        axes = (0, 2, 3)
        if train:
            if x.shape[0] < 2:
                raise ShapeError("batchnorm train mode needs batch >= 2")
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            m = self.MOMENTUM
            self.buffers["running_mean"] = (
                (1 - m) * self.buffers["running_mean"] + m * mean
            ).astype(x.dtype)
            self.buffers["running_var"] = (
                (1 - m) * self.buffers["running_var"] + m * var
            ).astype(x.dtype)
        else:
            mean = self.buffers["running_mean"].astype(x.dtype)
            var = self.buffers["running_var"].astype(x.dtype)
        istd = 1.0 / np.sqrt(var + self.EPS)
        xhat = (x - mean[None, :, None, None]) * istd[None, :, None, None]
        out = (
            self.params["gamma"][None, :, None, None] * xhat
            + self.params["beta"][None, :, None, None]
        )
        self._cache = (xhat, istd, train, x.shape)
        return out

    def backward(self, dout):
        xhat, istd, train, shape = self._cache
        axes = (0, 2, 3)
        self.grads["gamma"] = (dout * xhat).sum(axis=axes)
        self.grads["beta"] = dout.sum(axis=axes)
        g = self.params["gamma"][None, :, None, None]
        if not train:
            return dout * g * istd[None, :, None, None]
        n = shape[0] * shape[2] * shape[3]
        dxhat = dout * g
        dx = (
            dxhat
            - dxhat.mean(axis=axes, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=axes, keepdims=True)
        ) * istd[None, :, None, None]
        return dx


class ReLU(Layer):
    def forward(self, x, train=False, rng=None):
        self._mask = x > 0
        return x * self._mask

    def backward(self, dout):
        return dout * self._mask


class MaxPool2x2(Layer):
    """2x2 window, stride 2.  Even spatial dims only; ties go to the first
    position in raster order."""

    def forward(self, x, train=False, rng=None):
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ShapeError(f"maxpool needs even spatial dims, got {h}x{w}")
        r = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
        r = r.reshape(n, c, h // 2, w // 2, 4)
        self._idx = r.argmax(axis=-1)
        self._inshape = x.shape
        return np.take_along_axis(r, self._idx[..., None], axis=-1)[..., 0]

    def backward(self, dout):
        n, c, h, w = self._inshape
        dr = np.zeros((n, c, h // 2, w // 2, 4), dtype=dout.dtype)
        np.put_along_axis(dr, self._idx[..., None], dout[..., None], axis=-1)
        dr = dr.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
        return dr.reshape(n, c, h, w)


class Flatten(Layer):
    def forward(self, x, train=False, rng=None):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        return dout.reshape(self._shape)


class Dense(Layer):
    def __init__(self, n_in, n_out, rng):
        super().__init__()
        self.n_in, self.n_out = n_in, n_out
        self.params["w"] = rng.normal(
            0.0, np.sqrt(2.0 / n_in), size=(n_out, n_in)
        ).astype(np.float32)
        self.params["b"] = np.zeros(n_out, dtype=np.float32)

    def forward(self, x, train=False, rng=None):
        if x.shape[1] != self.n_in:
            raise ShapeError(f"fc expects {self.n_in} inputs, got {x.shape[1]}")
        self._x = x
        return x @ self.params["w"].T + self.params["b"]

    def backward(self, dout):
        self.grads["w"] = dout.T @ self._x
        self.grads["b"] = dout.sum(axis=0)
        return dout @ self.params["w"]


class Dropout(Layer):
    """Inverted dropout: active only in train mode, eval is identity."""

    def __init__(self, rate):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, x, train=False, rng=None):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ValueError("dropout in train mode needs an rng")
        keep = (rng.random(x.shape) >= self.rate).astype(x.dtype)
        self._mask = keep / (1.0 - self.rate)
        return x * self._mask

    def backward(self, dout):
        if self._mask is None:
            return dout
        return dout * self._mask


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy_weighted(probs, labels, class_weights):
    """Class-weighted cross entropy on softmax outputs.

    Returns (loss, dlogits): the gradient is taken with respect to the
    pre-softmax logits (combined softmax+CE backward).  The loss is the
    weighted mean, normalized by the sum of applied weights.
    """
    probs = np.asarray(probs)
    labels = np.asarray(labels)
    cw = np.asarray(class_weights, dtype=probs.dtype)
    n = probs.shape[0]
    w = cw[labels]
    p = probs[np.arange(n), labels]
    if np.any(p < 1e-12):
        warnings.warn("cross entropy: clamped zero probability at true label")
        p = np.maximum(p, 1e-12)
    wsum = w.sum()
    loss = float((w * -np.log(p)).sum() / wsum)
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), labels] = 1.0
    dlogits = w[:, None] * (probs - onehot) / wsum
    return loss, dlogits


# ---------------------------------------------------------------------------
# network


@dataclass(frozen=True)
class NetSpec:
    """Conv(BN-ReLU-Pool) stages followed by FC-ReLU-Dropout stages and a
    final 2-way FC.  Spatial size halves at each pool; channels double by
    default (16, 32, 64)."""

    in_channels: int = 3
    input_size: int = 16
    conv_channels: tuple[int, ...] = (16, 32, 64)
    fc_sizes: tuple[int, ...] = (128, 64)
    n_classes: int = 2
    dropout: float = 0.5

    def __post_init__(self):
        size = self.input_size
        for _ in self.conv_channels:
            if size % 2:
                raise ValueError("spatial size becomes odd before a pool")
            size //= 2
        if size < 1:
            raise ValueError("too many pool stages for the input size")

    @property
    def flat_size(self) -> int:
        return self.conv_channels[-1] * (
            self.input_size // (2 ** len(self.conv_channels))
        ) ** 2

    def canonical(self) -> str:
        return (
            f"in{self.in_channels}x{self.input_size}"
            f"|conv{','.join(map(str, self.conv_channels))}"
            f"|fc{','.join(map(str, self.fc_sizes))}"
            f"|cls{self.n_classes}|drop{self.dropout:.4f}"
        )

    def spec_hash(self) -> bytes:
        return hashlib.sha256(self.canonical().encode()).digest()[:8]


class Net:
    """Layer stack built from a NetSpec.  forward() returns logits."""

    def __init__(self, spec: NetSpec, rng=None):
        if rng is None:
            rng = np.random.default_rng(0)
        self.spec = spec
        self.layers: list[Layer] = []
        ch = spec.in_channels
        for out_ch in spec.conv_channels:
            self.layers += [Conv2D(ch, out_ch, rng), BatchNorm(out_ch),
                            ReLU(), MaxPool2x2()]
            ch = out_ch
        self.layers.append(Flatten())
        n_in = spec.flat_size
        for n_out in spec.fc_sizes:
            self.layers += [Dense(n_in, n_out, rng), ReLU(),
                            Dropout(spec.dropout)]
            n_in = n_out
        self.layers.append(Dense(n_in, spec.n_classes, rng))

    def forward(self, x, train=False, rng=None):
        for layer in self.layers:
            x = layer.forward(x, train=train, rng=rng)
        return x

    def backward(self, dlogits):
        d = dlogits
        for layer in reversed(self.layers):
            d = layer.backward(d)
        return d

    def predict_probs(self, x):
        return softmax(self.forward(x, train=False))

    def param_items(self):
        """(key, array) for every learnable tensor, declaration order."""
        for i, layer in enumerate(self.layers):
            for name, arr in layer.params.items():
                yield f"{i}.{name}", arr

    def state_items(self):
        """param_items plus batchnorm running statistics."""
        for i, layer in enumerate(self.layers):
            for name, arr in layer.params.items():
                yield f"{i}.{name}", arr
            for name, arr in layer.buffers.items():
                yield f"{i}.{name}", arr

    def grad_items(self):
        for i, layer in enumerate(self.layers):
            for name in layer.params:
                yield f"{i}.{name}", layer.grads[name]

    def set_param(self, key, value):
        i, name = key.split(".")
        layer = self.layers[int(i)]
        d = layer.params if name in layer.params else layer.buffers
        if d[name].shape != value.shape:
            raise WeightsError(f"shape mismatch for {key}")
        d[name] = value.astype(d[name].dtype)

    def astype(self, dtype):
        for layer in self.layers:
            layer.astype(dtype)
        return self


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0005
    batch_size: int = 512
    epochs: int = 100
    rng_seed: int = 0

    def __post_init__(self):
        if min(self.learning_rate, self.batch_size) <= 0:
            raise ValueError("learning_rate and batch_size must be positive")
        if self.momentum < 0 or self.weight_decay < 0 or self.epochs < 0:
            raise ValueError("momentum/weight_decay/epochs must be >= 0")


class SGD:
    """Classic momentum SGD; weight decay is folded into the gradient:
    v <- momentum*v + g + decay*p;  p <- p - lr*v."""

    def __init__(self, net: Net, cfg: TrainConfig):
        self.net = net
        self.cfg = cfg
        self.velocity = {k: np.zeros_like(v) for k, v in net.param_items()}

    def step(self):
        cfg = self.cfg
        grads = dict(self.net.grad_items())
        for key, p in self.net.param_items():
            v = self.velocity[key]
            v = cfg.momentum * v + grads[key] + cfg.weight_decay * p
            self.velocity[key] = v
            p -= (cfg.learning_rate * v).astype(p.dtype)


# ---------------------------------------------------------------------------
# serialization


def save_params(net: Net, sink) -> int:
    n = sink.write(WEIGHTS_MAGIC)
    n += sink.write(bytes([WEIGHTS_VERSION]))
    n += sink.write(net.spec.spec_hash())
    for _, arr in net.state_items():
        n += sink.write(arr.astype("<f4").tobytes())
    return n


def load_params(net: Net, source) -> Net:
    magic = source.read(4)
    if magic != WEIGHTS_MAGIC:
        raise WeightsError(f"bad magic {magic!r}")
    version = source.read(1)
    if not version:
        raise WeightsError("truncated weights file header")
    if version[0] != WEIGHTS_VERSION:
        raise WeightsError(f"unsupported weights version {version[0]}")
    h = source.read(8)
    if h != net.spec.spec_hash():
        raise WeightsError("architecture mismatch")
    for key, arr in net.state_items():
        buf = source.read(arr.size * 4)
        if len(buf) != arr.size * 4:
            raise WeightsError(f"truncated weights file at {key}")
        net.set_param(key, np.frombuffer(buf, dtype="<f4").reshape(arr.shape))
    for layer in net.layers:
        if isinstance(layer, BatchNorm) and np.any(
            layer.buffers["running_var"] <= 0
        ):
            raise WeightsError("non-positive running variance")
    return net
