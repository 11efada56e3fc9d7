"""Neural-network kernel: layer semantics, backward passes, SGD and the
TXNN weight file format."""

import io

import numpy as np
import pytest

from gradcheck import check_layer, rel_error
from texcodec.nnet import (BatchNorm, Conv2D, Dense, Dropout, Flatten,
                           MaxPool2x2, Net, NetSpec, ReLU, SGD, ShapeError,
                           TrainConfig, WeightsError, cross_entropy_weighted,
                           load_params, save_params, softmax)


# ---------------------------------------------------------------------------
# forward semantics


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    conv = Conv2D(1, 1, rng)
    w = np.zeros((1, 1, 3, 3), np.float32)
    w[0, 0, 1, 1] = 1.0
    conv.params["w"] = w
    conv.params["b"] = np.zeros(1, np.float32)
    x = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
    assert np.allclose(conv.forward(x), x, atol=1e-6)


def test_conv_all_ones_overlap_counts():
    rng = np.random.default_rng(0)
    conv = Conv2D(1, 1, rng)
    conv.params["w"] = np.ones((1, 1, 3, 3), np.float32)
    conv.params["b"] = np.zeros(1, np.float32)
    out = conv.forward(np.ones((1, 1, 3, 3), np.float32))[0, 0]
    # hand-counted kernel/input overlap with zero padding
    expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], np.float32)
    assert np.array_equal(out, expected)


def _loop_im2col(x):
    """Conv2D's columns, one (di, dj) shift at a time."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.empty((n, c * 9, h * w), dtype=x.dtype)
    for k in range(9):
        di, dj = divmod(k, 3)
        cols[:, k::9] = xp[:, :, di:di + h, dj:dj + w].reshape(n, c, h * w)
    return cols


def _loop_col2im(dcols, shape):
    """The input gradient that (n, c * 9, h * w) column gradients give,
    summed over the shifts in (di, dj) order."""
    n, c, h, w = shape
    dxp = np.zeros((n, c, h + 2, w + 2), dtype=dcols.dtype)
    for k in range(9):
        di, dj = divmod(k, 3)
        dxp[:, :, di:di + h, dj:dj + w] += dcols[:, k::9].reshape(n, c, h, w)
    return dxp[:, :, 1:-1, 1:-1]


@pytest.mark.parametrize("n,c,h,w,out", [(2, 3, 16, 16, 8), (3, 8, 8, 8, 16),
                                         (1, 16, 4, 4, 32), (2, 1, 5, 7, 2)])
def test_conv_columns_match_loop_reference(n, c, h, w, out):
    rng = np.random.default_rng(n * c + h)
    conv = Conv2D(c, out, rng)
    x = rng.standard_normal((n, c, h, w)).astype(np.float32)
    cols = conv._im2col(x)
    assert cols.dtype == np.float32
    assert cols.tobytes() == _loop_im2col(x).tobytes()
    dout = rng.standard_normal((n, out, h, w)).astype(np.float32)
    conv.forward(x)
    dx = conv.backward(dout)
    w2 = conv.params["w"].reshape(out, c * 9)
    dcols = np.matmul(w2.T[None], dout.reshape(n, out, h * w))
    assert dx.dtype == np.float32
    assert dx.tobytes() == _loop_col2im(dcols, x.shape).tobytes()
    # signed zeros: -0.0 terms must sum from +0.0 exactly as the loop does
    dcols = np.where(rng.random(dcols.shape) < 0.5, np.float32(-0.0), dcols)
    dx = conv._col2im(dcols.reshape(n, c, 3, 3, h, w))
    assert dx.tobytes() == _loop_col2im(dcols, x.shape).tobytes()
    assert not np.signbit(dx[dx == 0]).any()


def _argmax_pool(x):
    """MaxPool2x2's forward as a first-max argmax over a transposed copy of
    the windows: (output, int64 window index)."""
    n, c, h, w = x.shape
    r = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    r = r.reshape(n, c, h // 2, w // 2, 4)
    idx = r.argmax(axis=-1)
    return np.take_along_axis(r, idx[..., None], axis=-1)[..., 0], idx


def _argmax_unpool(dout, idx, shape):
    """MaxPool2x2's backward from the argmax index: dout at the index, +0.0
    at the window's other positions."""
    n, c, h, w = shape
    dr = np.zeros((n, c, h // 2, w // 2, 4), dtype=dout.dtype)
    np.put_along_axis(dr, idx[..., None], dout[..., None], axis=-1)
    dr = dr.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return dr.reshape(n, c, h, w)


def _pool_input(kind, shape, dtype, rng):
    if kind == "relu":  # ReLU's output: -0.0 wherever its input was < 0
        return ReLU().forward(rng.standard_normal(shape).astype(dtype))
    if kind == "signed_zeros":  # ties between -0.0 and +0.0 as well
        x = ReLU().forward(rng.standard_normal(shape).astype(dtype))
        return np.where(rng.random(shape) < 0.3, dtype(0.0), x)
    if kind == "small_int":
        return rng.integers(-2, 3, shape).astype(dtype)
    assert kind == "equal_windows"  # every window holds one value 4 times
    n, c, h, w = shape
    v = rng.integers(-3, 4, (n, c, h // 2, w // 2)).astype(dtype)
    return np.repeat(np.repeat(v, 2, axis=2), 2, axis=3)


@pytest.mark.parametrize("kind", ["relu", "signed_zeros", "small_int",
                                  "equal_windows"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("n,size", [(3, 16), (2, 8), (1, 4), (1, 16)])
def test_maxpool_matches_argmax_oracle(kind, dtype, train, n, size):
    rng = np.random.default_rng(size + n)
    shape = (n, 5, size, size)
    x = _pool_input(kind, shape, dtype, rng)
    pool = MaxPool2x2()
    out = pool.forward(x, train=train)
    ref, idx = _argmax_pool(x)
    assert out.dtype == dtype and out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()
    assert pool._idx.dtype == np.uint8  # 1 byte per output, not argmax's 8
    dout = rng.standard_normal(ref.shape).astype(dtype)
    dout[rng.random(ref.shape) < 0.2] = -0.0
    dx = pool.backward(dout)
    assert dx.dtype == dtype and dx.shape == shape
    assert dx.tobytes() == _argmax_unpool(dout, idx, shape).tobytes()


def test_conv_channel_mismatch():
    conv = Conv2D(3, 4, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        conv.forward(np.zeros((1, 2, 8, 8), np.float32))


def test_batchnorm_train_normalizes():
    bn = BatchNorm(4)
    rng = np.random.default_rng(1)
    x = (3.0 + 2.0 * rng.standard_normal((8, 4, 5, 5))).astype(np.float64)
    bn.astype(np.float64)
    out = bn.forward(x, train=True)
    assert np.all(np.abs(out.mean(axis=(0, 2, 3))) < 1e-5)
    assert np.all(np.abs(out.var(axis=(0, 2, 3)) - 1.0) < 1e-3)


def test_batchnorm_eval_identity_statistics():
    bn = BatchNorm(2)
    x = np.random.default_rng(2).standard_normal((3, 2, 4, 4)).astype(np.float32)
    out = bn.forward(x, train=False)
    assert np.allclose(out, x, atol=1e-4)  # mean 0, var 1, scale 1, shift 0


def test_batchnorm_scale_shift():
    bn = BatchNorm(1)
    bn.params["gamma"] = np.array([2.0], np.float32)
    bn.params["beta"] = np.array([3.0], np.float32)
    x = np.random.default_rng(3).standard_normal((16, 1, 8, 8))
    bn.astype(np.float64)
    out = bn.forward(x, train=True)
    assert abs(out.mean() - 3.0) < 1e-6
    assert abs(out.std() - 2.0) < 1e-2


def test_batchnorm_rejects_batch_of_one():
    bn = BatchNorm(1)
    with pytest.raises(ShapeError):
        bn.forward(np.zeros((1, 1, 4, 4), np.float32), train=True)


def test_batchnorm_eval_pure_function():
    bn = BatchNorm(2)
    x = np.random.default_rng(4).standard_normal((2, 2, 4, 4)).astype(np.float32)
    a = bn.forward(x, train=False)
    b = bn.forward(x, train=False)
    assert np.array_equal(a, b)


def test_maxpool_window_max():
    x = np.array([[1, 2], [3, 4]], np.float32).reshape(1, 1, 2, 2)
    out = MaxPool2x2().forward(x)
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 4


def test_maxpool_rejects_odd_dims():
    with pytest.raises(ShapeError):
        MaxPool2x2().forward(np.zeros((1, 1, 3, 4), np.float32))


def test_softmax_symmetry_and_normalization():
    assert np.allclose(softmax(np.zeros((1, 2))), [[0.5, 0.5]])
    probs = softmax(np.random.default_rng(5).standard_normal((64, 2)) * 10)
    assert np.all(probs > 0)
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-6)


def test_dropout_zero_rate_identity():
    d = Dropout(0.0)
    x = np.random.default_rng(6).standard_normal((4, 8)).astype(np.float32)
    assert np.array_equal(d.forward(x, train=True,
                                    rng=np.random.default_rng(0)), x)
    assert np.array_equal(d.forward(x, train=False), x)


def test_dropout_inverted_scaling():
    d = Dropout(0.5)
    x = np.ones((1, 10000), np.float64)
    out = d.forward(x, train=True, rng=np.random.default_rng(7))
    kept = out != 0
    assert np.allclose(out[kept], 2.0)  # survivors scaled by 1/(1-p)
    assert abs(kept.mean() - 0.5) < 0.03


def test_dropout_rate_validation():
    with pytest.raises(ValueError):
        Dropout(1.0)
    with pytest.raises(ValueError):
        Dropout(-0.1)


# ---------------------------------------------------------------------------
# loss


def test_cross_entropy_perfect_prediction():
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss, _ = cross_entropy_weighted(probs, np.array([0, 1]), (1.0, 1.0))
    assert loss == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_uniform_case():
    loss, _ = cross_entropy_weighted(np.array([[0.5, 0.5]]), np.array([0]),
                                     (1.0, 1.0))
    assert loss == pytest.approx(np.log(2), abs=1e-12)


def test_cross_entropy_zero_probability_clamped():
    with pytest.warns(UserWarning, match="clamped"):
        loss, _ = cross_entropy_weighted(np.array([[0.0, 1.0]]), np.array([0]),
                                         (1.0, 1.0))
    assert np.isfinite(loss)


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    logits = rng.standard_normal((6, 2))
    labels = rng.integers(0, 2, 6)
    weights = (1.0, 20.78)
    _, dlogits = cross_entropy_weighted(softmax(logits), labels, weights)

    def loss_at(lg):
        return cross_entropy_weighted(softmax(lg), labels, weights)[0]

    num = np.zeros_like(logits)
    h = 1e-6
    for i in range(logits.shape[0]):
        for j in range(2):
            p = logits.copy()
            p[i, j] += h
            m = logits.copy()
            m[i, j] -= h
            num[i, j] = (loss_at(p) - loss_at(m)) / (2 * h)
    assert rel_error(dlogits, num) < 1e-4


# ---------------------------------------------------------------------------
# backward passes (single-seed; the acceptance suite sweeps 5 seeds)


def test_conv_gradients():
    rng = np.random.default_rng(10)
    assert check_layer(Conv2D(2, 3, rng),
                       rng.standard_normal((2, 2, 5, 5))) < 1e-4


def test_batchnorm_gradients_train_and_eval():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 3, 4, 4))
    assert check_layer(BatchNorm(3), x, train=True) < 1e-4
    assert check_layer(BatchNorm(3), x, train=False) < 1e-4


def test_relu_maxpool_flatten_dense_dropout_gradients():
    rng = np.random.default_rng(12)
    x4 = rng.standard_normal((3, 2, 4, 4)) + 0.05
    assert check_layer(ReLU(), x4) < 1e-4
    assert check_layer(MaxPool2x2(), x4) < 1e-4
    assert check_layer(Flatten(), x4) < 1e-4
    x2 = rng.standard_normal((4, 6))
    assert check_layer(Dense(6, 3, rng), x2) < 1e-4
    assert check_layer(Dropout(0.5), x2) < 1e-4


def _every_layer():
    rng = np.random.default_rng(21)
    x4 = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
    x2 = rng.standard_normal((4, 6)).astype(np.float32)
    bn = BatchNorm(3)
    bn.params["gamma"] = rng.standard_normal(3).astype(np.float32)
    bn.params["beta"] = rng.standard_normal(3).astype(np.float32)
    return [(Conv2D(3, 5, rng), x4), (bn, x4), (ReLU(), x4),
            (MaxPool2x2(), x4), (Flatten(), x4), (Dense(6, 3, rng), x2),
            (Dropout(0.5), x2)]


@pytest.mark.parametrize("train", [True, False])
def test_layers_leave_their_arguments_unchanged(train):
    for layer, x in _every_layer():
        x_before = x.copy()
        out = layer.forward(x, train=train, rng=np.random.default_rng(22))
        assert x.tobytes() == x_before.tobytes(), type(layer).__name__
        dout = np.random.default_rng(23).standard_normal(out.shape).astype(
            np.float32)
        dout_before = dout.copy()
        layer.backward(dout)
        assert dout.tobytes() == dout_before.tobytes(), type(layer).__name__
        assert x.tobytes() == x_before.tobytes(), type(layer).__name__


def test_zero_weight_dense_gives_zero_input_gradient():
    dense = Dense(5, 3, np.random.default_rng(13))
    dense.params["w"] = np.zeros((3, 5), np.float32)
    dense.forward(np.ones((2, 5), np.float32))
    dx = dense.backward(np.ones((2, 3), np.float32))
    assert np.all(dx == 0)


def test_full_net_gradients():
    spec = NetSpec(conv_channels=(4,), fc_sizes=(8,), dropout=0.0)
    rng = np.random.default_rng(14)
    net = Net(spec, rng=rng).astype(np.float64)
    x = rng.standard_normal((3, 3, 16, 16))
    labels = np.array([0, 1, 0])
    weights = (1.0, 2.0)

    def loss():
        logits = net.forward(x, train=False)
        return cross_entropy_weighted(softmax(logits), labels, weights)[0]

    logits = net.forward(x, train=False)
    _, dlogits = cross_entropy_weighted(softmax(logits), labels, weights)
    net.backward(dlogits)
    analytic = {k: g.copy() for k, g in net.grad_items()}

    h = 1e-5
    rng2 = np.random.default_rng(15)
    worst = 0.0
    for key, p in net.param_items():
        flat = p.reshape(-1)
        picks = rng2.choice(flat.size, size=min(8, flat.size), replace=False)
        for i in picks:
            old = flat[i]
            flat[i] = old + h
            fp = loss()
            flat[i] = old - h
            fm = loss()
            flat[i] = old
            num = (fp - fm) / (2 * h)
            worst = max(worst, rel_error(analytic[key].reshape(-1)[i], num))
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# SGD


def _tiny_net(seed):
    """2x2 single-channel net ending in Dense(2, 1); all grads zeroed."""
    spec = NetSpec(conv_channels=(2,), fc_sizes=(), in_channels=1,
                   input_size=2, n_classes=1)
    net = Net(spec, rng=np.random.default_rng(seed))
    for layer in net.layers:
        for name in layer.params:
            layer.grads[name] = np.zeros_like(layer.params[name])
    return net, net.layers[-1]


def test_sgd_zero_grad_fixed_point():
    net, _ = _tiny_net(16)
    before = {k: v.copy() for k, v in net.param_items()}
    SGD(net, TrainConfig(weight_decay=0.0)).step()
    for k, v in net.param_items():
        assert np.array_equal(v, before[k])


def test_sgd_scalar_arithmetic_oracle():
    # w=1, grad=1, v=0, lr=0.01, momentum=0.9, decay=0.0005:
    # v -> 0.9*0 + 1 + 0.0005*1 = 1.0005 ; w -> 1 - 0.01*1.0005 = 0.989995
    net, dense = _tiny_net(17)
    dense.params["w"] = np.ones_like(dense.params["w"], dtype=np.float64)
    dense.grads["w"] = np.ones_like(dense.params["w"])
    opt = SGD(net, TrainConfig())
    opt.step()
    assert np.allclose(dense.params["w"], 0.989995, atol=1e-9)
    key = [k for k, _ in net.param_items() if k.endswith(".w")][-1]
    assert np.allclose(opt.velocity[key], 1.0005, atol=1e-12)


def test_sgd_momentum_accumulation():
    # two identical-gradient steps: the second delta is exactly 1.9x the
    # first (v2 = 0.9*1 + 1)
    net, dense = _tiny_net(18)
    dense.params["w"] = np.ones_like(dense.params["w"], dtype=np.float64)
    opt = SGD(net, TrainConfig(weight_decay=0.0))
    deltas = []
    for _ in range(2):
        before = dense.params["w"].copy()
        dense.grads["w"] = np.ones_like(dense.params["w"])
        opt.step()
        deltas.append(np.abs(dense.params["w"] - before).max())
    assert deltas[1] == pytest.approx(deltas[0] * 1.9, rel=1e-9)


def test_weight_decay_alone_shrinks_params():
    # decay folded into the gradient: with grad=0 one step multiplies
    # every parameter by (1 - lr*decay)
    net, dense = _tiny_net(19)
    dense.params["w"] = np.full_like(dense.params["w"], 2.0, dtype=np.float64)
    SGD(net, TrainConfig()).step()
    assert np.allclose(dense.params["w"], 2.0 * (1 - 0.01 * 0.0005), atol=1e-12)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(momentum=-1)


# ---------------------------------------------------------------------------
# serialization


def test_save_load_roundtrip_bit_exact():
    spec = NetSpec(conv_channels=(4,), fc_sizes=(8,))
    net = Net(spec, rng=np.random.default_rng(20))
    buf = io.BytesIO()
    save_params(net, buf)
    other = Net(spec, rng=np.random.default_rng(99))
    load_params(other, io.BytesIO(buf.getvalue()))
    for (k1, a), (k2, b) in zip(net.state_items(), other.state_items()):
        assert k1 == k2
        assert np.array_equal(a, b)
    buf2 = io.BytesIO()
    save_params(other, buf2)
    assert buf.getvalue() == buf2.getvalue()


def test_load_rejects_bad_magic():
    net = Net(NetSpec(conv_channels=(4,), fc_sizes=(8,)))
    buf = io.BytesIO()
    save_params(net, buf)
    data = b"XXXX" + buf.getvalue()[4:]
    with pytest.raises(WeightsError, match="magic"):
        load_params(net, io.BytesIO(data))


def test_load_rejects_architecture_mismatch():
    net = Net(NetSpec(conv_channels=(4,), fc_sizes=(8,)))
    buf = io.BytesIO()
    save_params(net, buf)
    other = Net(NetSpec(conv_channels=(8,), fc_sizes=(8,)))
    with pytest.raises(WeightsError, match="architecture mismatch"):
        load_params(other, io.BytesIO(buf.getvalue()))


def test_load_rejects_truncation():
    net = Net(NetSpec(conv_channels=(4,), fc_sizes=(8,)))
    buf = io.BytesIO()
    save_params(net, buf)
    with pytest.raises(WeightsError, match="truncated"):
        load_params(net, io.BytesIO(buf.getvalue()[:-3]))


def test_netspec_default_flat_size():
    assert NetSpec().flat_size == 64 * 2 * 2  # three pools: 16 -> 2
    with pytest.raises(ValueError):
        NetSpec(conv_channels=(16, 32, 64, 128, 256))
