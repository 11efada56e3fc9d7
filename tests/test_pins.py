"""Behaviour pins: SHA-256 of TXC1 v2 bitstreams and leaf traces, and the rates
of an RD sweep, for small fixed inputs; and of the analysis side's outputs:
trained weights, segmentation masks and Y4M bytes.  A refactor that keeps
the format must keep these values; a deliberate format change bumps the
version and updates them."""

import hashlib
import io

import pytest

from texcodec.analyzer import segment_frame, train_classifier
from texcodec.codec import EncoderConfig, encode_sequence
from texcodec.datasets import DatasetConfig, synthesize_dataset
from texcodec.frames import write_y4m
from texcodec.metrics import rd_sweep
from texcodec.nnet import NetSpec, TrainConfig, save_params
from texcodec.sequences import panning_texture_sequence, random_sequence


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _trace_sha(enc) -> str:
    """SHA-256 of the per-frame (x, y, size, mode) leaf traces."""
    return _sha(repr([[(r.x, r.y, r.size, m.name) for r, m in t]
                      for t in enc.traces]).encode())


@pytest.fixture(scope="module")
def pan_clip():
    return panning_texture_sequence(96, 64, n_frames=5, seed=5)


def test_pin_texture_mode_bitstream(pan_clip):
    seq, masks = pan_clip
    enc = encode_sequence(seq, masks, EncoderConfig(gf_group_size=4))
    assert _sha(enc.bitstream) == (
        "fe28284aa13f1417f31a84bef0ca402844449b67209047e23be8c51d2f013265")
    assert _trace_sha(enc) == (
        "736766b65d557711541d5e485680155294a06166bf5b6c34ee285a8221977e94")


def test_pin_baseline_bitstream(pan_clip):
    seq, _ = pan_clip
    enc = encode_sequence(seq, None, EncoderConfig(texture_mode=False))
    assert _sha(enc.bitstream) == (
        "beee5f003c3acfadd92bfdfcfb982ffd306c312c27747949dfb20d3d1b9bdc86")
    assert _trace_sha(enc) == (
        "39a14a67c701f3b2b2c8a511224d818d5c7a0470e5c10305a2e953cb1e08f4ac")


def test_pin_partial_superblocks_bitstream():
    seq = random_sequence(80, 48, 3, seed=7)
    enc = encode_sequence(seq, None,
                          EncoderConfig(q_level=16, texture_mode=False))
    assert _sha(enc.bitstream) == (
        "53360c44236b22d34bc874a05b86f7d24cc1ab84771899cb59769b795683937d")
    assert _trace_sha(enc) == (
        "0f6f31933f1f294e3eadded8310c820a08e9c34ab60a46b5cffdf75def2c09cb")


def test_pin_rd_sweep_rates():
    seq, masks = panning_texture_sequence(64, 64, n_frames=2, seed=3)
    report = rd_sweep(seq, masks, base_config=EncoderConfig(gf_group_size=8))
    rates = [(r["rate_baseline"], r["rate_texture"]) for r in report["levels"]]
    assert rates == [(17184, 17248), (13488, 13632), (12060, 12252),
                     (11060, 11232)]


@pytest.fixture(scope="module")
def one_epoch_net():
    ds = synthesize_dataset(DatasetConfig(n_texture=40, n_non_texture=160),
                            seed=4)
    net, _ = train_classifier(ds, TrainConfig(batch_size=64, epochs=1,
                                              rng_seed=4),
                              spec=NetSpec(conv_channels=(8, 16),
                                           fc_sizes=(32,)))
    return net


def test_pin_trained_weights(one_epoch_net):
    buf = io.BytesIO()
    save_params(one_epoch_net, buf)
    assert _sha(buf.getvalue()) == (
        "360c9d97abc03447974929dc9b86843b2b68303ee8a7dfdc7fa9d3e2d4a7fc6f")


def test_pin_segmentation_masks(one_epoch_net):
    # odd-sized frames: segment_frame pads them and upsamples odd chroma
    seq, _ = panning_texture_sequence(50, 34, 3)
    h = hashlib.sha256()
    for f in seq:
        m = segment_frame(f, one_epoch_net)
        h.update(m.labels.tobytes())
        h.update(m.probs.tobytes())
    assert h.hexdigest() == (
        "fc99e932d22afe4f6a753f52b664d6fbfa50dbcf391fc41d4e9cbe0a30582fdb")


def test_pin_y4m_bytes():
    seq, _ = panning_texture_sequence(50, 34, 3)
    buf = io.BytesIO()
    write_y4m(seq, buf)
    assert _sha(buf.getvalue()) == (
        "c6948f2b18f16ebc12f16dc6bb2e8e04c4022f027994f900291b2f600e31fc24")
