"""Behaviour pins: SHA-256 of TXC1 v3 bitstreams and leaf traces, and the rates
of an RD sweep, for small fixed inputs; and of the analysis side's outputs:
trained weights, segmentation masks and Y4M bytes.  A refactor that keeps
the format must keep these values; a deliberate format change bumps the
version and updates them."""

import hashlib
import io

import pytest

from pinned_encodes import pinned_encodes
from texcodec.analyzer import segment_frame, train_classifier
from texcodec.codec import EncoderConfig, decode_sequence
from texcodec.datasets import DatasetConfig, synthesize_dataset
from texcodec.frames import write_y4m
from texcodec.metrics import rd_sweep
from texcodec.nnet import NetSpec, TrainConfig, save_params
from texcodec.sequences import panning_texture_sequence


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _trace_sha(enc) -> str:
    """SHA-256 of the per-frame (x, y, size, mode) leaf traces."""
    return _sha(repr([[(r.x, r.y, r.size, m.name) for r, m in t]
                      for t in enc.traces]).encode())


def test_pin_texture_mode_bitstream():
    enc = pinned_encodes()[0]
    assert _sha(enc.bitstream) == (
        "129197e37cec0fd0c9864abfc22956060d8d4cd25fb996a2901b9a4bea6abbf4")
    assert _trace_sha(enc) == (
        "736766b65d557711541d5e485680155294a06166bf5b6c34ee285a8221977e94")


def test_pin_baseline_bitstream():
    enc = pinned_encodes()[1]
    assert _sha(enc.bitstream) == (
        "9b5634f0c3511ce8f99ecdb9698d02d61d361dd425c6431746fdb4dd71852311")
    assert _trace_sha(enc) == (
        "39a14a67c701f3b2b2c8a511224d818d5c7a0470e5c10305a2e953cb1e08f4ac")


def test_pin_partial_superblocks_bitstream():
    enc = pinned_encodes()[2]
    assert _sha(enc.bitstream) == (
        "af599310066c794f1ef59fef62b821e4acc2a24145444c04f641ee8ace26865d")
    assert _trace_sha(enc) == (
        "0f6f31933f1f294e3eadded8310c820a08e9c34ab60a46b5cffdf75def2c09cb")


@pytest.mark.parametrize("which", [0, 1, 2],
                         ids=["texture", "baseline", "partial"])
def test_decoder_trace_equals_the_encoders(which):
    # the decoder's parse yields the (rect, mode) trace that the encoder
    # wrote, from the bitstream alone
    enc = pinned_encodes()[which]
    assert decode_sequence(enc.bitstream).traces == enc.traces


def test_pin_rd_sweep_rates():
    seq, masks = panning_texture_sequence(64, 64, n_frames=2, seed=3)
    report = rd_sweep(seq, masks, base_config=EncoderConfig(gf_group_size=8))
    rates = [(r["rate_baseline"], r["rate_texture"]) for r in report["levels"]]
    assert rates == [(17256, 17316), (13556, 13700), (12128, 12316),
                     (11132, 11304)]


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
