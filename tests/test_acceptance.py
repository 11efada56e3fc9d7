"""Acceptance gate: one test per release criterion, each with its tolerance
pinned in-line.  `pytest -v tests/test_acceptance.py` prints one pass/fail
line per criterion."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from gradcheck import check_layer
from texture_oracle import is_texture_block_oracle
from texcodec.analyzer import TextureMask, all_texture_mask, train_classifier
from texcodec.cli import main as cli_main
from texcodec.codec import EncoderConfig, decode_sequence, encode_sequence, is_texture_block
from texcodec.datasets import DatasetConfig, TEXTURE, synthesize_dataset
from texcodec.frames import BlockRect, Frame, pad16, write_y4m
from texcodec.metrics import (RDCurve, RDPoint, bd_psnr, bd_rate,
                              data_rate_saving, rd_sweep)
from texcodec.motion import (AffineMotion, MotionModelKind,
                             estimate_texture_motion, warp_frame)
from texcodec.nnet import (BatchNorm, Conv2D, Dense, Dropout, Flatten,
                           MaxPool2x2, ReLU, TrainConfig)
from texcodec.sequences import (_noise_texture, panning_texture_sequence,
                                random_sequence)


def test_criterion_1_every_layer_passes_finite_difference_gradcheck():
    """All analytic gradients match 64-bit central differences (h = 1e-5)
    within 1e-4 relative error over 5 seeds, in under 30 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        layers = [
            (Conv2D(3, 4, rng), rng.standard_normal((2, 3, 6, 6))),
            (BatchNorm(4), rng.standard_normal((4, 4, 3, 3))),
            (ReLU(), rng.standard_normal((2, 4, 5, 5)) + 0.05),
            (MaxPool2x2(), rng.standard_normal((2, 3, 4, 4)) * 3),
            (Flatten(), rng.standard_normal((3, 2, 4, 4))),
            (Dense(18, 5, rng), rng.standard_normal((4, 18))),
            (Dropout(0.4), rng.standard_normal((5, 12))),
        ]
        for layer, x in layers:
            err = check_layer(layer, x, rng_seed=seed)
            assert err < 1e-4, f"{type(layer).__name__}: {err}"
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"gradchecks took {elapsed:.1f} s"


def test_criterion_2_classifier_reaches_95_percent_balanced_accuracy():
    """Training on the full synthetic dataset with the reference
    hyper-parameters (lr 0.01, momentum 0.9, decay 5e-4, batch 512) reaches
    >= 95 % balanced validation accuracy within 20 epochs and 15 minutes."""
    t0 = time.perf_counter()
    ds = synthesize_dataset(DatasetConfig(), seed=2024)
    cfg = TrainConfig(learning_rate=0.01, momentum=0.9, weight_decay=0.0005,
                      batch_size=512, epochs=20, rng_seed=2024)
    net, log = train_classifier(ds, cfg, target_val_accuracy=0.95)
    accs = [e["val_balanced_accuracy"] for e in log
            if "val_balanced_accuracy" in e]
    assert len(log) <= 20
    assert max(accs) >= 0.95, f"best balanced accuracy {max(accs):.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0, f"training took {elapsed:.1f} s"


_CLOSURE_CASES = [
    # (w, h, n, gf, q, texture)
    (48, 32, 5, 4, 16, False),
    (48, 32, 5, 4, 16, True),
    (64, 48, 6, 8, 24, True),
    (64, 48, 6, 8, 24, False),
    (96, 64, 6, 16, 28, True),
    (96, 64, 9, 4, 32, True),
    (50, 38, 5, 4, 32, False),
    (80, 64, 8, 8, 16, True),
    (64, 64, 4, 16, 24, False),
    (96, 64, 5, 8, 28, False),
    (48, 48, 10, 4, 24, True),
    (64, 32, 6, 16, 32, True),
]


def test_criterion_3_encode_decode_closure_randomized():
    """decode(encode(x)) reproduces the encoder-side reconstruction
    bit-exactly (CRC-verified by the decoder) on 12 randomized sequences
    spanning gf {4,8,16}, q {16,24,28,32} and both texture modes, < 5 min."""
    t0 = time.perf_counter()
    for i, (w, h, n, gf, q, texture) in enumerate(_CLOSURE_CASES):
        seq = random_sequence(w, h, n, seed=3000 + i)
        masks = None
        if texture:
            gh, gw = pad16(h) // 16, pad16(w) // 16
            masks = [all_texture_mask(gh, gw, frame_index=k)
                     for k in range(n)]
        cfg = EncoderConfig(q_level=q, gf_group_size=gf, texture_mode=texture)
        enc = encode_sequence(seq, masks, cfg)
        dec = decode_sequence(enc.bitstream)
        for a, b in zip(enc.reconstructions, dec.reconstructions):
            assert a.same_samples(b), f"case {i} mismatch"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"closure suite took {elapsed:.1f} s"


def test_criterion_4_panning_sequence_shows_rate_savings():
    """On the 64-frame panning clip, texture mode saves rate at every q
    level and overall (BD-RATE < 0) without hurting quality in the
    non-texture region (per-level PSNR drop <= 0.1 dB, BD-PSNR >= 0)."""
    seq, masks = panning_texture_sequence(width=128, height=96, n_frames=64,
                                          seed=4)
    report = rd_sweep(seq, masks,
                      base_config=EncoderConfig(gf_group_size=8))
    for row in report["levels"]:
        assert row["rate_texture"] < row["rate_baseline"], row
        assert row["saving_percent"] > 0.0, row
        assert row["psnr_texture"] >= row["psnr_baseline"] - 0.1, row
    assert report["bd_rate_percent"] < 0.0
    assert report["bd_psnr_db"] >= 0.0


def test_criterion_5_bd_metric_fidelity():
    """BD deltas: 0 within 1e-9 on identical curves, -50 % +/- 0.01 on a
    half-rate shift, +1 dB +/- 1e-6 on a PSNR offset, and the cubic fit
    interpolates its 4 anchor points within 1e-9."""
    base = RDCurve(tuple(RDPoint(r, p) for r, p in
                         [(1000, 30.0), (2000, 33.0),
                          (4000, 36.0), (8000, 39.0)]))
    assert abs(bd_rate(base, base)) < 1e-9
    assert abs(bd_psnr(base, base)) < 1e-9
    half = RDCurve(tuple(RDPoint(p.rate / 2, p.psnr) for p in base.points))
    assert bd_rate(base, half) == pytest.approx(-50.0, abs=0.01)
    up = RDCurve(tuple(RDPoint(p.rate, p.psnr + 1.0) for p in base.points))
    assert bd_psnr(base, up) == pytest.approx(1.0, abs=1e-6)
    x, y = base.psnrs, np.log10(base.rates)
    assert np.max(np.abs(np.polyval(np.polyfit(x, y, 3), x) - y)) < 1e-9


def test_criterion_6_reference_data_rate_savings():
    """data_rate_saving reproduces the published comparison values:
    15.25 % and 4.42 % within 0.01."""
    pct, which = data_rate_saving(136080, 115330)
    assert pct == pytest.approx(15.25, abs=0.01) and which == "second"
    pct, which = data_rate_saving(65811, 62905)
    assert pct == pytest.approx(4.42, abs=0.01) and which == "second"


def test_criterion_7_texture_block_decision_matches_per_pixel_oracle():
    """is_texture_block agrees with a brute-force per-pixel warp oracle on
    1,000 random (block, motion, mask) triples including boundary blocks and
    out-of-frame warps."""
    rng = np.random.default_rng(7)
    w, h = 128, 96
    gh, gw = h // 16, w // 16
    agree = n_true = n_false = 0
    for trial in range(1000):
        cur = TextureMask(
            labels=(rng.random((gh, gw)) < 0.85).astype(np.uint8) * TEXTURE,
            probs=np.zeros((gh, gw), np.float32))
        ref = TextureMask(
            labels=(rng.random((gh, gw)) < 0.85).astype(np.uint8) * TEXTURE,
            probs=np.zeros((gh, gw), np.float32))
        size = int(rng.choice([16, 32, 64]))
        if trial % 5 == 0:  # force boundary blocks
            x = int(rng.choice([0, w - size]))
            y = int(rng.choice([0, h - size]))
        else:
            x = int(rng.integers(0, (w - size) // 16 + 1)) * 16
            y = int(rng.integers(0, (h - size) // 16 + 1)) * 16
        rect = BlockRect(x, y, size)
        big = 120.0 if trial % 7 == 0 else 40.0  # some clearly out of frame
        m = AffineMotion(a11=1 + rng.uniform(-0.1, 0.1),
                         a12=rng.uniform(-0.06, 0.06),
                         a21=rng.uniform(-0.06, 0.06),
                         a22=1 + rng.uniform(-0.1, 0.1),
                         tx=rng.uniform(-big, big), ty=rng.uniform(-big, big))
        got = is_texture_block(rect, cur, ref, m, w, h)
        want = is_texture_block_oracle(rect, cur, ref, m, w, h)
        assert got == want, (trial, rect, m.as_tuple())
        agree += 1
        n_true += got
        n_false += not got
    assert agree == 1000 and n_true > 0 and n_false > 0


def test_criterion_8_rotzoom_motion_recovery():
    """Estimated rotzoom parameters recover synthetic warps (|zoom-1| <= 5 %,
    rotation <= 2 deg, shift <= 8 px) within 0.01 on the linear terms and
    0.5 px on the translation, over >= 20 texture cells."""
    rng = np.random.default_rng(8)
    base = np.random.default_rng(88)
    ref = Frame(y=_noise_texture(base, 144, 192, sigma=0.8),
                uv=np.stack((np.full((72, 96), 128, np.uint8),
                             np.full((72, 96), 128, np.uint8))))
    gh, gw = 144 // 16, 192 // 16
    labels = np.zeros((gh, gw), np.uint8)
    labels[2:gh - 2, 2:gw - 2] = TEXTURE
    mask = TextureMask(labels=labels, probs=labels.astype(np.float32))
    assert int((labels == TEXTURE).sum()) >= 20
    for _ in range(8):
        zoom = 1.0 + rng.uniform(-0.05, 0.05)
        theta = np.deg2rad(rng.uniform(-2.0, 2.0))
        truth = AffineMotion(a11=zoom * np.cos(theta),
                             a12=zoom * np.sin(theta),
                             a21=-zoom * np.sin(theta),
                             a22=zoom * np.cos(theta),
                             tx=rng.uniform(-8, 8), ty=rng.uniform(-8, 8))
        cur = warp_frame(ref, truth)
        est, stats = estimate_texture_motion(cur, ref, mask,
                                             MotionModelKind.ROTZOOM)
        got, want = np.array(est.as_tuple()), np.array(truth.as_tuple())
        assert np.max(np.abs(got[:4] - want[:4])) <= 0.01, (got, want)
        assert np.max(np.abs(got[4:] - want[4:])) <= 0.5, (got, want)
        assert stats.n_cells >= 20


def _run_pipeline(d: Path) -> dict:
    d.mkdir(parents=True, exist_ok=True)
    assert cli_main(["gen-data", "--out", str(d / "data.npz"),
                     "--textures", "60", "--non-textures", "240",
                     "--seed", "9"]) == 0
    assert cli_main(["train", "--data", str(d / "data.npz"),
                     "--out", str(d / "model.txnn"), "--epochs", "4",
                     "--seed", "9"]) == 0
    seq, _ = panning_texture_sequence(width=96, height=64, n_frames=6, seed=9)
    with open(d / "clip.y4m", "wb") as f:
        write_y4m(seq, f)
    assert cli_main(["segment", "--weights", str(d / "model.txnn"),
                     "--input", str(d / "clip.y4m"),
                     "--out-dir", str(d / "masks"), "--min-region", "2"]) == 0
    assert cli_main(["encode", "--input", str(d / "clip.y4m"),
                     "--masks", str(d / "masks"), "--out", str(d / "clip.txc"),
                     "--stats", str(d / "stats.json"), "--seed", "9"]) == 0
    assert cli_main(["rd-sweep", "--input", str(d / "clip.y4m"),
                     "--masks", str(d / "masks"), "--gf", "4",
                     "--out", str(d / "report.json"), "--seed", "9"]) == 0
    files = {p.relative_to(d): p.read_bytes()
             for p in sorted(d.rglob("*")) if p.is_file()}
    return files


def test_criterion_9_pipeline_is_byte_reproducible(tmp_path):
    """Two full CLI pipeline runs (gen-data, train, segment, encode,
    rd-sweep) with the same seed produce byte-identical weights, masks,
    bitstreams and reports.  (The compressed dataset archive embeds zip
    timestamps and is excluded from the byte comparison.)"""
    a = _run_pipeline(tmp_path / "a")
    b = _run_pipeline(tmp_path / "b")
    assert a.keys() == b.keys()
    checked = 0
    for name in a:
        if name.suffix == ".npz":
            continue
        assert a[name] == b[name], f"{name} differs between runs"
        checked += 1
    # weights, clip, bitstream, stats, two reports + curves, 6 masks + probs
    assert checked >= 12
