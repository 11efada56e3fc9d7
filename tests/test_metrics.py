"""Rate-distortion metrics: non-texture PSNR, rate arithmetic and the
Bjontegaard deltas, plus a small end-to-end sweep."""

import json
import multiprocessing
import os
import signal
from dataclasses import replace

import numpy as np
import pytest

from texcodec import metrics
from texcodec.analyzer import TextureMask, all_texture_mask
from texcodec.codec import EncoderConfig, decode_sequence, encode_sequence
from texcodec.datasets import NON_TEXTURE, TEXTURE
from texcodec.frames import Frame, Sequence
from texcodec.metrics import (DEFAULT_Q_LEVELS, MetricsError, RDCurve, RDPoint,
                              bd_psnr, bd_rate, bits_per_frame,
                              curve_from_json, data_rate_saving, format_report,
                              psnr_nontexture, rd_sweep)
from texcodec.sequences import panning_texture_sequence, random_sequence


def _curve(pairs):
    return RDCurve(tuple(RDPoint(r, p) for r, p in pairs))


def _gray_seq(w, h, n, value=128):
    f = [Frame(y=np.full((h, w), value, np.uint8),
               uv=np.stack((np.full((h // 2, w // 2), 128, np.uint8),
                            np.full((h // 2, w // 2), 128, np.uint8))),
               frame_index=i)
         for i in range(n)]
    return Sequence(frames=tuple(f))


def _non_texture_masks(gh, gw, n):
    return [all_texture_mask(gh, gw, frame_index=i, texture=False)
            for i in range(n)]


# ---------------------------------------------------------------------------
# containers


def test_rd_point_and_curve_validation():
    with pytest.raises(MetricsError):
        RDPoint(0.0, 30.0)
    with pytest.raises(MetricsError):
        RDPoint(100.0, float("nan"))
    for rate in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(MetricsError, match="rate must be"):
            RDPoint(rate, 30.0)
    with pytest.raises(MetricsError, match="4 points"):
        _curve([(1, 30), (2, 31), (3, 32)])
    with pytest.raises(MetricsError, match="strictly increasing"):
        _curve([(1, 30), (1, 31), (2, 32), (3, 33)])
    c = _curve([(3, 33), (1, 30), (4, 34), (2, 31)])  # sorted on entry
    assert list(c.rates) == [1, 2, 3, 4]
    assert list(c.psnrs) == [30, 31, 33, 34]


def test_curve_from_json_roundtrip():
    pts = [{"rate": 100.0, "psnr": 30.0}, {"rate": 200.0, "psnr": 33.0},
           {"rate": 400.0, "psnr": 36.0}, {"rate": 800.0, "psnr": 39.0}]
    c = curve_from_json(pts)
    assert list(c.rates) == [100, 200, 400, 800]


# ---------------------------------------------------------------------------
# psnr_nontexture


def test_psnr_identical_sequences_capped():
    seq = random_sequence(32, 32, 2, seed=0)
    masks = _non_texture_masks(2, 2, 2)
    assert psnr_nontexture(seq, seq, masks) == 100.0


def test_psnr_uniform_offset_closed_form():
    a = _gray_seq(32, 32, 1, 128)
    b = _gray_seq(32, 32, 1, 129)
    masks = _non_texture_masks(2, 2, 1)
    # MSE = 1 everywhere -> 10 log10(255^2) = 48.1308 dB
    assert psnr_nontexture(a, b, masks) == pytest.approx(
        10 * np.log10(255.0 ** 2), abs=1e-9)


def test_psnr_ignores_texture_cells():
    a = random_sequence(32, 32, 1, seed=1)
    y = a[0].y.copy()
    y[:16, :16] = 255 - y[:16, :16]  # wreck only cell (0, 0)
    b = Sequence(frames=(Frame(y=y, uv=np.stack((a[0].u, a[0].v))),))
    labels = np.full((2, 2), NON_TEXTURE, np.uint8)
    labels[0, 0] = TEXTURE
    mask = TextureMask(labels=labels, probs=labels.astype(np.float32))
    assert psnr_nontexture(a, b, [mask]) == 100.0


def test_psnr_validation():
    seq = random_sequence(32, 32, 2, seed=2)
    masks = _non_texture_masks(2, 2, 2)
    with pytest.raises(MetricsError, match="frame count"):
        psnr_nontexture(seq, random_sequence(32, 32, 3, seed=2), masks)
    with pytest.raises(MetricsError, match="dimensions"):
        psnr_nontexture(seq, random_sequence(48, 32, 2, seed=2), masks)
    with pytest.raises(MetricsError, match="one mask"):
        psnr_nontexture(seq, seq, masks[:1])
    with pytest.raises(MetricsError, match="grid"):
        psnr_nontexture(seq, seq, _non_texture_masks(3, 3, 2))
    all_tex = [all_texture_mask(2, 2, frame_index=i) for i in range(2)]
    with pytest.raises(MetricsError, match="empty"):
        psnr_nontexture(seq, seq, all_tex)


# ---------------------------------------------------------------------------
# rate arithmetic


def test_bits_per_frame_bytes_and_path(tmp_path):
    assert bits_per_frame(b"\x00" * 100, 1) == 800.0
    assert bits_per_frame(b"\x00" * 1000, 10) == 800.0
    p = tmp_path / "s.bin"
    p.write_bytes(b"\x00" * 250)
    assert bits_per_frame(p, 2) == 1000.0
    with pytest.raises(MetricsError):
        bits_per_frame(b"abc", 0)


def test_data_rate_saving_reference_pairs():
    # published comparison points for two sequences
    pct, which = data_rate_saving(136080, 115330)
    assert pct == pytest.approx(15.2484, abs=1e-3)
    assert which == "second"
    pct, which = data_rate_saving(65811, 62905)
    assert pct == pytest.approx(4.4157, abs=1e-3)
    assert which == "second"
    pct, which = data_rate_saving(83874, 79621)
    assert pct == pytest.approx(5.0707, abs=1e-3)
    assert which == "second"


def test_data_rate_saving_edges():
    pct, which = data_rate_saving(500.0, 500.0)
    assert pct == 0.0 and which == "equal"
    pct, which = data_rate_saving(50.0, 100.0)
    assert pct == 50.0 and which == "first"
    with pytest.raises(MetricsError):
        data_rate_saving(0.0, 1.0)
    with pytest.raises(MetricsError):
        data_rate_saving(1.0, -2.0)


# ---------------------------------------------------------------------------
# Bjontegaard deltas


BASE = _curve([(1000, 30.0), (2000, 33.0), (4000, 36.0), (8000, 39.0)])


def test_bd_identical_curves_are_zero():
    assert abs(bd_rate(BASE, BASE)) < 1e-9
    assert abs(bd_psnr(BASE, BASE)) < 1e-9


def test_bd_rate_half_rate_same_psnr():
    half = _curve([(r / 2, p) for r, p in zip(BASE.rates, BASE.psnrs)])
    assert bd_rate(BASE, half) == pytest.approx(-50.0, abs=0.01)
    assert bd_rate(half, BASE) == pytest.approx(100.0, abs=0.01)


def test_bd_psnr_uniform_offset():
    up = _curve([(r, p + 1.0) for r, p in zip(BASE.rates, BASE.psnrs)])
    assert bd_psnr(BASE, up) == pytest.approx(1.0, abs=1e-6)
    assert bd_psnr(up, BASE) == pytest.approx(-1.0, abs=1e-6)


def test_bd_rate_reciprocity():
    test = _curve([(900, 30.5), (1900, 33.4), (3800, 36.2), (7600, 39.1)])
    ab = bd_rate(BASE, test)
    ba = bd_rate(test, BASE)
    # swapping roles inverts the average rate ratio
    assert ba == pytest.approx(-ab / (1 + ab / 100.0), rel=1e-3)
    assert bd_psnr(BASE, test) == pytest.approx(-bd_psnr(test, BASE), abs=1e-6)


def test_bd_cubic_fit_interpolates_the_points():
    # the 4-point cubic fit is an interpolation; verify against an
    # independently solved Vandermonde system
    x = BASE.psnrs
    y = np.log10(BASE.rates)
    coeffs = np.linalg.solve(np.vander(x, 4), y)
    fitted = np.polyval(np.polyfit(x, y, 3), x)
    assert np.allclose(fitted, y, atol=1e-9)
    assert np.allclose(np.polyval(coeffs, x), y, atol=1e-9)


def test_bd_requires_overlap():
    far = _curve([(100, 10.0), (110, 10.5), (120, 11.0), (130, 11.5)])
    with pytest.raises(MetricsError, match="PSNR ranges"):
        bd_rate(BASE, far)
    lowrate = _curve([(1, 30.0), (2, 33.0), (4, 36.0), (8, 39.0)])
    with pytest.raises(MetricsError, match="rate ranges"):
        bd_psnr(BASE, lowrate)


def test_non_monotone_curve_warns():
    wavy = _curve([(1000, 30.0), (2000, 29.0), (4000, 36.0), (8000, 39.0)])
    with pytest.warns(UserWarning, match="not strictly increasing"):
        bd_rate(wavy, wavy)


# ---------------------------------------------------------------------------
# sweep


def test_rd_sweep_report_shape_and_consistency():
    seq, masks = panning_texture_sequence(width=96, height=64, n_frames=8,
                                          seed=3)
    report = rd_sweep(seq, masks,
                      base_config=EncoderConfig(gf_group_size=4))
    assert report["q_levels"] == list(DEFAULT_Q_LEVELS)
    assert len(report["levels"]) == 4
    for row in report["levels"]:
        hi = max(row["rate_baseline"], row["rate_texture"])
        lo = min(row["rate_baseline"], row["rate_texture"])
        assert row["saving_percent"] == pytest.approx((hi - lo) / hi * 100.0)
        expected = ("equal" if hi == lo else
                    "texture" if lo == row["rate_texture"] else "baseline")
        assert row["smaller_rate"] == expected
    assert [p["rate"] for p in report["baseline_curve"]] == sorted(
        p["rate"] for p in report["baseline_curve"])
    assert np.isfinite(report["bd_rate_percent"])
    assert np.isfinite(report["bd_psnr_db"])
    text = format_report(report)
    assert "BD-RATE:" in text and "BD-PSNR:" in text
    assert len(text.splitlines()) == 6


def _reference_report(seq, masks, q_levels, base_config):
    """The sweep's report from one-config encodes run one after the other."""
    levels = []
    for q in q_levels:
        row = {"q_level": q}
        for name, texture_mode in (("baseline", False), ("texture", True)):
            cfg = replace(base_config, q_level=q, texture_mode=texture_mode)
            enc = encode_sequence(seq, masks, cfg)
            dec = decode_sequence(enc.bitstream)
            row[f"rate_{name}"] = bits_per_frame(enc.bitstream, len(seq))
            row[f"psnr_{name}"] = psnr_nontexture(seq, dec.sequence, masks)
        pct, which = data_rate_saving(row["rate_baseline"], row["rate_texture"])
        row["saving_percent"] = pct
        row["smaller_rate"] = {"first": "baseline", "second": "texture",
                               "equal": "equal"}[which]
        levels.append(row)
    base = _curve([(r["rate_baseline"], r["psnr_baseline"]) for r in levels])
    test = _curve([(r["rate_texture"], r["psnr_texture"]) for r in levels])
    return {
        "q_levels": list(q_levels),
        "levels": levels,
        "baseline_curve": [{"rate": p.rate, "psnr": p.psnr}
                           for p in base.points],
        "texture_curve": [{"rate": p.rate, "psnr": p.psnr}
                          for p in test.points],
        "bd_rate_percent": bd_rate(base, test),
        "bd_psnr_db": bd_psnr(base, test),
    }


def test_rd_sweep_pool_matches_serial_reference_and_leaves_no_child():
    seq, masks = panning_texture_sequence(width=64, height=64, n_frames=3,
                                          seed=4)
    cfg = EncoderConfig(gf_group_size=4)
    q_levels = (12, 20, 28, 40)
    report = rd_sweep(seq, masks, q_levels=q_levels, base_config=cfg)
    assert multiprocessing.active_children() == []
    assert json.dumps(report) == json.dumps(
        _reference_report(seq, masks, q_levels, cfg))


def test_rd_sweep_worker_error_propagates_and_leaves_no_child():
    seq, _ = panning_texture_sequence(width=64, height=64, n_frames=2, seed=4)
    bad = [all_texture_mask(3, 3, frame_index=i) for i in range(2)]
    with pytest.raises(ValueError, match="mask grid"):  # raised in a worker
        rd_sweep(seq, bad)
    assert multiprocessing.active_children() == []


def _worker_state(cpus, started, out):
    metrics._start_worker(cpus, started)
    out.put((os.sched_getaffinity(0), signal.getsignal(signal.SIGTERM)))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity on this platform")
def test_pool_workers_start_pinned_to_cpus_in_turn():
    ctx = multiprocessing.get_context("fork")
    cpus = metrics._usable_cpus()
    started, out = ctx.Value("i", 0), ctx.SimpleQueue()
    seen = []
    for _ in range(len(cpus) + 1):  # one more than there are CPUs: wraps
        p = ctx.Process(target=_worker_state, args=(cpus, started, out))
        p.start()
        p.join()
        assert p.exitcode == 0
        seen.append(out.get())
    assert seen == [({c}, signal.SIG_DFL) for c in cpus + cpus[:1]]


@pytest.mark.parametrize("q_levels", [
    (16, 24, 28), (16, 24, 28, 32, 40), (16, 24, 24, 32), (0, 24, 28, 32),
    (16, 24, 28, 64), (16.0, 24, 28, 32), ("16", 24, 28, 32),
    (True, 24, 28, 32)])
def test_rd_sweep_rejects_bad_q_levels_before_encoding(q_levels, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("rd_sweep started a pool")
    monkeypatch.setattr(metrics.multiprocessing, "get_context", no_pool)
    seq, masks = panning_texture_sequence(width=64, height=64, n_frames=2,
                                          seed=4)
    with pytest.raises(MetricsError, match="4 distinct ints"):
        rd_sweep(seq, masks, q_levels=q_levels)
