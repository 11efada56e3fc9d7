"""End-to-end command line tests, run in-process through cli.main."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crafted_streams import HUGE_LEVEL, single_tu_stream
from texcodec.analyzer import load_mask, mask_filename, save_mask
from texcodec.cli import build_parser, main
from texcodec.codec import EncoderConfig, encode_sequence
from texcodec.frames import read_y4m, write_y4m
from texcodec.metrics import bd_psnr, bd_rate, curve_from_json
from texcodec.motion import MotionModelKind
from texcodec.sequences import panning_texture_sequence


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    """Artifacts shared by the pipeline tests: dataset, weights, a small
    input clip with ground-truth masks."""
    d = tmp_path_factory.mktemp("cli")
    assert main(["gen-data", "--out", str(d / "data.npz"), "--textures", "30",
                 "--non-textures", "120", "--seed", "5"]) == 0
    assert main(["train", "--data", str(d / "data.npz"),
                 "--out", str(d / "model.txnn"), "--epochs", "2",
                 "--batch", "64", "--seed", "5"]) == 0
    seq, masks = panning_texture_sequence(width=96, height=64, n_frames=6,
                                          seed=6)
    with open(d / "clip.y4m", "wb") as f:
        write_y4m(seq, f)
    mask_dir = d / "masks"
    mask_dir.mkdir()
    for i, m in enumerate(masks):
        save_mask(m, mask_dir / mask_filename("clip", i))
    return d


# ---------------------------------------------------------------------------
# argument handling and exit codes


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert "texcodec" in capsys.readouterr().out


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["no-such-command"]) == 2
    assert main(["encode", "--input", "x.y4m"]) == 2  # missing --out
    raw = tmp_path / "clip.yuv"
    raw.write_bytes(b"\x00" * 384)
    assert main(["encode", "--input", str(raw), "--no-texture",
                 "--out", str(tmp_path / "o.bin")]) == 2  # .yuv needs --size
    assert "size" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("argv", [
    ["segment", "--weights", "w.txnn", "--input", "c.y4m", "--out-dir", "m",
     "--seed", "1"],
    ["decode", "--in", "c.txc", "--out", "o.y4m", "--seed", "1"],
    ["bd", "--baseline", "b.json", "--test", "t.json", "--seed", "1"],
    ["motion", "--cur", "c.y4m", "--ref", "r.y4m", "--mask", "m.pgm",
     "--frames", "2"],
], ids=["segment-seed", "decode-seed", "bd-seed", "motion-frames"])
def test_unread_options_are_usage_errors(argv, capsys):
    # options that a subcommand would not read are not accepted
    assert main(argv) == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in \
        capsys.readouterr().err


def test_domain_errors_exit_one(tmp_path, capsys):
    assert main(["decode", "--in", str(tmp_path / "missing.txc"),
                 "--out", str(tmp_path / "o.y4m")]) == 1
    bad = tmp_path / "bad.txc"
    bad.write_bytes(b"not a bitstream at all")
    assert main(["decode", "--in", str(bad),
                 "--out", str(tmp_path / "o.y4m")]) == 1
    assert "error:" in capsys.readouterr().err


def test_decode_oversized_level_exits_one(tmp_path, capsys):
    bad = tmp_path / "huge.txc"
    bad.write_bytes(single_tu_stream(*HUGE_LEVEL))
    assert main(["decode", "--in", str(bad),
                 "--out", str(tmp_path / "o.y4m")]) == 1
    assert "Exp-Golomb" in capsys.readouterr().err


def test_encode_texture_mode_requires_masks(workdir, tmp_path, capsys):
    assert main(["encode", "--input", str(workdir / "clip.y4m"),
                 "--out", str(tmp_path / "o.txc")]) == 2
    assert "--masks" in capsys.readouterr().err


def test_segment_bad_weights_exits_one(workdir, tmp_path):
    garbage = tmp_path / "w.txnn"
    for weights in (b"\x00" * 64, b"TXNN"):  # garbage; cut in the header
        garbage.write_bytes(weights)
        assert main(["segment", "--weights", str(garbage),
                     "--input", str(workdir / "clip.y4m"),
                     "--out-dir", str(tmp_path / "m")]) == 1


@pytest.mark.parametrize("curve", [
    {"a": 1}, [{"rate": 1}],
    [{"rate": float("nan"), "psnr": 30}] + [{"rate": r, "psnr": 30 + r}
                                            for r in (2, 3, 4)]],
    ids=["object", "no-psnr", "nan-rate"])
def test_bd_bad_curve_file_exits_one(tmp_path, capsys, curve):
    bad = tmp_path / "curve.json"
    bad.write_text(json.dumps(curve))  # writes a NaN rate as NaN
    assert main(["bd", "--baseline", str(bad), "--test", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pipeline happy paths


def test_segment_writes_one_mask_per_frame(workdir, tmp_path):
    out = tmp_path / "masks"
    assert main(["segment", "--weights", str(workdir / "model.txnn"),
                 "--input", str(workdir / "clip.y4m"),
                 "--out-dir", str(out), "--min-region", "2"]) == 0
    files = sorted(p.name for p in out.glob("*.pgm"))
    assert files == [mask_filename("clip", i) for i in range(6)]


def test_encode_decode_roundtrip(workdir, tmp_path):
    stream = tmp_path / "clip.txc"
    stats = tmp_path / "stats.json"
    assert main(["encode", "--input", str(workdir / "clip.y4m"),
                 "--masks", str(workdir / "masks"), "--q", "24", "--gf", "4",
                 "--out", str(stream), "--stats", str(stats)]) == 0
    report = json.loads(stats.read_text())
    assert report["total_bits"] == 8 * stream.stat().st_size
    assert len(report["frames"]) == 6
    assert report["frames"][0]["frame_type"] == "KEY"
    assert report["frames"][0]["motion_source"] is None
    for frame in report["frames"][1:]:
        if frame["frame_type"] == "INTER":
            assert frame["motion_source"] in ("texture_mask", "whole_frame")
            assert frame["motion_stats"]["n_cells"] > 0
    out = tmp_path / "out.y4m"
    assert main(["decode", "--in", str(stream), "--out", str(out)]) == 0
    with open(out, "rb") as f:
        dec = read_y4m(f)
    assert (dec.width, dec.height, len(dec)) == (96, 64, 6)


def test_encode_seed_defaults_to_the_library_motion_seed(tmp_path):
    # without --seed, encode fits the texture motion with EncoderConfig's
    # motion_seed, as the library does; on this clip the affine fit of
    # seed 0 differs
    seq, masks = panning_texture_sequence(96, 64, n_frames=2, seed=1)
    with open(tmp_path / "clip.y4m", "wb") as f:
        write_y4m(seq, f)
    (tmp_path / "masks").mkdir()
    for i, m in enumerate(masks):
        save_mask(m, tmp_path / "masks" / mask_filename("clip", i))
    stream = tmp_path / "o.txc"
    assert main(["encode", "--input", str(tmp_path / "clip.y4m"),
                 "--masks", str(tmp_path / "masks"), "--model", "affine",
                 "--out", str(stream)]) == 0
    masks = [load_mask(tmp_path / "masks" / mask_filename("clip", i))
             for i in range(len(seq))]
    affine = EncoderConfig(model_kind=MotionModelKind.AFFINE)
    assert stream.read_bytes() == encode_sequence(seq, masks,
                                                  affine).bitstream
    assert stream.read_bytes() != encode_sequence(
        seq, masks, replace(affine, motion_seed=0)).bitstream
    # rd-sweep shares the default; the other subcommands keep seed 0
    parser = build_parser()
    assert parser.parse_args(["rd-sweep", "--input", "c.y4m", "--masks", "m",
                              "--out", "r.json"]).seed == affine.motion_seed
    for argv in (["gen-data", "--out", "d.npz"],
                 ["train", "--data", "d.npz", "--out", "w.txnn"],
                 ["motion", "--cur", "c.y4m", "--ref", "r.y4m",
                  "--mask", "m.pgm"]):
        assert parser.parse_args(argv).seed == 0


def test_baseline_encode_needs_no_masks(workdir, tmp_path):
    stream = tmp_path / "b.txc"
    assert main(["encode", "--input", str(workdir / "clip.y4m"),
                 "--no-texture", "--out", str(stream)]) == 0
    assert stream.stat().st_size > 0


def test_rd_sweep_and_bd_agree(workdir, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["rd-sweep", "--input", str(workdir / "clip.y4m"),
                 "--masks", str(workdir / "masks"), "--gf", "4",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    base_file = out.with_suffix(".baseline.json")
    test_file = out.with_suffix(".texture.json")
    assert base_file.exists() and test_file.exists()
    assert main(["bd", "--baseline", str(base_file),
                 "--test", str(test_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    base = curve_from_json(json.loads(base_file.read_text()))
    test = curve_from_json(json.loads(test_file.read_text()))
    assert lines[0] == f"BD-RATE: {bd_rate(base, test):+.6f} %"
    assert lines[1] == f"BD-PSNR: {bd_psnr(base, test):+.6f} dB"
    assert report["bd_rate_percent"] == pytest.approx(bd_rate(base, test))


def test_rd_sweep_bad_q_levels(workdir, tmp_path, capsys):
    out = tmp_path / "report.json"
    args = ["rd-sweep", "--input", str(workdir / "clip.y4m"),
            "--masks", str(workdir / "masks"), "--out", str(out), "--q"]
    assert main(args + ["16,24,x,32"]) == 2  # not integers: a usage error
    assert "--q" in capsys.readouterr().err
    assert main(args + ["16,24,28"]) == 1  # three levels: a domain error
    assert "4 distinct ints" in capsys.readouterr().err
    assert not out.exists()


def test_motion_prints_six_parameters(workdir, tmp_path, capsys):
    mask = str(Path(workdir) / "masks" / mask_filename("clip", 1))
    assert main(["motion", "--cur", str(workdir / "clip.y4m"),
                 "--ref", str(workdir / "clip.y4m"), "--mask", mask]) == 0
    params = [float(v) for v in capsys.readouterr().out.split()]
    assert len(params) == 6
    assert np.allclose(params, (1, 0, 0, 1, 0, 0), atol=0.01)
