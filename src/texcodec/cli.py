"""Command-line entry point: one executable, subcommand per pipeline stage.

gen-data -> train -> segment -> encode/decode -> rd-sweep -> bd covers the
whole toolchain; all randomness flows from --seed so identical invocations
produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .analyzer import (TrainingError, clean_mask, load_mask, mask_filename,
                       save_mask, segment_frame, train_classifier)
from .codec import (VERSION, BitstreamError, EncoderConfig, decode_sequence,
                    encode_sequence)
from .datasets import DatasetConfig, PatchDataset, synthesize_dataset
from .frames import Y4MError, read_y4m, read_yuv, write_y4m
from .metrics import (DEFAULT_Q_LEVELS, MetricsError, bd_psnr, bd_rate,
                      bits_per_frame, curve_from_json, format_report,
                      rd_sweep)
from .motion import MotionError, MotionModelKind, estimate_texture_motion
from .nnet import (WEIGHTS_VERSION, Net, NetSpec, TrainConfig, WeightsError,
                   load_params, save_params)


class UsageError(ValueError):
    pass


def _parse_size(s: str) -> tuple[int, int]:
    try:
        w, h = s.lower().split("x")
        return int(w), int(h)
    except ValueError as e:
        raise UsageError(f"bad --size {s!r}, expected WxH") from e


def _load_sequence(path: str, size: str | None, frames: int | None):
    p = Path(path)
    with open(p, "rb") as f:
        if p.suffix == ".yuv":
            if size is None:
                raise UsageError("raw .yuv input needs --size WxH")
            w, h = _parse_size(size)
            return read_yuv(f, w, h, frames)
        return read_y4m(f)


def _load_masks(mask_dir: str, stem: str, n_frames: int):
    d = Path(mask_dir)
    masks = []
    for i in range(n_frames):
        p = d / mask_filename(stem, i)
        if not p.exists():
            raise UsageError(f"missing mask file {p}")
        masks.append(load_mask(p, frame_index=i))
    return masks


def _load_net(weights_path: str) -> Net:
    net = Net(NetSpec())
    with open(weights_path, "rb") as f:
        load_params(net, f)
    return net


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_data(args) -> int:
    cfg = DatasetConfig(n_texture=args.textures,
                        n_non_texture=args.non_textures)
    ds = synthesize_dataset(cfg, seed=args.seed)
    ds.save_npz(args.out)
    nn, nt = ds.class_counts
    print(f"wrote {args.out}: {nt} texture / {nn} non-texture patches")
    return 0


def _cmd_train(args) -> int:
    ds = PatchDataset.load_npz(args.data)
    cfg = TrainConfig(learning_rate=args.lr, momentum=args.momentum,
                      weight_decay=args.weight_decay, batch_size=args.batch,
                      epochs=args.epochs, rng_seed=args.seed)
    net, log = train_classifier(ds, cfg, target_val_accuracy=args.target_acc)
    for e in log:
        msg = (f"epoch {e['epoch']:3d}  loss {e['train_loss']:.4f}  "
               f"acc {e['train_accuracy']:.4f}")
        if "val_balanced_accuracy" in e:
            msg += f"  val_bal_acc {e['val_balanced_accuracy']:.4f}"
        print(msg)
    with open(args.out, "wb") as f:
        save_params(net, f)
    print(f"wrote {args.out}")
    return 0


def _cmd_segment(args) -> int:
    seq = _load_sequence(args.input, args.size, args.frames)
    net = _load_net(args.weights)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    for frame in seq:
        mask = segment_frame(frame, net, threshold=args.threshold)
        if args.min_region:
            mask = clean_mask(mask, args.min_region)
        save_mask(mask, out_dir / mask_filename(stem, frame.frame_index))
    print(f"wrote {len(seq)} masks to {out_dir}")
    return 0


def _cmd_motion(args) -> int:
    cur = _load_sequence(args.cur, args.size, None)[0]
    ref = _load_sequence(args.ref, args.size, None)[0]
    mask = load_mask(args.mask)
    kind = MotionModelKind(args.model)
    m, stats = estimate_texture_motion(cur, ref, mask, kind, args.seed)
    print(" ".join(f"{v:.6f}" for v in m.as_tuple()))
    if args.verbose:
        print(f"cells {stats.n_cells}  inliers {stats.n_inliers} "
              f"({stats.inlier_fraction:.2%})  "
              f"residual {stats.mean_residual:.3f} px", file=sys.stderr)
    return 0


def _encoder_config(args) -> EncoderConfig:
    return EncoderConfig(q_level=args.q, gf_group_size=args.gf,
                         texture_mode=not args.no_texture,
                         model_kind=MotionModelKind(args.model),
                         motion_seed=args.seed)


def _cmd_encode(args) -> int:
    seq = _load_sequence(args.input, args.size, args.frames)
    cfg = _encoder_config(args)
    masks = None
    if not args.no_texture:
        if args.masks is None:
            raise UsageError("texture mode needs --masks (or use --no-texture)")
        masks = _load_masks(args.masks, Path(args.input).stem, len(seq))
    result = encode_sequence(seq, masks, cfg)
    Path(args.out).write_bytes(result.bitstream)
    rate = bits_per_frame(result.bitstream, len(seq))
    if args.stats:
        stats = {
            "frames": [s.as_dict() for s in result.frame_stats],
            "total_bits": 8 * len(result.bitstream),
            "bits_per_frame": rate,
        }
        Path(args.stats).write_text(json.dumps(stats, indent=2, sort_keys=True))
    print(f"wrote {args.out}: {len(result.bitstream)} bytes, "
          f"{rate:.1f} bits/frame")
    return 0


def _cmd_decode(args) -> int:
    result = decode_sequence(Path(args.infile).read_bytes())
    with open(args.out, "wb") as f:
        write_y4m(result.sequence, f)
    print(f"wrote {args.out}: {len(result.sequence)} frames")
    return 0


def _cmd_rd_sweep(args) -> int:
    try:
        q_levels = tuple(int(q) for q in args.q.split(","))
    except ValueError as e:
        raise UsageError(f"bad --q {args.q!r}, expected comma-separated "
                         f"integers") from e
    seq = _load_sequence(args.input, args.size, args.frames)
    masks = _load_masks(args.masks, Path(args.input).stem, len(seq))
    base = EncoderConfig(gf_group_size=args.gf,
                         model_kind=MotionModelKind(args.model),
                         motion_seed=args.seed)
    report = rd_sweep(seq, masks, q_levels, base)
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2, sort_keys=True))
    for name in ("baseline", "texture"):
        out.with_suffix(f".{name}.json").write_text(
            json.dumps(report[f"{name}_curve"], indent=2, sort_keys=True))
    print(format_report(report))
    print(f"wrote {out}")
    return 0


def _cmd_bd(args) -> int:
    base = curve_from_json(json.loads(Path(args.baseline).read_text()))
    test = curve_from_json(json.loads(Path(args.test).read_text()))
    print(f"BD-RATE: {bd_rate(base, test):+.6f} %")
    print(f"BD-PSNR: {bd_psnr(base, test):+.6f} dB")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="texcodec",
        description="texture-analysis/synthesis video coding laboratory")
    p.add_argument("--version", action="version",
                   version=f"texcodec {__version__} (bitstream v{VERSION}, "
                           f"weights v{WEIGHTS_VERSION})")
    # option defaults are the library's
    enc, train, data = EncoderConfig(), TrainConfig(), DatasetConfig()
    models = [k.value for k in MotionModelKind]
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    # encode and rd-sweep pass --seed to the encoder as its motion_seed
    motion_seed = argparse.ArgumentParser(add_help=False)
    motion_seed.add_argument("--seed", type=int, default=enc.motion_seed)
    size = argparse.ArgumentParser(add_help=False)
    size.add_argument("--size", default=None, help="WxH for raw .yuv inputs")
    io_common = argparse.ArgumentParser(add_help=False, parents=[size])
    io_common.add_argument("--frames", type=int, default=None,
                           help="frame count limit for raw .yuv inputs")

    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", parents=[common],
                       help="synthesize a training dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--textures", type=int, default=data.n_texture)
    g.add_argument("--non-textures", type=int, default=data.n_non_texture)
    g.set_defaults(func=_cmd_gen_data)

    t = sub.add_parser("train", parents=[common],
                       help="train the block classifier")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--epochs", type=int, default=train.epochs)
    t.add_argument("--lr", type=float, default=train.learning_rate)
    t.add_argument("--momentum", type=float, default=train.momentum)
    t.add_argument("--weight-decay", type=float, default=train.weight_decay)
    t.add_argument("--batch", type=int, default=train.batch_size)
    t.add_argument("--target-acc", type=float, default=None,
                   help="stop once balanced validation accuracy reaches this")
    t.set_defaults(func=_cmd_train)

    s = sub.add_parser("segment", parents=[io_common],
                       help="write per-frame texture masks")
    s.add_argument("--weights", required=True)
    s.add_argument("--input", required=True)
    s.add_argument("--out-dir", required=True)
    s.add_argument("--threshold", type=float, default=0.5)
    s.add_argument("--min-region", type=int, default=0)
    s.set_defaults(func=_cmd_segment)

    m = sub.add_parser("motion", parents=[common, size],
                       help="estimate texture motion between two frames")
    m.add_argument("--cur", required=True)
    m.add_argument("--ref", required=True)
    m.add_argument("--mask", required=True)
    m.add_argument("--model", default=enc.model_kind.value, choices=models)
    m.add_argument("--verbose", action="store_true",
                   help="print the fit's inliers and residual to stderr")
    m.set_defaults(func=_cmd_motion)

    e = sub.add_parser("encode", parents=[motion_seed, io_common],
                       help="encode a sequence to a TXC1 bitstream")
    e.add_argument("--input", required=True)
    e.add_argument("--masks", default=None)
    e.add_argument("--q", type=int, default=enc.q_level)
    e.add_argument("--gf", type=int, default=enc.gf_group_size)
    e.add_argument("--no-texture", action="store_true")
    e.add_argument("--model", default=enc.model_kind.value, choices=models)
    e.add_argument("--out", required=True)
    e.add_argument("--stats", default=None)
    e.set_defaults(func=_cmd_encode)

    d = sub.add_parser("decode", help="decode a TXC1 bitstream to Y4M")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--out", required=True)
    d.set_defaults(func=_cmd_decode)

    r = sub.add_parser("rd-sweep", parents=[motion_seed, io_common],
                       help="baseline-vs-texture RD sweep with BD metrics")
    r.add_argument("--input", required=True)
    r.add_argument("--masks", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--q", default=",".join(map(str, DEFAULT_Q_LEVELS)))
    r.add_argument("--gf", type=int, default=enc.gf_group_size)
    r.add_argument("--model", default=enc.model_kind.value, choices=models)
    r.set_defaults(func=_cmd_rd_sweep)

    b = sub.add_parser("bd", help="BD metrics from two RD curve JSON files")
    b.add_argument("--baseline", required=True)
    b.add_argument("--test", required=True)
    b.set_defaults(func=_cmd_bd)
    return p


_DOMAIN_ERRORS = (Y4MError, BitstreamError, MotionError, MetricsError,
                  TrainingError, WeightsError, ValueError, OSError)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors, 0 on --help/--version
        return int(e.code or 0)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
