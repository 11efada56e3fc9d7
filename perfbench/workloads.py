"""The benchmark's three workloads.

Each workload makes its inputs from the seed (`setup`, with `digest` to
check that repeated set-ups agree), runs one operation
on them through a codec library's public API (`op`), checks what the
operation returned, and after the timed loop runs its checks across
operations and reports quality figures (`finish`).  Timed work happens only
inside the `stage` contexts the runner passes in; checks run outside them.

A workload object is bound to one library: `load("texcodec")`, the program
under test, or `load("refcodec")`, the frozen copy the runner times it
against.  Both are driven by the same code on inputs from the same seed.

Every op yields two timed stages, in the benchmark's workload-neutral
slots: `main_rel_ms` (the heavy stage) and `frame_rel_ms` (the per-frame
stage), each as its clock interval and the units of work it did.
`TIMINGS` names what each slot holds on the workload; `REFERENCE` gives the
frozen copy's time per unit of work for each slot, and per set-up, on the
reference machine: the scale the runner reports the program's relative
times in.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import math
from types import SimpleNamespace

import numpy as np

LAYERS = ("analyzer", "codec", "datasets", "metrics", "nnet", "sequences")


def load(package):
    """The layers of one codec library, by package name."""
    return SimpleNamespace(name=package, **{
        layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS})


class CheckError(Exception):
    """An output of the program is wrong."""


def check(cond, message):
    if not cond:
        raise CheckError(message)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sequence_digest(seq, masks=()) -> str:
    h = hashlib.sha256()
    for f in seq:
        for plane in (f.y, f.u, f.v):
            h.update(np.ascontiguousarray(plane).tobytes())
    for m in masks:
        h.update(m.labels.tobytes())
        h.update(m.probs.tobytes())
    return h.hexdigest()


def timings(main, frame, main_per=1, frame_per=1):
    """An op's result: each slot's stage interval and units of work."""
    return {"main_rel_ms": (main.start, main.end, main_per),
            "frame_rel_ms": (frame.start, frame.end, frame_per)}


def same_frames(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x.y, y.y) and np.array_equal(x.u, y.u)
        and np.array_equal(x.v, y.v) for x, y in zip(a, b))


def check_round_trip(seq, enc, dec):
    """The decoder (which verifies the per-frame CRCs) must reproduce the
    encoder's reconstructions sample for sample."""
    check(len(dec.sequence) == len(seq), "decoded frame count differs")
    check((dec.sequence.width, dec.sequence.height) == (seq.width, seq.height),
          "decoded dimensions differ")
    check(same_frames(dec.reconstructions, enc.reconstructions),
          "decoder output differs from the encoder's reconstruction")
    check(sum(fs.bits for fs in enc.frame_stats) <= 8 * len(enc.bitstream),
          "per-frame bits exceed the bitstream size")


class RdSweepPan:
    """The paper's experiment: `rd_sweep` on the 128x96 panning clip with its
    ground-truth masks, GF 8, q 16/24/28/32, texture mode off and on.  The
    clip is a KEY frame and three inter frames of a GF-8 group."""

    WIDTH, HEIGHT, FRAMES = 128, 96, 2
    Q_LEVELS = (16, 24, 28, 32)
    GF = 8
    REFERENCE = {"main_rel_ms": 3400.0, "frame_rel_ms": 212.5, "setup_s": 0.00107}
    TIMINGS = {"main_rel_ms": ("rd_sweep_s", "s", 1e-3),
               "frame_rel_ms": ("sweep_ms_per_coded_frame", "ms/frame", 1.0)}

    def __init__(self, seed, lib):
        self.seed = seed
        self.lib = lib
        self.reports = []

    def setup(self):
        seq, masks = self.lib.sequences.panning_texture_sequence(
            self.WIDTH, self.HEIGHT, n_frames=self.FRAMES, seed=self.seed)
        return {"seq": seq, "masks": masks}

    def digest(self, inp):
        return sequence_digest(inp["seq"], inp["masks"])

    def op(self, inp, stage):
        seq, masks = inp["seq"], inp["masks"]
        cfg = self.lib.codec.EncoderConfig(gf_group_size=self.GF)
        with stage() as s:
            report = self.lib.metrics.rd_sweep(seq, masks, q_levels=self.Q_LEVELS,
                                               base_config=cfg)
        self.check_report(report, len(seq))
        self.reports.append(report)
        coded = 2 * len(self.Q_LEVELS) * len(seq)
        return timings(s, s, 1, coded)

    def check_report(self, report, n_frames):
        """The report must be self-consistent: every saving recomputes from
        its two rates, every rate is a whole number of bytes per clip, and
        the curves are the per-level rows."""
        levels = report["levels"]
        check([r["q_level"] for r in levels] == list(self.Q_LEVELS),
              "report q levels differ from the request")
        for r in levels:
            rb, rt = r["rate_baseline"], r["rate_texture"]
            for rate in (rb, rt):
                nbytes = rate * n_frames / 8
                check(rate > 0 and abs(nbytes - round(nbytes)) < 1e-6,
                      f"rate {rate} is not a whole number of bytes per clip")
            for p in (r["psnr_baseline"], r["psnr_texture"]):
                check(0 < p <= self.lib.metrics.PSNR_CAP, f"PSNR {p} out of range")
            hi, lo = max(rb, rt), min(rb, rt)
            check(math.isclose(r["saving_percent"], (hi - lo) / hi * 100.0,
                               rel_tol=1e-12, abs_tol=1e-12),
                  "saving does not recompute from the rates")
            smaller = ("equal" if rb == rt else
                       "baseline" if rb < rt else "texture")
            check(r["smaller_rate"] == smaller, "smaller_rate is wrong")
        for key, name in (("baseline_curve", "baseline"),
                          ("texture_curve", "texture")):
            want = sorted((r[f"rate_{name}"], r[f"psnr_{name}"]) for r in levels)
            got = [(p["rate"], p["psnr"]) for p in report[key]]
            check(got == want, f"{key} does not match the per-level rows")
        for key in ("bd_rate_percent", "bd_psnr_db"):
            check(math.isfinite(report[key]), f"{key} is not finite")

    def finish(self, inp):
        """Reports of all ops on one input are identical; one report row is
        re-derived by an independent encode and decode."""
        check(all(r == self.reports[0] for r in self.reports),
              "rd_sweep gave different reports for the same input")
        report = self.reports[0]
        seq, masks = inp["seq"], inp["masks"]
        q = self.Q_LEVELS[self.seed % len(self.Q_LEVELS)]
        texture = bool(self.seed % 2)
        name = "texture" if texture else "baseline"
        enc = self.lib.codec.encode_sequence(seq, masks, self.lib.codec.EncoderConfig(
            q_level=q, gf_group_size=self.GF, texture_mode=texture))
        dec = self.lib.codec.decode_sequence(enc.bitstream)
        check_round_trip(seq, enc, dec)
        row = next(r for r in report["levels"] if r["q_level"] == q)
        check(row[f"rate_{name}"] == 8.0 * len(enc.bitstream) / len(seq),
              "report rate differs from an independent encode")
        check(row[f"psnr_{name}"] == self.lib.metrics.psnr_nontexture(
            seq, dec.sequence, masks),
            "report PSNR differs from an independent decode")
        quality = {"bd_rate_percent": (report["bd_rate_percent"], "%"),
                   "bd_psnr_db": (report["bd_psnr_db"], "dB")}
        info = {f"bitstream_sha256_q{q}_{name}": sha256(enc.bitstream),
                "report": report}
        return quality, info


class CodecCif:
    """Encode and decode of a KEY frame and three inter frames (GF 8) of a
    352x288 panning clip, texture mode on: partial 64x64 superblocks at the
    right and bottom edges, and most of the inter-frame area coded
    TEXTURE."""

    WIDTH, HEIGHT, FRAMES = 352, 288, 2
    Q_LEVEL = 24
    GF = 8
    REFERENCE = {"main_rel_ms": 1040.0, "frame_rel_ms": 115.0, "setup_s": 0.0104}
    TIMINGS = {"main_rel_ms": ("encode_ms_per_frame", "ms/frame", 1.0),
               "frame_rel_ms": ("decode_ms_per_frame", "ms/frame", 1.0)}

    def __init__(self, seed, lib):
        self.seed = seed
        self.lib = lib
        self.bitstreams = []
        self.decoded = None

    def setup(self):
        seq, masks = self.lib.sequences.panning_texture_sequence(
            self.WIDTH, self.HEIGHT, n_frames=self.FRAMES, seed=self.seed)
        return {"seq": seq, "masks": masks}

    def digest(self, inp):
        return sequence_digest(inp["seq"], inp["masks"])

    def op(self, inp, stage):
        seq, masks = inp["seq"], inp["masks"]
        cfg = self.lib.codec.EncoderConfig(q_level=self.Q_LEVEL, gf_group_size=self.GF,
                                  texture_mode=True)
        with stage() as enc_t:
            enc = self.lib.codec.encode_sequence(seq, masks, cfg)
        with stage() as dec_t:
            dec = self.lib.codec.decode_sequence(enc.bitstream)
        check_round_trip(seq, enc, dec)
        self.bitstreams.append(enc.bitstream)
        self.decoded = dec.sequence
        return timings(enc_t, dec_t, len(seq), len(seq))

    def finish(self, inp):
        check(all(b == self.bitstreams[0] for b in self.bitstreams),
              "encoder gave different bitstreams for the same input")
        seq, masks = inp["seq"], inp["masks"]
        bitstream = self.bitstreams[0]
        quality = {
            "bits_per_frame": (8.0 * len(bitstream) / len(seq), "bits"),
            "psnr_nontexture_db": (
                self.lib.metrics.psnr_nontexture(seq, self.decoded, masks), "dB"),
        }
        return quality, {"bitstream_sha256": sha256(bitstream)}


class AnalyzeCnn:
    """CNN training (train-mode forward/backward and SGD at batch 512) on a
    reduced synthetic patch set, then eval-mode segmentation of 352x288
    frames.  No codec layer runs here."""

    N_TEXTURE, N_NON_TEXTURE = 360, 1440
    EPOCHS = 1
    WIDTH, HEIGHT, FRAMES = 352, 288, 10
    REFERENCE = {"main_rel_ms": 1180.0, "frame_rel_ms": 85.0, "setup_s": 0.28}
    TIMINGS = {"main_rel_ms": ("train_s_per_epoch", "s/epoch", 1e-3),
               "frame_rel_ms": ("segment_ms_per_frame", "ms/frame", 1.0)}

    def __init__(self, seed, lib):
        self.seed = seed
        self.lib = lib
        self.outputs = []

    def setup(self):
        datasets = self.lib.datasets
        ds = datasets.synthesize_dataset(datasets.DatasetConfig(
            n_texture=self.N_TEXTURE, n_non_texture=self.N_NON_TEXTURE),
            seed=self.seed)
        seq, _ = self.lib.sequences.panning_texture_sequence(
            self.WIDTH, self.HEIGHT, n_frames=self.FRAMES, seed=self.seed)
        return {"dataset": ds, "seq": seq}

    def digest(self, inp):
        h = hashlib.sha256(inp["dataset"].patches.tobytes())
        h.update(inp["dataset"].labels.tobytes())
        h.update(sequence_digest(inp["seq"]).encode())
        return h.hexdigest()

    def op(self, inp, stage):
        lib = self.lib
        cfg = lib.nnet.TrainConfig(epochs=self.EPOCHS, rng_seed=self.seed)
        with stage() as train_t:
            net, log = lib.analyzer.train_classifier(inp["dataset"], cfg)
        with stage() as seg_t:
            masks = [lib.analyzer.segment_frame(f, net) for f in inp["seq"]]
        check(len(log) == self.EPOCHS, "training stopped early")
        for entry in log:
            check(math.isfinite(entry["train_loss"]), "non-finite training loss")
            check(0.0 <= entry["val_balanced_accuracy"] <= 1.0,
                  "validation accuracy out of range")
        gh, gw = self.HEIGHT // 16, self.WIDTH // 16
        for m in masks:
            check(m.labels.shape == (gh, gw), "mask grid has the wrong shape")
            check(np.all((m.probs >= 0) & (m.probs <= 1)),
                  "texture probability out of [0, 1]")
            check(np.array_equal(m.labels, (m.probs >= 0.5).astype(np.uint8)),
                  "mask labels disagree with their probabilities")
        buf = io.BytesIO()
        lib.nnet.save_params(net, buf)
        self.outputs.append((sha256(buf.getvalue()), sequence_digest((), masks),
                             log[-1]["val_balanced_accuracy"]))
        return timings(train_t, seg_t, self.EPOCHS, len(inp["seq"]))

    def finish(self, inp):
        check(all(o == self.outputs[0] for o in self.outputs),
              "training or segmentation gave different results for one input")
        weights, masks, accuracy = self.outputs[0]
        return ({"val_balanced_accuracy": (accuracy, "ratio")},
                {"weights_sha256": weights, "masks_sha256": masks})


WORKLOADS = {"rdsweep-pan": RdSweepPan, "codec-cif": CodecCif,
             "analyze-cnn": AnalyzeCnn}
