"""Rate-distortion evaluation: bits/frame, non-texture-region PSNR,
Bjontegaard BD-RATE / BD-PSNR over 4-point curves, and data-rate-saving
arithmetic."""

from __future__ import annotations

import multiprocessing
import os
import signal
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .codec import Q_LEVELS, EncoderConfig, _encode, decode_sequence
from .datasets import NON_TEXTURE
from .frames import BLOCK, Sequence, pad_frame

PSNR_CAP = 100.0


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class RDPoint:
    rate: float  # bits/frame
    psnr: float  # dB, non-texture-region PSNR

    def __post_init__(self):
        if not 0 < self.rate < np.inf:  # NaN fails both
            raise MetricsError("rate must be positive and finite")
        if not np.isfinite(self.psnr):
            raise MetricsError("psnr must be finite")


@dataclass(frozen=True)
class RDCurve:
    """Exactly four RD points, sorted by strictly increasing rate."""

    points: tuple[RDPoint, ...]

    def __post_init__(self):
        pts = tuple(sorted(self.points, key=lambda p: p.rate))
        if len(pts) != 4:
            raise MetricsError(f"an RD curve has 4 points, got {len(pts)}")
        rates = [p.rate for p in pts]
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise MetricsError("rates must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def rates(self):
        return np.array([p.rate for p in self.points])

    @property
    def psnrs(self):
        return np.array([p.psnr for p in self.points])


# ---------------------------------------------------------------------------
# primitive metrics


def psnr_nontexture(orig: Sequence, decoded: Sequence, masks) -> float:
    """Pooled-MSE luma PSNR over pixels in non-texture cells of every frame.
    Identical regions return the 100 dB cap."""
    if len(orig) != len(decoded):
        raise MetricsError("sequences differ in frame count")
    if (orig.width, orig.height) != (decoded.width, decoded.height):
        raise MetricsError("sequences differ in dimensions")
    if len(masks) != len(orig):
        raise MetricsError("need one mask per frame")
    sse, count = 0, 0
    for fo, fd, mask in zip(orig, decoded, masks):
        fo, fd = pad_frame(fo), pad_frame(fd)
        sel = np.kron(mask.labels == NON_TEXTURE,
                      np.ones((BLOCK, BLOCK), dtype=bool))
        if sel.shape != fo.y.shape:
            raise MetricsError("mask grid does not match frame dimensions")
        d = fo.y.astype(np.int64) - fd.y.astype(np.int64)
        sse += int((d[sel] ** 2).sum())
        count += int(sel.sum())
    if count == 0:
        raise MetricsError("empty evaluation region")
    if sse == 0:
        return PSNR_CAP
    mse = sse / count
    return min(10.0 * np.log10(255.0 ** 2 / mse), PSNR_CAP)


def bits_per_frame(bitstream, frame_count: int) -> float:
    """8 x file bytes / frames.  `bitstream` is a path or a bytes object."""
    if frame_count < 1:
        raise MetricsError("frame_count must be >= 1")
    nbytes = (len(bitstream) if isinstance(bitstream, (bytes, bytearray))
              else os.path.getsize(bitstream))
    return 8.0 * nbytes / frame_count


def data_rate_saving(rate_a: float, rate_b: float) -> tuple[float, str]:
    """Relative saving of the smaller rate versus the larger, in percent.
    Returns (percent, which) with which in {'first', 'second', 'equal'}."""
    if rate_a <= 0 or rate_b <= 0:
        raise MetricsError("rates must be positive")
    hi, lo = max(rate_a, rate_b), min(rate_a, rate_b)
    pct = (hi - lo) / hi * 100.0
    which = "equal" if rate_a == rate_b else (
        "first" if rate_a < rate_b else "second")
    return pct, which


# ---------------------------------------------------------------------------
# Bjontegaard deltas (classic cubic-fit variant)


def _check_monotone(curve: RDCurve):
    p = curve.psnrs
    if np.any(np.diff(p) <= 0):
        warnings.warn("RD curve PSNR not strictly increasing with rate")


def _avg_poly_diff(x1, y1, x2, y2, lo, hi):
    """Average of (fit2 - fit1) over [lo, hi] in the x domain, with a cubic
    fit of each curve."""
    p1 = np.polyfit(x1, y1, 3)
    p2 = np.polyfit(x2, y2, 3)
    int1 = np.polyint(p1)
    int2 = np.polyint(p2)
    a1 = np.polyval(int1, hi) - np.polyval(int1, lo)
    a2 = np.polyval(int2, hi) - np.polyval(int2, lo)
    return (a2 - a1) / (hi - lo)


def bd_rate(baseline: RDCurve, test: RDCurve) -> float:
    """Average rate change of `test` vs `baseline` in percent (negative =
    savings), integrating cubic fits of log10(rate) over the common PSNR
    interval."""
    for c in (baseline, test):
        _check_monotone(c)
    lo = max(baseline.psnrs.min(), test.psnrs.min())
    hi = min(baseline.psnrs.max(), test.psnrs.max())
    if hi <= lo:
        raise MetricsError("PSNR ranges do not overlap")
    avg = _avg_poly_diff(baseline.psnrs, np.log10(baseline.rates),
                         test.psnrs, np.log10(test.rates), lo, hi)
    return (10.0 ** avg - 1.0) * 100.0


def bd_psnr(baseline: RDCurve, test: RDCurve) -> float:
    """Average PSNR change of `test` vs `baseline` in dB (positive = gain),
    integrating cubic fits of PSNR over the common log10(rate) interval."""
    for c in (baseline, test):
        _check_monotone(c)
    lb, lt = np.log10(baseline.rates), np.log10(test.rates)
    lo = max(lb.min(), lt.min())
    hi = min(lb.max(), lt.max())
    if hi <= lo:
        raise MetricsError("rate ranges do not overlap")
    return float(_avg_poly_diff(lb, baseline.psnrs, lt, test.psnrs, lo, hi))


# ---------------------------------------------------------------------------
# full sweep


DEFAULT_Q_LEVELS = (16, 24, 28, 32)


def _usable_cpus() -> list[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return list(range(os.cpu_count() or 1))


def _start_worker(cpus: list[int], started) -> None:
    """Initializer of `rd_sweep`'s pool workers: the i-th worker to start
    (`started` counts them) runs on cpus[i % len(cpus)] alone, and SIGTERM
    gets its default action back."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    with started.get_lock():
        i = started.value
        started.value += 1
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})


def _code_q_level(seq: Sequence, masks, cfg: EncoderConfig):
    """(rate, psnr) of the baseline and of the texture encode at `cfg`'s q
    level, from one `_encode` of the two; a task of `rd_sweep`'s pool."""
    configs = [replace(cfg, texture_mode=False), replace(cfg, texture_mode=True)]
    out = []
    for enc in _encode(seq, masks, configs):
        dec = decode_sequence(enc.bitstream)
        out.append((bits_per_frame(enc.bitstream, len(seq)),
                    psnr_nontexture(seq, dec.sequence, masks)))
    return out


def rd_sweep(seq: Sequence, masks, q_levels=DEFAULT_Q_LEVELS,
             base_config: EncoderConfig | None = None) -> dict:
    """Encode at each q level with texture mode off (baseline) and on
    (proposed), measure (bits/frame, non-texture PSNR), and report both
    curves, BD deltas and per-level savings as a JSON-ready dict.

    The q levels run as one task each in a pool of up to min(4, CPU count)
    processes, each pinned to a CPU of its own; the pool is closed before
    this returns or raises."""
    q_levels = tuple(q_levels)
    if len(q_levels) != 4 or len(set(q_levels)) != 4 or not all(
            isinstance(q, int) and not isinstance(q, bool) and q in Q_LEVELS
            for q in q_levels):
        raise MetricsError(f"q_levels must be 4 distinct ints in "
                           f"[{Q_LEVELS[0]}, {Q_LEVELS[-1]}], "
                           f"got {q_levels!r}")
    if base_config is None:
        base_config = EncoderConfig()
    tasks = [(seq, masks, replace(base_config, q_level=q)) for q in q_levels]
    # Forked, not spawned: a spawned worker re-imports numpy and scipy,
    # about 0.9 s of CPU on a 2-vCPU Xeon VM, as much as a whole 2-frame
    # 128x96 sweep's encodes.  Each worker is pinned to a CPU of its own:
    # unpinned, Linux now and then starts both workers on one CPU of that
    # VM and leaves them sharing it for up to a second while the other CPU
    # idles, so that a sweep took 1.0-2.0x its usual wall time.  The
    # workers exit on close(), not on terminate()'s SIGTERM, unless a task
    # fails.  Then SIGTERM must end them, so each restores its default
    # action: a Python handler inherited from the caller can run just
    # before a worker blocks on a pool lock, and leave the worker, and the
    # join, waiting for good.
    ctx = multiprocessing.get_context("fork")
    cpus = _usable_cpus()
    with ctx.Pool(min(len(tasks), len(cpus)), initializer=_start_worker,
                  initargs=(cpus, ctx.Value("i", 0))) as pool:
        coded = pool.starmap(_code_q_level, tasks, chunksize=1)
        pool.close()
        pool.join()
    levels = []
    for q, ((rate_b, psnr_b), (rate_t, psnr_t)) in zip(q_levels, coded):
        row = {"q_level": q, "rate_baseline": rate_b, "psnr_baseline": psnr_b,
               "rate_texture": rate_t, "psnr_texture": psnr_t}
        pct, which = data_rate_saving(rate_b, rate_t)
        row["saving_percent"] = pct
        row["smaller_rate"] = {"first": "baseline", "second": "texture",
                               "equal": "equal"}[which]
        levels.append(row)
    base_curve = RDCurve(tuple(
        RDPoint(r["rate_baseline"], r["psnr_baseline"]) for r in levels))
    test_curve = RDCurve(tuple(
        RDPoint(r["rate_texture"], r["psnr_texture"]) for r in levels))
    return {
        "q_levels": list(q_levels),
        "levels": levels,
        "baseline_curve": [{"rate": p.rate, "psnr": p.psnr}
                           for p in base_curve.points],
        "texture_curve": [{"rate": p.rate, "psnr": p.psnr}
                          for p in test_curve.points],
        "bd_rate_percent": bd_rate(base_curve, test_curve),
        "bd_psnr_db": bd_psnr(base_curve, test_curve),
    }


def curve_from_json(points) -> RDCurve:
    """An RD curve from its JSON form: a list of {"rate", "psnr"} objects."""
    if not isinstance(points, list) or not all(
            isinstance(p, dict) and type(p.get("rate")) in (int, float)
            and type(p.get("psnr")) in (int, float) for p in points):
        raise MetricsError('an RD curve is a list of numeric {"rate", "psnr"}')
    return RDCurve(tuple(RDPoint(p["rate"], p["psnr"]) for p in points))


def format_report(report: dict) -> str:
    """Text table mirroring the per-q-level savings layout."""
    lines = [
        f"{'Q':>3} {'rate baseline':>14} {'rate texture':>13} "
        f"{'psnr base':>10} {'psnr tex':>9} {'saving %':>9}"
    ]
    for row in report["levels"]:
        lines.append(
            f"{row['q_level']:>3} {row['rate_baseline']:>14.1f} "
            f"{row['rate_texture']:>13.1f} {row['psnr_baseline']:>10.3f} "
            f"{row['psnr_texture']:>9.3f} {row['saving_percent']:>9.2f}"
        )
    lines.append(f"BD-RATE: {report['bd_rate_percent']:+.2f} %   "
                 f"BD-PSNR: {report['bd_psnr_db']:+.3f} dB")
    return "\n".join(lines)
