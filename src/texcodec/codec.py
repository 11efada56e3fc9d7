"""Quadtree block codec with a texture-synthesis mode.

Stand-in for a production encoder: 64x64 superblocks split down to 16x16,
modes INTRA_DC / INTER_MV / GLOBAL_WARP / TEXTURE, integer core-transform
residual coding with Exp-Golomb entropy codes, GF groups led by KEY frames,
and a decoder that is bit-exact by construction.  Texture blocks are forced
(no RD, no further split) to GLOBAL_WARP prediction from the group's
KEY-frame reconstruction with zero residual; the texture motion parameters
ride in the uncompressed frame header.  See docs/bitstream.md for the exact
"TXC1" version 3 layout.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .analyzer import TextureMask, all_texture_mask
from .bitio import (BitReader, BitstreamError, BitWriter, UePartsReader,
                    se_to_ue, ue_bits, ue_lengths, ue_parts, ue_to_se)
from .datasets import TEXTURE as TEXTURE_LABEL
from .frames import BLOCK, BlockRect, Frame, Sequence, crop_frame, pad16, pad_frame
from .motion import (AffineMotion, MotionError, MotionModelKind,
                     diamond_search, estimate_texture_motion, warp_frame,
                     warp_rect)
from .transform import (DC_BASIS, dequantize, inverse_sums, quant_step,
                        quantize, reconstruct_residual, round_shift, scan,
                        shift, transform_quantize, unscan)

MAGIC = b"TXC1"
VERSION = 3
# The TXC1 container layouts, little-endian; see docs/bitstream.md.  The
# file header: magic, version, width, height, frame count, gf, model code
_FILE_HEADER = struct.Struct("<4sBHHHBB")
_FRAME_HEADER = struct.Struct("<BB")  # frame type, q_level
_MOTION = struct.Struct("<6i")  # INTER only: Q16.16 a11 a12 a21 a22 tx ty
_U32 = struct.Struct("<I")  # each CRC of the footer
# a frame's payload length, and the byte lengths of its tree and prefix
# parts; the suffix part is the rest of the payload
_PAYLOAD = struct.Struct("<3I")
# the q_level and gf_group_size values a legal header holds
Q_LEVELS = range(1, 64)
GF_GROUP_SIZES = range(4, 17)
MODE_BITS = 2  # the width of a leaf's mode code
SUPERBLOCK = 64
MIN_BLOCK = 16
LUMA_TU = 16
CHROMA_TU = 8
# a frame's samples are one (c, h, w) array per TU size: "y", and "uv" with
# u first, then v
_TU = {"y": LUMA_TU, "uv": CHROMA_TU}
# Largest |level| of a quantized coefficient: a residual sample is at most
# 255 in magnitude and an n-point core-matrix row's L1 norm at most 64·n, so
# a coefficient is at most 255·(64·n)**2, and its step at least
# 2**shift(n): 255·1024**2 / 2**16 = 4080 for 16x16 TUs (2040 for 8x8).
MAX_LEVEL = 255 * (DC_BASIS * LUMA_TU) ** 2 >> shift(LUMA_TU)
# Largest padded frame area, in luma samples, that a decoder accepts: AV1's
# level 5 MaxPicSize.
MAX_FRAME_AREA = 8_912_896

_MODEL_CODE = {MotionModelKind.TRANSLATION: 0, MotionModelKind.ROTZOOM: 1,
               MotionModelKind.AFFINE: 2}
_MODEL_FROM_CODE = {v: k for k, v in _MODEL_CODE.items()}

KEY_FRAME, INTER_FRAME = 0, 1


def _frame_type(i: int, gf_group_size: int) -> int:
    """Frame i's type: each group of `gf_group_size` frames is led by a KEY
    frame."""
    return KEY_FRAME if i % gf_group_size == 0 else INTER_FRAME


class BlockMode(IntEnum):
    INTRA_DC = 0
    INTER_MV = 1
    GLOBAL_WARP = 2
    TEXTURE = 3


@dataclass
class EncoderConfig:
    q_level: int = 24
    gf_group_size: int = 8
    texture_mode: bool = True
    model_kind: MotionModelKind = MotionModelKind.ROTZOOM
    motion_seed: int = 1234

    def __post_init__(self):
        if self.gf_group_size not in GF_GROUP_SIZES:
            raise ValueError(f"gf_group_size must be in "
                             f"[{GF_GROUP_SIZES[0]}, {GF_GROUP_SIZES[-1]}]")
        if self.q_level not in Q_LEVELS:
            raise ValueError(
                f"q_level must be in [{Q_LEVELS[0]}, {Q_LEVELS[-1]}]")

    @property
    def rd_lambda(self) -> float:
        return 0.85 * self.q_level ** 2


@dataclass
class FrameStats:
    frame_index: int
    frame_type: str
    bits: int
    mode_counts: dict
    texture_area_fraction: float
    # INTER frames: the mask the texture motion was fitted on
    # ("texture_mask" or "whole_frame"), or "identity" when every fit
    # failed; with the fit's MotionStats.as_dict() unless it is "identity"
    motion_source: str | None = None
    motion_stats: dict | None = None

    def as_dict(self):
        return dict(self.__dict__)


@dataclass
class EncodeResult:
    bitstream: bytes
    frame_stats: list
    reconstructions: list  # padded Frame per input frame
    traces: list           # per frame: list of (BlockRect, BlockMode)


@dataclass
class DecodeResult:
    sequence: Sequence    # cropped to original dimensions
    reconstructions: list  # padded Frame per coded frame
    traces: list           # per frame: list of (BlockRect, BlockMode)


# ---------------------------------------------------------------------------
# texture block decision


def is_texture_block(rect: BlockRect, cur_mask: TextureMask,
                     ref_mask: TextureMask, m: AffineMotion,
                     ref_width: int, ref_height: int) -> bool:
    """A block is a texture block when it lies entirely inside the current
    frame's texture region and its warped footprint (corner bounding box,
    padded by 1 px of bilinear support) lies entirely inside the reference
    frame's texture region and inside the reference frame itself."""
    cols, rows = rect.cells()
    for gy in rows:
        for gx in cols:
            if cur_mask.labels[gy, gx] != TEXTURE_LABEL:
                return False
    corners = warp_rect(m, rect)
    xs = [c[0] for c in corners]
    ys = [c[1] for c in corners]
    x0, x1 = min(xs) - 1.0, max(xs) + 1.0
    y0, y1 = min(ys) - 1.0, max(ys) + 1.0
    if x0 < 0 or y0 < 0 or x1 > ref_width - 1 or y1 > ref_height - 1:
        return False
    for gy in range(int(np.floor(y0 / BLOCK)), int(np.floor(y1 / BLOCK)) + 1):
        for gx in range(int(np.floor(x0 / BLOCK)), int(np.floor(x1 / BLOCK)) + 1):
            if ref_mask.labels[gy, gx] != TEXTURE_LABEL:
                return False
    return True


# ---------------------------------------------------------------------------
# shared frame coding context


@dataclass
class _Leaf:
    mode: BlockMode
    mv: tuple[int, int] | None = None
    # "y"/"uv" -> (c, k, tu, tu) levels of each plane's k TUs, raster order
    levels: dict = field(default_factory=dict)
    # "y"/"uv" -> (c, s, s) reconstruction, kept by the RD search to paste
    recon: dict | None = None


def _planes(f: Frame | None):
    return None if f is None else {"y": f.y[None], "uv": f.uv}


class _FrameCtx:
    """State shared between RD search, bit emission and decoding for one
    frame: working reconstruction planes plus prediction sources.  An INTER
    frame predicts from the previous reconstruction and from the group's KEY
    reconstruction warped by `motion`."""

    def __init__(self, pw, ph, q_step, frame_type, key_recon=None,
                 prev_recon=None, motion=None, orig=None, rd_lambda=0.0):
        self.pw, self.ph = pw, ph
        self.q_step = q_step
        self.frame_type = frame_type
        self.motion: AffineMotion | None = motion
        self.orig = _planes(orig)
        self.rd_lambda = rd_lambda
        self.prev_recon = self.warped = None
        if frame_type == INTER_FRAME:
            self.prev_recon = _planes(prev_recon)
            self.warped = _planes(warp_frame(key_recon, motion))
        self.recon = {"y": np.zeros((1, ph, pw), np.uint8),
                      "uv": np.zeros((2, ph // 2, pw // 2), np.uint8)}

    def recon_frame(self, frame_index) -> Frame:
        """The coded frame; Frame() makes the working arrays read-only."""
        return Frame(y=self.recon["y"][0], uv=self.recon["uv"],
                     frame_index=frame_index)


def _children(ctx: _FrameCtx, rect: BlockRect):
    """The quadrants of a split node that start inside the frame, z-order."""
    half = rect.size // 2
    for cy in (0, 1):
        for cx in (0, 1):
            child = BlockRect(rect.x + cx * half, rect.y + cy * half, half)
            if child.x < ctx.pw and child.y < ctx.ph:
                yield child


def _split_flag_coded(ctx: _FrameCtx, rect: BlockRect) -> bool:
    """A node codes a split flag when it lies wholly inside the frame and is
    larger than MIN_BLOCK.  A partial node is always split, uncoded."""
    return (rect.size > MIN_BLOCK and rect.x + rect.size <= ctx.pw
            and rect.y + rect.size <= ctx.ph)


def _superblock_rows(ctx: _FrameCtx):
    """The superblocks in coding order, one list per row."""
    for sy in range(0, ctx.ph, SUPERBLOCK):
        yield [BlockRect(sx, sy, SUPERBLOCK)
               for sx in range(0, ctx.pw, SUPERBLOCK)]


def _plane_rect(plane, rect):
    if plane == "y":
        return rect.x, rect.y, rect.size
    return rect.x // 2, rect.y // 2, rect.size // 2


def _block(planes: dict, plane: str, rect: BlockRect) -> np.ndarray:
    """The (c, s, s) block of `planes[plane]` that `rect` covers."""
    x, y, s = _plane_rect(plane, rect)
    return planes[plane][:, y:y + s, x:x + s]


def _dc_predict(recon: np.ndarray, x, y, s) -> np.ndarray:
    """Each plane's DC prediction of its (s, s) block at (x, y) in the
    (c, h, w) `recon`: the rounded mean of the row above and the column
    left, 128 where neither is in the frame."""
    n = s * ((y > 0) + (x > 0))
    if n == 0:
        return np.full(len(recon), 128, np.int64)
    total = 0
    if y > 0:
        total = recon[:, y - 1, x:x + s].sum(axis=-1, dtype=np.int64)
    if x > 0:
        total = total + recon[:, y:y + s, x - 1].sum(axis=-1, dtype=np.int64)
    return (total + n // 2) // n


def _prediction(ctx: _FrameCtx, leaf: _Leaf, rect: BlockRect,
                plane: str) -> np.ndarray:
    """The leaf's (c, s, s) int64 prediction of the `plane` array."""
    if leaf.mode == BlockMode.INTRA_DC:
        x, y, s = _plane_rect(plane, rect)
        dc = _dc_predict(ctx.recon[plane], x, y, s)
        return np.repeat(dc, s * s).reshape(-1, s, s)
    if leaf.mode == BlockMode.INTER_MV:
        dx, dy = leaf.mv  # x and y are even: chroma moves (dx // 2, dy // 2)
        moved = BlockRect(rect.x + dx, rect.y + dy, rect.size)
        return _block(ctx.prev_recon, plane, moved).astype(np.int64)
    # GLOBAL_WARP and TEXTURE share the warped texture reference
    return _block(ctx.warped, plane, rect).astype(np.int64)


def _tiles(blocks: np.ndarray, tu: int) -> np.ndarray:
    """(..., h, w) blocks as their (..., k, tu, tu) TUs in raster order."""
    *lead, h, w = blocks.shape
    return blocks.reshape(*lead, h // tu, tu, w // tu, tu).swapaxes(
        -3, -2).reshape(*lead, (h // tu) * (w // tu), tu, tu)


def _untile(tiles: np.ndarray, h: int, w: int) -> np.ndarray:
    """The inverse of `_tiles`: (..., k, tu, tu) TUs -> (..., h, w)."""
    *lead, _, tu, _ = tiles.shape
    return tiles.reshape(*lead, h // tu, w // tu, tu, tu).swapaxes(
        -3, -2).reshape(*lead, h, w)


def _reconstruct(pred: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """(..., h, w) int64 predictions plus their (..., k, tu, tu) TUs'
    residual, clipped to uint8: the one reconstruction rule of the RD
    search and the decoder.  (`_intra_leaf` computes the same sums by
    parts.)"""
    res = _untile(residual, *pred.shape[-2:])
    res += pred
    return _to_uint8(res)


def _to_uint8(samples: np.ndarray) -> np.ndarray:
    """Integer samples clipped to 0..255, as uint8."""
    return np.minimum(np.maximum(samples, 0), 255).astype(np.uint8)


def _reconstruct_leaf(ctx: _FrameCtx, leaf: _Leaf, rect: BlockRect,
                      residual: dict | None = None) -> dict:
    """A leaf's (c, s, s) reconstructed block per array, from the residual
    of its TUs: `residual[plane]` (c, k, tu, tu), or when None the residual
    its levels code; identical on encoder and decoder.  Reads the working
    recon planes only outside `rect` (the INTRA_DC neighbours)."""
    out = {}
    for plane in _TU:
        pred = _prediction(ctx, leaf, rect, plane)
        if leaf.mode == BlockMode.TEXTURE:  # the warp, with no residual
            out[plane] = pred.astype(np.uint8)
            continue
        res = (reconstruct_residual(leaf.levels[plane], ctx.q_step)
               if residual is None else residual[plane])
        out[plane] = _reconstruct(pred, res)
    return out


def _paste(ctx: _FrameCtx, rect: BlockRect, blocks: dict) -> None:
    """Write per-array blocks into the working recon planes at `rect`."""
    for plane in _TU:
        _block(ctx.recon, plane, rect)[:] = blocks[plane]


def _coeff_codes(levels: np.ndarray):
    """The ue() values that code (..., n, n) levels, TU after TU in their
    flat order: for each TU ue(count), then for each nonzero level in
    zig-zag order ue(run) and ue(se_to_ue(level)).  Returns them and the
    index of each TU's ue(count) in them."""
    flat = scan(levels).reshape(-1, levels.shape[-1] ** 2)
    tu, pos = np.nonzero(flat)
    counts = np.bincount(tu, minlength=len(flat))
    first = np.cumsum(counts) - counts  # each TU's first index into `pos`
    run = pos.copy()
    run[1:] -= pos[:-1] + 1  # zeros since the previous nonzero level
    lead = first[counts > 0]
    run[lead] = pos[lead]  # a TU's first run counts from its start
    codes = np.empty(len(flat) + 2 * len(pos), np.int64)
    # TU t's ue(count) follows t counts and the 2 * first[t] earlier codes
    starts = np.arange(len(flat)) + 2 * first
    codes[starts] = counts
    at = tu + 2 * np.arange(len(pos)) + 1  # where each level's ue(run) goes
    codes[at] = run
    codes[at + 1] = se_to_ue(flat[tu, pos])
    return codes, starts


# ---------------------------------------------------------------------------
# encoder


def _leaf_bits(leaf: _Leaf, with_flag: bool) -> int:
    """Bits a leaf takes in the frame's parts, plus its split flag when
    `with_flag`, counted from the code lengths without writing them: its
    mode, an INTER_MV leaf's MV, and its levels' codes."""
    bits = int(with_flag) + MODE_BITS
    if leaf.mode == BlockMode.INTER_MV:
        bits += ue_bits(se_to_ue(np.array(leaf.mv, np.int64)))
    if leaf.mode != BlockMode.TEXTURE:
        bits += sum(ue_bits(_coeff_codes(leaf.levels[plane])[0])
                    for plane in _TU)
    return bits


def _ssd(orig: np.ndarray, recon: np.ndarray) -> int:
    """The SSD of two uint8 blocks."""
    d = orig.astype(np.int64) - recon
    return int(np.vdot(d, d))


def _code_tus(orig: np.ndarray, pred: np.ndarray, tu: int, q_step: int):
    """Code (..., h, w) int64 predictions of the (..., h, w) uint8 `orig`
    samples in (tu, tu) TUs.  Returns the (..., k, tu, tu) levels, the
    (..., h, w) reconstruction, and per TU (..., k) the bits of its codes
    (the per-TU sums of the ue() code array the writer emits) and its
    SSD."""
    levels = transform_quantize(_tiles(orig - pred, tu), q_step)
    recon = _reconstruct(pred, reconstruct_residual(levels, q_step))
    codes, starts = _coeff_codes(levels)
    bits = np.add.reduceat(ue_lengths(codes), starts)
    d = _tiles(orig.astype(np.int64) - recon, tu)
    return (levels, recon, bits.reshape(levels.shape[:-2]),
            (d * d).sum(axis=(-2, -1)))


def _code_leaves(ctx: _FrameCtx, leaves: list, rects: list):
    """Code same-size INTER_MV leaves, whose MVs are set, as one stack per
    TU size: fills in each leaf's levels and reconstruction, and returns
    the lists of their bits after the split flag and of their SSDs."""
    bits = MODE_BITS + ue_lengths(se_to_ue(
        np.array([leaf.mv for leaf in leaves], np.int64))).sum(axis=1)
    dist = np.zeros(len(leaves), np.int64)
    for leaf in leaves:
        leaf.recon = {}
    for plane, tu in _TU.items():
        pred = np.array([_prediction(ctx, leaf, rect, plane)
                         for leaf, rect in zip(leaves, rects)])
        orig = np.array([_block(ctx.orig, plane, rect) for rect in rects])
        levels, recon, b, d = _code_tus(orig, pred, tu, ctx.q_step)
        for leaf, leaf_levels, leaf_recon in zip(leaves, levels, recon):
            leaf.levels[plane] = leaf_levels
            leaf.recon[plane] = leaf_recon
        bits += b.sum(axis=(1, 2))
        dist += d.sum(axis=(1, 2))
    return bits.tolist(), dist.tolist()


def _coefficient_parts(leaves: list) -> tuple[bytes, bytes]:
    """The prefix and suffix parts of a frame's coefficient codes, from its
    leaves in coding order: every TU's ue(count), then every TU's
    (ue(run), se(level)) pairs, both in one TU order (each leaf's luma TUs,
    leaf after leaf; then each leaf's U TUs and V TUs, leaf after leaf)."""
    counts, pairs = [], []
    for plane, tu in _TU.items():
        codes, starts = _coeff_codes(np.concatenate(
            [np.empty((0, tu, tu), np.int16)]
            + [leaf.levels[plane].reshape(-1, tu, tu) for leaf in leaves
               if leaf.mode != BlockMode.TEXTURE]))
        is_count = np.zeros(len(codes), bool)
        is_count[starts] = True
        counts.append(codes[is_count])
        pairs.append(codes[~is_count])
    return ue_parts(np.concatenate(counts + pairs))


def _write_tree(bw: BitWriter, ctx: _FrameCtx, tree, rect: BlockRect,
                leaves: list) -> None:
    """Emit a decided tree's tree-part syntax: `tree` is a _Leaf, or the
    list of its in-frame children's trees (a split).  Appends each leaf, as
    (rect, _Leaf) without its reconstruction, to `leaves`."""
    split = isinstance(tree, list)
    if _split_flag_coded(ctx, rect):
        bw.write_bit(int(split))
    if split:
        for child, subtree in zip(_children(ctx, rect), tree):
            _write_tree(bw, ctx, subtree, child, leaves)
        return
    bw.write_bits(int(tree.mode), MODE_BITS)
    if tree.mode == BlockMode.INTER_MV:
        for v in tree.mv:
            bw.write_ue(se_to_ue(v))
    # the leaf as the coefficient parts need it, its levels in copies that
    # hold no RD table alive (every level fits int16)
    leaves.append((rect, _Leaf(tree.mode, tree.mv, {
        plane: levels.astype(np.int16) for plane, levels in
        tree.levels.items()})))


def _searched_nodes(ctx: _FrameCtx, rect: BlockRect, cfg: EncoderConfig,
                    cur_mask, ref_mask):
    """The nodes under `rect` that the RD search of an INTER frame
    evaluates, in search order: the nodes wholly inside the frame with no
    texture-forced ancestor or self.  Calls `is_texture_block` once per
    full node it reaches."""
    if rect.size == MIN_BLOCK or _split_flag_coded(ctx, rect):
        if (cfg.texture_mode and cur_mask is not None
                and is_texture_block(rect, cur_mask, ref_mask, ctx.motion,
                                     ctx.pw, ctx.ph)):
            return
        yield rect
        if rect.size == MIN_BLOCK:
            return
    for child in _children(ctx, rect):
        yield from _searched_nodes(ctx, child, cfg, cur_mask, ref_mask)


class _IntraTable(NamedTuple):
    """A superblock row's INTRA_DC coding of one sample array, per TU
    ([channel, TU row, TU column]): the part that no DC prediction changes.
    The core matrix's AC rows sum to 0, so orig - dc has orig's AC
    coefficients whatever the constant dc, and of a TU's codes only its DC
    level's code, its count and its first run depend on dc."""
    levels: np.ndarray  # (c, R, C, tu, tu) int16 AC levels; the DC one is 0
    sums: np.ndarray    # (c, h, w) the inverse's pre-shift sums of those
    total: np.ndarray   # (c, R, C) each TU's sum of orig samples
    bits: np.ndarray    # (c, R, C) its code bits with a zero DC level
    # (c, R, C) the bits a nonzero DC level adds besides its se() code: its
    # ue(0) run, a longer count, and a first AC run shorter by one
    dc_bits: np.ndarray


class _WarpTable(NamedTuple):
    """A superblock row's GLOBAL_WARP coding of one sample array, per TU:
    the warp prediction does not depend on the node size, so a node's leaf
    is its TUs' levels and reconstruction, and the sums of their bits and
    SSDs."""
    levels: np.ndarray  # (c, R, C, tu, tu)
    recon: np.ndarray   # (c, h, w) uint8
    bits: np.ndarray    # (c, R, C)
    ssd: np.ndarray     # (c, R, C)


class _RowTables(NamedTuple):
    """What the RD search of one row of superblocks codes up front."""
    y: int        # the row's first luma row
    intra: dict   # "y"/"uv" -> _IntraTable
    warp: dict | None  # "y"/"uv" -> _WarpTable; None in a KEY frame
    mv: dict      # each node an INTER frame searches -> its INTER_MV's
    #               (leaf, bits after the split flag, SSD)


def _intra_table(orig: np.ndarray, tu: int, q_step: int) -> _IntraTable:
    """The INTRA_DC table of a (c, h, w) uint8 band of samples: one forward
    and one inverse transform."""
    c, h, w = orig.shape
    grid = (c, h // tu, w // tu)
    tiles = _tiles(orig, tu)
    levels = transform_quantize(tiles, q_step)
    levels[..., 0, 0] = 0
    codes, starts = _coeff_codes(levels)
    count = codes[starts]
    dc_bits = 1 + ue_lengths(count + 1) - ue_lengths(count)
    lead = count > 0
    first = codes[starts[lead] + 1]  # each first run: the AC level's position
    dc_bits[lead] += ue_lengths(first - 1) - ue_lengths(first)
    return _IntraTable(
        levels=levels.astype(np.int16).reshape(*grid, tu, tu),
        sums=_untile(inverse_sums(dequantize(levels, q_step)), h, w),
        total=tiles.sum(axis=(-2, -1), dtype=np.int64).reshape(grid),
        bits=np.add.reduceat(ue_lengths(codes), starts).reshape(grid),
        dc_bits=dc_bits.reshape(grid))


def _warp_table(orig: np.ndarray, warped: np.ndarray, tu: int,
                q_step: int) -> _WarpTable:
    """The GLOBAL_WARP table of a (c, h, w) uint8 band of samples and of
    its warp prediction."""
    c, h, w = orig.shape
    grid = (c, h // tu, w // tu)
    levels, recon, bits, ssd = _code_tus(orig, warped.astype(np.int64), tu,
                                         q_step)
    return _WarpTable(levels.reshape(*grid, tu, tu), recon,
                      bits.reshape(grid), ssd.reshape(grid))


def _row_tables(ctx: _FrameCtx, row: list, cfg: EncoderConfig, cur_mask,
                ref_mask) -> _RowTables:
    """The tables the RD search of one row of superblocks builds its
    candidates from.  Per TU size, one INTRA_DC table of the row's samples
    and, in an INTER frame, one GLOBAL_WARP table; and the INTER_MV leaf of
    each node the search evaluates: per node size, one lockstep diamond
    search of that size's nodes, then one `_code_leaves` stack.  None of
    these reads the working planes."""
    y = row[0].y
    band = {}
    for plane in _TU:
        _, py, ps = _plane_rect(plane, BlockRect(0, y, SUPERBLOCK))
        band[plane] = (slice(None), slice(py, py + ps))
    intra = {plane: _intra_table(ctx.orig[plane][band[plane]], tu,
                                 ctx.q_step) for plane, tu in _TU.items()}
    if ctx.frame_type == KEY_FRAME:
        return _RowTables(y, intra, None, {})
    warp = {plane: _warp_table(ctx.orig[plane][band[plane]],
                               ctx.warped[plane][band[plane]], tu, ctx.q_step)
            for plane, tu in _TU.items()}
    mv = {}
    nodes = [node for sb in row
             for node in _searched_nodes(ctx, sb, cfg, cur_mask, ref_mask)]
    for size in sorted({rect.size for rect in nodes}):
        rects = [rect for rect in nodes if rect.size == size]
        leaves = [_Leaf(mode=BlockMode.INTER_MV, mv=tuple(mv))
                  for mv in diamond_search(
                      ctx.orig["y"][0], ctx.prev_recon["y"][0],
                      [rect.x for rect in rects], [rect.y for rect in rects],
                      size).tolist()]
        mv.update(zip(rects, zip(leaves, *_code_leaves(ctx, leaves, rects))))
    return _RowTables(y, intra, warp, mv)


def _cells(tables: _RowTables, plane: str, rect: BlockRect):
    """The slices of a node's TU rows and columns in the `plane` tables of
    its row, and of its sample rows and columns in their (c, h, w)
    arrays."""
    x, y, s = _plane_rect(plane, BlockRect(rect.x, rect.y - tables.y,
                                           rect.size))
    tu = _TU[plane]
    return (slice(y // tu, (y + s) // tu), slice(x // tu, (x + s) // tu),
            slice(y, y + s), slice(x, x + s))


def _warp_leaf(tables: _RowTables, rect: BlockRect):
    """A node's GLOBAL_WARP (leaf, bits after the split flag, SSD), from
    its row's tables."""
    leaf = _Leaf(mode=BlockMode.GLOBAL_WARP, recon={})
    bits = dist = 0
    for plane, table in tables.warp.items():
        rows, cols, ys, xs = _cells(tables, plane, rect)
        levels = table.levels[:, rows, cols]
        leaf.levels[plane] = levels.reshape(len(levels), -1, _TU[plane],
                                            _TU[plane])
        leaf.recon[plane] = table.recon[:, ys, xs]
        bits += int(table.bits[:, rows, cols].sum())
        dist += int(table.ssd[:, rows, cols].sum())
    return leaf, MODE_BITS + bits, dist


def _intra_leaf(ctx: _FrameCtx, tables: _RowTables, rect: BlockRect):
    """A node's INTRA_DC (leaf, bits after the split flag, SSD), from its
    row's tables and its DC predictions, with no transform.  A TU's DC
    coefficient is DC_BASIS**2 times its residual's sum, and its DC level
    adds DC_BASIS**2 * q_step * level to each of its inverse's sums."""
    leaf = _Leaf(mode=BlockMode.INTRA_DC, recon={})
    bits, dist = MODE_BITS, 0
    for plane, table in tables.intra.items():
        tu = _TU[plane]
        x, y, s = _plane_rect(plane, rect)
        pred = _dc_predict(ctx.recon[plane], x, y, s)[:, None, None]
        rows, cols, ys, xs = _cells(tables, plane, rect)
        dc = quantize(DC_BASIS ** 2 * (table.total[:, rows, cols]
                                       - tu * tu * pred),
                      quant_step(ctx.q_step, tu))
        levels = table.levels[:, rows, cols].astype(np.int64)
        levels[..., 0, 0] = dc
        leaf.levels[plane] = levels.reshape(len(levels), -1, tu, tu)
        # adding pred << shift before the rounding shift adds pred after it
        offset = DC_BASIS ** 2 * ctx.q_step * dc + (pred << shift(tu))
        m = s // tu
        recon = _to_uint8(round_shift(
            table.sums[:, ys, xs].reshape(-1, m, tu, m, tu)
            + offset[:, :, None, :, None], tu)).reshape(-1, s, s)
        leaf.recon[plane] = recon
        dist += _ssd(ctx.orig[plane][:, y:y + s, x:x + s], recon)
        # a TU with a nonzero DC level adds dc_bits and the level's code
        extra = table.dc_bits[:, rows, cols] + ue_lengths(se_to_ue(dc))
        bits += int(table.bits[:, rows, cols].sum()
                    + extra[dc != 0].sum())
    return leaf, bits, dist


def _candidates(ctx: _FrameCtx, tables: _RowTables, rect: BlockRect):
    """A searched node's candidate leaves, each (leaf, bits after the split
    flag, SSD), in the order that implements the tie-break preference
    GLOBAL_WARP > INTER_MV > INTRA_DC."""
    intra = _intra_leaf(ctx, tables, rect)
    if tables.warp is None:
        return [intra]
    return [_warp_leaf(tables, rect), tables.mv[rect], intra]


def _search_node(ctx: _FrameCtx, rect: BlockRect, tables: _RowTables):
    """RD-search one quadtree node; returns (tree, bits, dist) and leaves the
    chosen tree's reconstruction in the working recon planes.  The search
    reads those planes only above and left of `rect` (the INTRA_DC
    neighbours, already decided), so what `rect` held before is never read."""
    flag = _split_flag_coded(ctx, rect)
    if rect.size > MIN_BLOCK and not flag:  # a partial node: always split
        return _search_split(ctx, rect, tables)

    # an INTER frame searches the nodes its INTER_MV table holds; any other
    # full node is texture-forced: no RD, no split
    if ctx.frame_type == INTER_FRAME and rect not in tables.mv:
        leaf = _Leaf(mode=BlockMode.TEXTURE)
        blocks = _reconstruct_leaf(ctx, leaf, rect)
        _paste(ctx, rect, blocks)
        dist = sum(_ssd(_block(ctx.orig, p, rect), blocks[p]) for p in blocks)
        return leaf, _leaf_bits(leaf, flag), dist

    # TEXTURE > GLOBAL_WARP > INTER_MV > INTRA_DC > SPLIT (strict < to replace)
    best = None
    for leaf, bits, dist in _candidates(ctx, tables, rect):
        bits += flag
        cost = dist + ctx.rd_lambda * bits
        if best is None or cost < best[0]:
            best = (cost, leaf, bits, dist)
    if flag:
        tree, sbits, sdist = _search_split(ctx, rect, tables)
        sbits += 1  # the split flag
        if sdist + ctx.rd_lambda * sbits < best[0]:
            return tree, sbits, sdist
    _paste(ctx, rect, best[1].recon)
    return best[1], best[2], best[3]


def _search_split(ctx, rect, tables):
    """Search the in-frame children in z-order; each leaves its chosen
    reconstruction in place as context for the next sibling."""
    children, bits, dist = [], 0, 0
    for child in _children(ctx, rect):
        tree, b, d = _search_node(ctx, child, tables)
        children.append(tree)
        bits += b
        dist += d
    return children, bits, dist


def _q16(m: AffineMotion) -> tuple:
    """The six Q16.16 ints of a frame header that code `m`, rounded."""
    return tuple(int(round(v * 65536.0)) for v in m.as_tuple())


def _q16_motion(raw) -> AffineMotion:
    """The motion that six Q16.16 header ints code."""
    return AffineMotion(*(v / 65536.0 for v in raw))


def _estimate_frame_motion(cur: Frame, key_recon: Frame, cur_mask, cfg):
    """The Q16.16 header ints of the texture motion against the group's KEY
    reconstruction, the mask it was fitted on and the fit's stats.  Without
    a usable texture region (or in baseline mode), or when the fit on it
    fails, the model is fitted on the whole frame so GLOBAL_WARP stays
    available; when that fails too, the motion is the identity."""
    gh, gw = cur.height // BLOCK, cur.width // BLOCK
    masks = []
    if cfg.texture_mode and cur_mask is not None \
            and np.any(cur_mask.labels == TEXTURE_LABEL):
        masks.append(("texture_mask", cur_mask))
    masks.append(("whole_frame", all_texture_mask(gh, gw)))
    for source, mask in masks:
        try:
            m, stats = estimate_texture_motion(cur, key_recon, mask,
                                               cfg.model_kind,
                                               cfg.motion_seed)
            return _q16(m), source, stats.as_dict()
        except MotionError:
            continue
    return _q16(AffineMotion.identity()), "identity", None


class _CodedFrame(NamedTuple):
    data: bytes  # frame header, payload length and payload
    recon: Frame
    trace: list
    stats: FrameStats
    crc: int


def _encode_frame(i: int, frame: Frame, cur_mask, config: EncoderConfig,
                  key_recon: Frame | None, prev_recon: Frame | None,
                  key_mask) -> _CodedFrame:
    """Code padded frame `i`.  A KEY frame reads neither the references,
    the masks nor `config.texture_mode`."""
    ftype = _frame_type(i, config.gf_group_size)
    is_key = ftype == KEY_FRAME
    pw, ph = frame.width, frame.height
    header = _FRAME_HEADER.pack(ftype, config.q_level)
    m = ref_mask = source = motion_stats = None
    if not is_key:
        q16, source, motion_stats = _estimate_frame_motion(
            frame, key_recon, cur_mask, config)
        header += _MOTION.pack(*q16)
        m = _q16_motion(q16)
        ref_mask = key_mask
    ctx = _FrameCtx(pw, ph, config.q_level, ftype, key_recon=key_recon,
                    prev_recon=prev_recon, motion=m, orig=frame,
                    rd_lambda=config.rd_lambda)

    bw = BitWriter()
    leaves = []
    for row in _superblock_rows(ctx):
        tables = _row_tables(ctx, row, config, cur_mask, ref_mask)
        for rect in row:
            tree, _, _ = _search_node(ctx, rect, tables)
            _write_tree(bw, ctx, tree, rect, leaves)
        del tables  # before the next row's are built
    tree = bw.to_bytes()
    prefix, suffix = _coefficient_parts([leaf for _, leaf in leaves])
    data = b"".join([header, _PAYLOAD.pack(
        len(tree) + len(prefix) + len(suffix), len(tree), len(prefix)),
        tree, prefix, suffix])
    trace = [(rect, leaf.mode) for rect, leaf in leaves]

    recon = ctx.recon_frame(i)
    mode_counts = {mode.name: 0 for mode in BlockMode}
    tex_area = 0
    for rect, mode in trace:
        mode_counts[mode.name] += 1
        if mode == BlockMode.TEXTURE:
            tex_area += rect.size * rect.size
    stats = FrameStats(
        frame_index=i,
        frame_type="KEY" if is_key else "INTER",
        bits=8 * len(data),
        mode_counts=mode_counts,
        texture_area_fraction=tex_area / (pw * ph),
        motion_source=source,
        motion_stats=motion_stats,
    )
    return _CodedFrame(data, recon, trace, stats, _recon_crc(recon))


def _encode(seq: Sequence, masks,
            configs: list[EncoderConfig]) -> list[EncodeResult]:
    """Encode a sequence once per config; the configs may differ only in
    `texture_mode`.  Each KEY frame is coded once and shared by every
    config, as it reads neither the masks nor `texture_mode`; each config
    codes its own INTER frames, each predicted from that config's previous
    reconstruction."""
    first = configs[0] if configs else None
    if first is None or any(replace(c, texture_mode=first.texture_mode)
                            != first for c in configs):
        raise ValueError("configs must be given and differ only in "
                         "texture_mode")
    if any(c.texture_mode for c in configs) and (
            masks is None or len(masks) != len(seq)):
        raise ValueError("texture_mode requires one mask per frame")
    pw, ph = pad16(seq.width), pad16(seq.height)
    if pw * ph > MAX_FRAME_AREA:
        raise ValueError(f"padded frame {pw}x{ph} exceeds {MAX_FRAME_AREA} "
                         f"luma samples")
    padded = [pad_frame(f) for f in seq]
    if masks is not None:
        for f, m in zip(padded, masks):
            if (m.grid_h, m.grid_w) != (ph // BLOCK, pw // BLOCK):
                raise ValueError(
                    f"mask grid {m.grid_w}x{m.grid_h} does not match padded "
                    f"frame {pw}x{ph}")

    coded = [[] for _ in configs]  # per config, a _CodedFrame per frame
    key = key_mask = None  # the group's KEY frame, the same for every config
    for i, frame in enumerate(padded):
        cur_mask = masks[i] if masks is not None else None
        if _frame_type(i, first.gf_group_size) == KEY_FRAME:
            key = _encode_frame(i, frame, cur_mask, first, None, None, None)
            key_mask = cur_mask
            for frames in coded:
                frames.append(key)
            continue
        for cfg, frames in zip(configs, coded):
            frames.append(_encode_frame(i, frame, cur_mask, cfg, key.recon,
                                        frames[-1].recon, key_mask))

    head = _FILE_HEADER.pack(MAGIC, VERSION, seq.width, seq.height,
                             len(seq), first.gf_group_size,
                             _MODEL_CODE[first.model_kind])
    head_crc = _U32.pack(zlib.crc32(head))
    return [EncodeResult(
        bitstream=b"".join([head, *(f.data for f in frames),
                            *(_U32.pack(f.crc) for f in frames), head_crc]),
        frame_stats=[f.stats for f in frames],
        reconstructions=[f.recon for f in frames],
        traces=[f.trace for f in frames]) for frames in coded]


def encode_sequence(seq: Sequence, masks, config: EncoderConfig) -> EncodeResult:
    """Encode a sequence; returns the TXC1 v3 bitstream, per-frame stats, the
    encoder-side reconstructions and a (rect, mode) trace per frame."""
    return _encode(seq, masks, [config])[0]


def _recon_crc(f: Frame) -> int:
    """CRC-32 of the y, u and v samples in file order."""
    return zlib.crc32(f.uv, zlib.crc32(f.y)) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# decoder


def _parse_tree(br: BitReader, ctx: _FrameCtx, rect: BlockRect,
                leaves: list) -> None:
    """Parse the tree part's syntax of the node `rect`: appends each of its
    leaves, as (rect, _Leaf) with the mode and MV set, to `leaves`."""
    if _split_flag_coded(ctx, rect):
        split = br.read_bit() == 1
    else:
        split = rect.size > MIN_BLOCK  # a partial node
    if split:
        for child in _children(ctx, rect):
            _parse_tree(br, ctx, child, leaves)
        return
    mode = BlockMode(br.read_bits(MODE_BITS))
    if ctx.frame_type == KEY_FRAME and mode != BlockMode.INTRA_DC:
        raise BitstreamError(f"mode {mode.name} invalid in KEY frame")
    leaf = _Leaf(mode=mode)
    if mode == BlockMode.INTER_MV:
        leaf.mv = (br.read_se(), br.read_se())
        x, y, s = rect.x, rect.y, rect.size
        dx, dy = leaf.mv
        if not (0 <= x + dx <= ctx.pw - s and 0 <= y + dy <= ctx.ph - s):
            raise BitstreamError("motion vector out of frame")
    leaves.append((rect, leaf))


def _read_levels(reader: UePartsReader, n_tus: dict) -> dict:
    """The inverse of `_coefficient_parts`: per sample array, the
    (n_tus[plane], tu, tu) levels of its TUs in coding order, as int16.
    Every count, position and level is range-checked."""
    counts = reader.read(sum(n_tus.values()))
    if np.any(counts > np.repeat([_TU[plane] ** 2 for plane in n_tus],
                                 list(n_tus.values()))):
        raise BitstreamError("coefficient count out of range")
    pairs = reader.read(2 * int(counts.sum())).reshape(-1, 2)
    reader.finish()
    out = {}
    for plane, n in n_tus.items():
        plane_counts, counts = counts[:n], counts[n:]
        run, code = pairs[:int(plane_counts.sum())].T
        pairs = pairs[len(run):]
        out[plane] = _place_levels(plane_counts, run, code, _TU[plane])
    return out


def _place_levels(counts, run, code, n: int) -> np.ndarray:
    """The (k, n, n) levels of k TUs from their counts and their levels'
    ue(run) and ue(se) values in TU order.  Each level's TU and zig-zag
    position follow with a `repeat` and a segmented `cumsum`."""
    tu = np.repeat(np.arange(len(counts)), counts)
    # a level's position is the sum of its TU's (run + 1)s up to it, less
    # one: a cumsum over all levels, less its value before the TU's first
    end = np.cumsum(run + 1)
    first = (np.cumsum(counts) - counts)[counts > 0]
    pos = end - np.repeat(end[first] - run[first], counts[counts > 0])
    if np.any(pos >= n * n):
        raise BitstreamError("coefficient position out of range")
    level = ue_to_se(code)
    if np.any(np.abs(level) > MAX_LEVEL):
        raise BitstreamError("coefficient level out of range")
    flat = np.zeros((len(counts), n * n), np.int16)
    flat[tu, pos] = level
    return unscan(flat, n)


def _parse_frame(ctx: _FrameCtx, payload: bytes, tree_len: int,
                 prefix_len: int):
    """A frame's parse: its leaves in coding order, each (rect, _Leaf) with
    mode and MV, and per sample array the levels of all its coded leaves'
    TUs, as `_read_levels` gives them."""
    br = BitReader(payload[:tree_len])
    leaves = []
    for row in _superblock_rows(ctx):
        for rect in row:
            _parse_tree(br, ctx, rect, leaves)
    br.finish()
    k = sum((rect.size // LUMA_TU) ** 2 for rect, leaf in leaves
            if leaf.mode != BlockMode.TEXTURE)  # TUs per plane
    reader = UePartsReader(payload[tree_len:tree_len + prefix_len],
                           payload[tree_len + prefix_len:])
    n_tus = {plane: len(ctx.recon[plane]) * k for plane in _TU}
    return leaves, _read_levels(reader, n_tus)


def _reconstruct_frame(ctx: _FrameCtx, leaves: list, levels: dict) -> None:
    """Reconstruct parsed leaves into the working recon planes, in coding
    order: one inverse transform per sample array of all the TUs' levels,
    then each leaf adds its prediction to its TUs' residual."""
    residual = {plane: reconstruct_residual(lv, ctx.q_step)
                for plane, lv in levels.items()}
    at = 0  # each plane's TUs in the coded leaves before
    for rect, leaf in leaves:
        res = None
        if leaf.mode != BlockMode.TEXTURE:
            k = (rect.size // LUMA_TU) ** 2
            res = {}
            for plane, r in residual.items():
                c = len(ctx.recon[plane])
                res[plane] = r[c * at:c * (at + k)].reshape(c, k, *r.shape[1:])
            at += k
        _paste(ctx, rect, _reconstruct_leaf(ctx, leaf, rect, res))


def _read(layout: struct.Struct, data: bytes, pos: int, what: str):
    """The fields of `layout` at `data[pos:]`, and the position after them;
    raises "truncated `what`" when `data` ends before they do."""
    end = pos + layout.size
    if end > len(data):
        raise BitstreamError(f"truncated {what}")
    return layout.unpack_from(data, pos), end


def decode_sequence(data: bytes) -> DecodeResult:
    """Decode a TXC1 v3 file.  Every frame record and the CRC footer are
    checked to lie within `data`, and the file header against its CRC,
    before any frame is decoded.  Each frame is then parsed whole, its
    tree and its coefficient arrays, before it is reconstructed."""
    (magic, version, width, height, n_frames, gf, model_code), pos = _read(
        _FILE_HEADER, data, 0, "file header")
    if magic != MAGIC:
        raise BitstreamError(f"bad magic {magic!r}")
    if version != VERSION:
        raise BitstreamError(f"unsupported bitstream version {version}")
    if gf not in GF_GROUP_SIZES:
        raise BitstreamError(f"bad gf_group_size {gf}")
    if model_code not in _MODEL_FROM_CODE:
        raise BitstreamError(f"unknown motion model code {model_code}")
    pw, ph = pad16(width), pad16(height)
    if pw * ph > MAX_FRAME_AREA:
        raise BitstreamError(f"frame area {pw}x{ph} exceeds {MAX_FRAME_AREA} "
                             f"luma samples")
    # every superblock codes at least one leaf mode in the tree part
    min_tree_bits = MODE_BITS * -(-pw // SUPERBLOCK) * -(-ph // SUPERBLOCK)
    records = []  # per frame: type, q_level, motion, payload, part lengths
    for i in range(n_frames):
        (ftype, q_level), pos = _read(_FRAME_HEADER, data, pos,
                                      f"header of frame {i}")
        if ftype != _frame_type(i, gf):
            raise BitstreamError(f"bad frame type {ftype} of frame {i}")
        if q_level not in Q_LEVELS:
            raise BitstreamError(f"bad q_level {q_level} of frame {i}")
        m = None
        if ftype == INTER_FRAME:
            q16, pos = _read(_MOTION, data, pos, f"motion header of frame {i}")
            m = _q16_motion(q16)
        (plen, tree_len, prefix_len), pos = _read(
            _PAYLOAD, data, pos, f"payload lengths of frame {i}")
        if pos + plen > len(data):
            raise BitstreamError(f"truncated payload of frame {i}")
        if tree_len + prefix_len > plen:
            raise BitstreamError(f"payload of frame {i} shorter than its "
                                 f"tree and prefix parts")
        if 8 * tree_len < min_tree_bits:
            raise BitstreamError(f"payload of frame {i}: tree part too "
                                 f"short for {width}x{height}")
        records.append((ftype, q_level, m, data[pos:pos + plen], tree_len,
                        prefix_len))
        pos += plen
    crcs = []
    for _ in range(n_frames + 1):  # each frame's, then the file header's
        (crc,), pos = _read(_U32, data, pos, "CRC footer")
        crcs.append(crc)
    if crcs.pop() != zlib.crc32(data[:_FILE_HEADER.size]):
        raise BitstreamError("file header CRC mismatch")

    prev_recon = key_recon = None
    recons, frames, traces = [], [], []
    for i, (ftype, q_level, m, payload, tree_len, prefix_len) in enumerate(
            records):
        ctx = _FrameCtx(pw, ph, q_level, ftype, key_recon=key_recon,
                        prev_recon=prev_recon, motion=m)
        leaves, levels = _parse_frame(ctx, payload, tree_len, prefix_len)
        traces.append([(rect, leaf.mode) for rect, leaf in leaves])
        _reconstruct_frame(ctx, leaves, levels)
        recon = ctx.recon_frame(i)
        if crcs[i] != _recon_crc(recon):
            raise BitstreamError(f"reconstruction CRC mismatch at frame {i}")
        recons.append(recon)
        frames.append(crop_frame(recon, width, height))
        prev_recon = recon
        if ftype == KEY_FRAME:
            key_recon = recon
    return DecodeResult(sequence=Sequence(frames=tuple(frames)),
                        reconstructions=recons, traces=traces)
