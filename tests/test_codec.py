"""Quadtree codec: texture block decision, encode/decode closure, bitstream
robustness and the RD search."""

import itertools
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from crafted_streams import HUGE_LEVEL, container, key_record, single_tu_stream
from search_oracle import diamond_search
from texture_oracle import is_texture_block_oracle
from texcodec import codec
from texcodec.analyzer import TextureMask, all_texture_mask
from texcodec.bitio import BitstreamError, se_to_ue
from texcodec.codec import (_TU, INTER_FRAME, KEY_FRAME, MAX_FRAME_AREA,
                            MAX_LEVEL, MIN_BLOCK, SUPERBLOCK, BlockMode,
                            EncoderConfig, _candidates, _encode,
                            _estimate_frame_motion, _FrameCtx, _Leaf,
                            _leaf_bits, _paste, _plane_rect, _prediction,
                            _q16, _q16_motion, _reconstruct_leaf, _row_tables,
                            _search_node, _superblock_rows, _tiles,
                            decode_sequence, encode_sequence, is_texture_block)
from texcodec.datasets import NON_TEXTURE, TEXTURE
from texcodec.frames import BLOCK, BlockRect, Frame, Sequence, pad16, pad_frame
from texcodec.motion import AffineMotion, MotionError, MotionModelKind
from texcodec.sequences import _noise_texture, panning_texture_sequence, random_sequence
from texcodec.transform import transform_quantize


def _mask(labels):
    labels = np.asarray(labels, np.uint8)
    return TextureMask(labels=labels, probs=labels.astype(np.float32))


def _ground_truth_masks(seq):
    gh = pad16(seq.height) // BLOCK
    gw = pad16(seq.width) // BLOCK
    return [all_texture_mask(gh, gw, frame_index=i) for i in range(len(seq))]


# ---------------------------------------------------------------------------
# texture block decision


def test_is_texture_block_all_texture_identity():
    m = all_texture_mask(8, 8)
    assert is_texture_block(BlockRect(32, 32, 16), m, m,
                            AffineMotion.identity(), 128, 128)


def test_is_texture_block_rejects_non_texture_cur_cell():
    labels = np.full((8, 8), TEXTURE, np.uint8)
    labels[2, 2] = NON_TEXTURE
    cur = _mask(labels)
    ref = all_texture_mask(8, 8)
    assert not is_texture_block(BlockRect(32, 32, 16), cur, ref,
                                AffineMotion.identity(), 128, 128)
    # a 32-block overlapping that cell also fails
    assert not is_texture_block(BlockRect(32, 32, 32), cur, ref,
                                AffineMotion.identity(), 128, 128)


def test_is_texture_block_rejects_warp_into_non_texture_ref():
    cur = all_texture_mask(8, 8)
    labels = np.full((8, 8), TEXTURE, np.uint8)
    labels[2, 4] = NON_TEXTURE
    ref = _mask(labels)
    rect = BlockRect(32, 32, 16)
    m = AffineMotion.translation(20, 0)  # bbox reaches cell column 4
    got = is_texture_block(rect, cur, ref, m, 128, 128)
    assert got == is_texture_block_oracle(rect, cur, ref, m, 128, 128)
    assert not got


def test_is_texture_block_rejects_out_of_frame_warp():
    m = all_texture_mask(8, 8)
    assert not is_texture_block(BlockRect(0, 0, 16), m, m,
                                AffineMotion.identity(), 128, 128)
    assert not is_texture_block(BlockRect(32, 32, 16), m, m,
                                AffineMotion.translation(90, 0), 128, 128)


def test_is_texture_block_matches_oracle_sampled():
    rng = np.random.default_rng(0)
    for _ in range(60):
        cur = _mask((rng.random((6, 8)) < 0.8).astype(np.uint8) * TEXTURE)
        ref = _mask((rng.random((6, 8)) < 0.8).astype(np.uint8) * TEXTURE)
        size = int(rng.choice([16, 32, 64]))
        rect = BlockRect(int(rng.integers(0, (128 - size) // 16 + 1)) * 16,
                         int(rng.integers(0, (96 - size) // 16 + 1)) * 16, size)
        m = AffineMotion(a11=1 + rng.uniform(-0.1, 0.1),
                         a12=rng.uniform(-0.05, 0.05),
                         a21=rng.uniform(-0.05, 0.05),
                         a22=1 + rng.uniform(-0.1, 0.1),
                         tx=rng.uniform(-40, 40), ty=rng.uniform(-40, 40))
        assert is_texture_block(rect, cur, ref, m, 128, 96) == \
            is_texture_block_oracle(rect, cur, ref, m, 128, 96)


# ---------------------------------------------------------------------------
# closure and structure


def test_closure_texture_mode():
    seq, masks = panning_texture_sequence(width=96, height=64, n_frames=6,
                                          seed=1)
    enc = encode_sequence(seq, masks, EncoderConfig(q_level=24, gf_group_size=4))
    dec = decode_sequence(enc.bitstream)
    assert len(dec.sequence) == 6
    for a, b in zip(enc.reconstructions, dec.reconstructions):
        assert a.same_samples(b)
    for orig, out in zip(seq, dec.sequence):
        assert (out.width, out.height) == (orig.width, orig.height)


def test_closure_unaligned_dimensions():
    seq = random_sequence(50, 38, 5, seed=2)
    enc = encode_sequence(seq, None,
                          EncoderConfig(q_level=16, gf_group_size=4,
                                        texture_mode=False))
    dec = decode_sequence(enc.bitstream)
    for a, b in zip(enc.reconstructions, dec.reconstructions):
        assert a.same_samples(b)
    assert dec.sequence.width == 50 and dec.sequence.height == 38


def test_single_frame_stream_is_key_only():
    seq = random_sequence(32, 32, 1, seed=3)
    enc = encode_sequence(seq, None, EncoderConfig(texture_mode=False))
    assert enc.frame_stats[0].frame_type == "KEY"
    dec = decode_sequence(enc.bitstream)
    assert enc.reconstructions[0].same_samples(dec.reconstructions[0])


def test_gf_grouping_key_placement():
    seq = random_sequence(48, 32, 9, seed=4)
    enc = encode_sequence(seq, None,
                          EncoderConfig(gf_group_size=4, texture_mode=False))
    types = [s.frame_type for s in enc.frame_stats]
    assert [i for i, t in enumerate(types) if t == "KEY"] == [0, 4, 8]


def test_baseline_never_emits_texture_blocks():
    seq, masks = panning_texture_sequence(width=96, height=64, n_frames=6,
                                          seed=5)
    enc = encode_sequence(seq, None, EncoderConfig(texture_mode=False))
    for stats in enc.frame_stats:
        assert stats.mode_counts["TEXTURE"] == 0
    for trace in enc.traces:
        assert all(mode != BlockMode.TEXTURE for _, mode in trace)


def test_frame_stats_report_the_motion_source():
    seq, masks = panning_texture_sequence(width=96, height=64, n_frames=3,
                                          seed=5)
    enc = encode_sequence(seq, masks, EncoderConfig())
    key, *inter = enc.frame_stats
    assert key.motion_source is None and key.motion_stats is None
    for stats, mask in zip(inter, masks[1:]):
        assert stats.motion_source == "texture_mask"
        assert stats.motion_stats["n_cells"] == int(np.sum(mask.labels
                                                           == TEXTURE))
        assert stats.as_dict()["motion_stats"] == stats.motion_stats
    base = encode_sequence(seq, None, EncoderConfig(texture_mode=False))
    for stats in base.frame_stats[1:]:
        assert stats.motion_source == "whole_frame"
        assert stats.motion_stats["n_cells"] == 24


def _failing_estimate(monkeypatch, fails):
    """Make the codec's texture-motion fit raise MotionError on each mask
    for which fails(mask) holds."""
    real = codec.estimate_texture_motion

    def estimate(cur, ref, mask, *args):
        if fails(mask):
            raise MotionError("forced")
        return real(cur, ref, mask, *args)

    monkeypatch.setattr(codec, "estimate_texture_motion", estimate)


def test_motion_fallback_to_the_whole_frame_is_reported(monkeypatch):
    seq, masks = panning_texture_sequence(width=96, height=64, n_frames=2,
                                          seed=5)
    cfg = EncoderConfig()
    key_recon = encode_sequence(seq, masks, cfg).reconstructions[0]
    cur = pad_frame(seq[1])
    whole = _estimate_frame_motion(cur, key_recon, None,
                                   replace(cfg, texture_mode=False))
    _failing_estimate(monkeypatch, lambda m: not np.all(m.labels == TEXTURE))
    assert _estimate_frame_motion(cur, key_recon, masks[1], cfg) == whole
    assert whole[1] == "whole_frame"
    stats = encode_sequence(seq, masks, cfg).frame_stats[1]
    assert (stats.motion_source, stats.motion_stats) == whole[1:]


def test_motion_fallback_to_identity_is_reported(monkeypatch):
    seq, masks = panning_texture_sequence(width=96, height=64, n_frames=2,
                                          seed=5)
    _failing_estimate(monkeypatch, lambda m: True)
    key_recon = encode_sequence(seq, masks, EncoderConfig()).reconstructions[0]
    for mask, texture in ((masks[1], True), (None, False)):
        cfg = EncoderConfig(texture_mode=texture)
        assert _estimate_frame_motion(pad_frame(seq[1]), key_recon, mask,
                                      cfg) == (_q16(AffineMotion.identity()),
                                               "identity", None)
        enc = encode_sequence(seq, masks if texture else None, cfg)
        stats = enc.frame_stats[1]
        assert (stats.motion_source, stats.motion_stats) == ("identity", None)
        dec = decode_sequence(enc.bitstream)
        assert enc.reconstructions[1].same_samples(dec.reconstructions[1])


def test_key_frames_are_intra_only():
    seq, masks = panning_texture_sequence(width=96, height=64, n_frames=5,
                                          seed=6)
    enc = encode_sequence(seq, masks, EncoderConfig(gf_group_size=4))
    for stats, trace in zip(enc.frame_stats, enc.traces):
        if stats.frame_type == "KEY":
            assert all(mode == BlockMode.INTRA_DC for _, mode in trace)


def test_texture_leaf_costs_only_mode_bits():
    assert _leaf_bits(_Leaf(mode=BlockMode.TEXTURE), with_flag=False) == 2
    assert _leaf_bits(_Leaf(mode=BlockMode.TEXTURE), with_flag=True) == 3


def test_motion_header_ints_round_to_q16():
    # a frame header codes each motion parameter as round(v * 2**16), and
    # the encoder predicts from the motion those ints code
    m = AffineMotion(a11=1.0 + 1.0 / 3.0, tx=0.1)
    q16 = _q16(m)
    assert q16 == (round((1 + 1 / 3) * 65536), 0, 0, 65536,
                   round(0.1 * 65536), 0)
    q = _q16_motion(q16)
    assert q.a11 == round((1 + 1 / 3) * 65536) / 65536
    assert q.tx == round(0.1 * 65536) / 65536
    assert abs(q.a11 - m.a11) <= 0.5 / 65536
    assert _q16(q) == q16


def _parse_frame_headers(bitstream):
    """Independent walk of the TXC1 frame layout; yields (type, q, motion)."""
    pos = struct.calcsize("<4sBHHHBB")
    _, _, w, h, n, _, _ = struct.unpack_from("<4sBHHHBB", bitstream, 0)
    out = []
    for _ in range(n):
        ftype, q = struct.unpack_from("<BB", bitstream, pos)
        pos += 2
        motion = None
        if ftype == INTER_FRAME:
            raw = struct.unpack_from("<6i", bitstream, pos)
            pos += 24
            motion = AffineMotion(*(v / 65536.0 for v in raw))
        (plen,) = struct.unpack_from("<I", bitstream, pos)
        pos += 12 + plen  # the payload's and its tree and prefix parts' lengths
        out.append((ftype, q, motion))
    return out


def test_every_texture_block_passes_decision_audit():
    seq, masks = panning_texture_sequence(width=128, height=96, n_frames=8,
                                          seed=7)
    enc = encode_sequence(seq, masks, EncoderConfig(q_level=24, gf_group_size=4))
    headers = _parse_frame_headers(enc.bitstream)
    pw, ph = pad16(seq.width), pad16(seq.height)
    n_texture = 0
    key_mask = None
    for i, (stats, trace) in enumerate(zip(enc.frame_stats, enc.traces)):
        if stats.frame_type == "KEY":
            key_mask = masks[i]
            continue
        motion = headers[i][2]
        for rect, mode in trace:
            if mode == BlockMode.TEXTURE:
                n_texture += 1
                assert is_texture_block(rect, masks[i], key_mask, motion,
                                        pw, ph)
                assert is_texture_block_oracle(rect, masks[i], key_mask,
                                               motion, pw, ph)
    assert n_texture > 0


def test_static_all_texture_sequence_inter_frames_nearly_free():
    rng = np.random.default_rng(8)
    w, h = 320, 256
    f0 = Frame(y=_noise_texture(rng, h, w, sigma=0.8),
               uv=np.stack((
                   _noise_texture(rng, h // 2, w // 2, sigma=1.0, contrast=20),
                   _noise_texture(rng, h // 2, w // 2, sigma=1.0, contrast=20))))
    seq = Sequence(frames=tuple(
        Frame(y=f0.y, uv=np.stack((f0.u, f0.v)), frame_index=i)
        for i in range(3)))
    masks = _ground_truth_masks(seq)
    enc = encode_sequence(seq, masks, EncoderConfig(q_level=16, gf_group_size=8))
    key_bits = enc.frame_stats[0].bits
    for stats in enc.frame_stats[1:]:
        assert stats.frame_type == "INTER"
        assert stats.bits < 0.02 * key_bits
        assert stats.mode_counts["TEXTURE"] > 0


def test_bits_accounting_matches_file_size():
    seq, masks = panning_texture_sequence(width=96, height=64, n_frames=6,
                                          seed=9)
    enc = encode_sequence(seq, masks, EncoderConfig(gf_group_size=4))
    # the file header, then the footer: a CRC per frame and the header's
    container = struct.calcsize("<4sBHHHBB") + 4 * (len(seq) + 1)
    assert sum(s.bits for s in enc.frame_stats) + 8 * container == \
        8 * len(enc.bitstream)


def test_rate_monotone_in_q():
    seq, masks = panning_texture_sequence(width=96, height=64, n_frames=6,
                                          seed=10)
    sizes = []
    for q in (16, 24, 28, 32):
        enc = encode_sequence(seq, masks, EncoderConfig(q_level=q,
                                                        gf_group_size=4))
        sizes.append(len(enc.bitstream))
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


# ---------------------------------------------------------------------------
# robustness


def test_decode_rejects_bad_magic_and_version():
    seq = random_sequence(32, 32, 2, seed=11)
    data = encode_sequence(seq, None,
                           EncoderConfig(texture_mode=False)).bitstream
    with pytest.raises(BitstreamError, match="magic"):
        decode_sequence(b"XXXX" + data[4:])
    with pytest.raises(BitstreamError, match="version"):
        decode_sequence(data[:4] + b"\xff" + data[5:])
    with pytest.raises(BitstreamError):
        decode_sequence(data[:8])
    with pytest.raises(BitstreamError):
        decode_sequence(data[:-3])  # truncated CRC footer


def test_single_byte_corruption_always_detected():
    seq = random_sequence(48, 32, 4, seed=12)
    data = encode_sequence(seq, None,
                           EncoderConfig(q_level=16, gf_group_size=4,
                                         texture_mode=False)).bitstream
    rng = np.random.default_rng(13)
    hdr = struct.calcsize("<4sBHHHBB")
    for _ in range(30):
        pos = int(rng.integers(hdr, len(data)))
        flip = bytes([data[pos] ^ (1 << int(rng.integers(0, 8)))])
        corrupted = data[:pos] + flip + data[pos + 1:]
        with pytest.raises(BitstreamError):
            decode_sequence(corrupted)


def test_coefficient_level_bound():
    # a legal level parses, and the placeholder frame CRC then fails
    for level, error in ((MAX_LEVEL, "CRC"), (-MAX_LEVEL, "CRC"),
                         (MAX_LEVEL + 1, "level"), (-MAX_LEVEL - 1, "level")):
        with pytest.raises(BitstreamError, match=error):
            decode_sequence(single_tu_stream(1, [(0, se_to_ue(level))]))


def test_oversized_level_is_a_bitstream_error():
    # se(2**63) has a 64-zero prefix: rejected as malformed, not an
    # OverflowError when stored into the int64 level array
    with pytest.raises(BitstreamError, match="Exp-Golomb"):
        decode_sequence(single_tu_stream(*HUGE_LEVEL))


def test_short_payload_rejected_before_allocating():
    # 4096x2176, the largest area a header may declare, has 2176
    # superblocks, so a tree part needs >= 4352 bits; the 1-byte one must
    # be refused before the 13 MB of frame planes exist
    data = container(4096, 2176, key_record(b"\x00", b"\x80", b""), (0,))
    assert 4096 * 2176 == MAX_FRAME_AREA and len(data) == 37
    tracemalloc.start()
    try:
        with pytest.raises(BitstreamError, match="payload"):
            decode_sequence(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_frame_area_above_the_bound_rejected_before_allocating():
    # a header may not declare a padded area above MAX_FRAME_AREA, however
    # long its payload; the encoder refuses to write one
    for width, height in ((4096, 2177), (4112, 2176), (0xFFFF, 0xFFFF)):
        data = container(width, height,
                         key_record(bytes(1 << 20), b"", b""), (0,))
        tracemalloc.start()
        try:
            with pytest.raises(BitstreamError, match="frame area"):
                decode_sequence(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    seq = Sequence(frames=(Frame(y=np.zeros((2177, 4096), np.uint8),
                                 uv=np.zeros((2, 1089, 2048), np.uint8)),))
    with pytest.raises(ValueError, match="exceeds"):
        encode_sequence(seq, None, EncoderConfig(texture_mode=False))


def test_decode_rejects_version_1_and_a_changed_file_header():
    # version 1 streams used a float DCT, version 2 one interleaved
    # payload; the footer's last CRC covers the file header
    seq = random_sequence(32, 32, 2, seed=11)
    data = encode_sequence(seq, None,
                           EncoderConfig(texture_mode=False)).bitstream
    for version in (1, 2):
        with pytest.raises(BitstreamError,
                           match=f"unsupported .* version {version}"):
            decode_sequence(data[:4] + bytes([version]) + data[5:])
    for offset, value in ((9, 1),    # frame_count 2 -> 1
                          (11, 5),   # gf 8 -> 5: frame 1 stays INTER
                          (12, 2)):  # rotzoom -> affine
        changed = bytearray(data)
        changed[offset] = value
        with pytest.raises(BitstreamError, match="file header CRC"):
            decode_sequence(bytes(changed))


def test_encoder_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(q_level=0)
    with pytest.raises(ValueError):
        EncoderConfig(q_level=64)
    with pytest.raises(ValueError):
        EncoderConfig(gf_group_size=3)
    with pytest.raises(ValueError):
        EncoderConfig(gf_group_size=17)
    cfg = EncoderConfig(q_level=24)
    assert cfg.rd_lambda == pytest.approx(0.85 * 576)


def test_encode_requires_masks_in_texture_mode():
    seq = random_sequence(32, 32, 2, seed=14)
    with pytest.raises(ValueError, match="mask"):
        encode_sequence(seq, None, EncoderConfig())
    bad = [all_texture_mask(1, 1, frame_index=i) for i in range(2)]
    with pytest.raises(ValueError, match="grid"):
        encode_sequence(seq, bad, EncoderConfig())


def _frame_fields(f: Frame):
    return (f.y.tobytes(), f.u.tobytes(), f.v.tobytes(), f.frame_index)


def _result_fields(enc):
    return (enc.bitstream, [s.as_dict() for s in enc.frame_stats],
            [_frame_fields(f) for f in enc.reconstructions], enc.traces)


def test_shared_key_frames_match_separate_encodes():
    seq, masks = panning_texture_sequence(width=96, height=64, n_frames=6,
                                          seed=8)
    for q in (8, 32):
        off = EncoderConfig(q_level=q, gf_group_size=4, texture_mode=False)
        on = EncoderConfig(q_level=q, gf_group_size=4, texture_mode=True)
        shared = _encode(seq, masks, [off, on])
        separate = [encode_sequence(seq, masks, cfg) for cfg in (off, on)]
        assert [s.frame_type for s in shared[0].frame_stats] == [
            "KEY", "INTER", "INTER", "INTER", "KEY", "INTER"]
        # texture mode changes the INTER frames, so sharing one would show
        assert separate[0].bitstream != separate[1].bitstream
        for a, b in zip(shared, separate):
            assert _result_fields(a) == _result_fields(b)
    base = EncoderConfig(gf_group_size=4)
    for other in (EncoderConfig(q_level=16, gf_group_size=4),
                  EncoderConfig(gf_group_size=8),
                  EncoderConfig(gf_group_size=4, motion_seed=1),
                  EncoderConfig(gf_group_size=4,
                                model_kind=MotionModelKind.AFFINE)):
        with pytest.raises(ValueError, match="differ only in texture_mode"):
            _encode(seq, masks, [base, other])
    with pytest.raises(ValueError, match="differ only in texture_mode"):
        _encode(seq, masks, [])


# ---------------------------------------------------------------------------
# RD search vs exhaustive oracle


def _all_patterns(size):
    if size == MIN_BLOCK:
        return ["leaf"]
    subs = _all_patterns(size // 2)
    return ["leaf"] + [c for c in itertools.product(subs, repeat=4)]


def _yuv(planes):
    """The y, u and v planes of a frame's "y" and "uv" sample arrays, as
    views."""
    return {"y": planes["y"][0], "u": planes["uv"][0], "v": planes["uv"][1]}


def _snapshot(ctx, rect):
    out = {}
    for plane, a in _yuv(ctx.recon).items():
        x, y, s = _plane_rect(plane, rect)
        out[plane] = a[y:y + s, x:x + s].copy()
    return out


def _restore(ctx, rect, snap):
    for plane, a in _yuv(ctx.recon).items():
        x, y, s = _plane_rect(plane, rect)
        a[y:y + s, x:x + s] = snap[plane]


def _reference_leaf(ctx, mode, rect):
    """A GLOBAL_WARP, INTER_MV or INTRA_DC leaf built at one node alone,
    one plane at a time: its MV, levels and reconstruction (the working
    planes are left as they are), its bits without the split flag, and its
    SSD."""
    leaf = _Leaf(mode=mode)
    orig = _yuv(ctx.orig)
    if mode == BlockMode.INTER_MV:
        block = orig["y"][rect.y:rect.y + rect.size, rect.x:rect.x + rect.size]
        dx, dy, _ = diamond_search(block, _yuv(ctx.prev_recon)["y"], rect.x,
                                   rect.y)
        leaf.mv = (dx, dy)
    for array, planes in (("y", ("y",)), ("uv", ("u", "v"))):
        pred = _prediction(ctx, leaf, rect, array)
        x, y, s = _plane_rect(array, rect)
        res = [orig[plane][y:y + s, x:x + s].astype(np.int64) - p
               for plane, p in zip(planes, pred)]
        leaf.levels[array] = np.array([transform_quantize(
            _tiles(r, _TU[array]), ctx.q_step) for r in res])
    leaf.recon = _reconstruct_leaf(ctx, leaf, rect)
    dist = 0
    for plane, a in _yuv(leaf.recon).items():
        x, y, s = _plane_rect(plane, rect)
        d = (orig[plane][y:y + s, x:x + s].astype(np.int64)
             - a.astype(np.int64))
        dist += int((d * d).sum())
    return leaf, _leaf_bits(leaf, with_flag=False), dist


def _greedy_leaf(ctx, cfg, rect):
    best = None
    for mode in (BlockMode.GLOBAL_WARP, BlockMode.INTER_MV,
                 BlockMode.INTRA_DC):
        leaf, bits, dist = _reference_leaf(ctx, mode, rect)
        bits += rect.size > MIN_BLOCK  # the split flag
        cost = dist + ctx.rd_lambda * bits
        if best is None or cost < best[0]:
            best = (cost, leaf, bits, dist)
    _paste(ctx, rect, best[1].recon)  # sibling context
    return best[2], best[3]


def _eval_pattern(ctx, cfg, rect, pat):
    if pat == "leaf":
        return _greedy_leaf(ctx, cfg, rect)
    bits, dist = 1, 0  # split flag
    half = rect.size // 2
    for (cy, cx), sub in zip(((0, 0), (0, 1), (1, 0), (1, 1)), pat):
        b, d = _eval_pattern(ctx, cfg,
                             BlockRect(rect.x + cx * half,
                                       rect.y + cy * half, half), sub)
        bits += b
        dist += d
    return bits, dist


@pytest.mark.parametrize("seed,q", [(42, 24), (43, 16)])
def test_rd_search_matches_exhaustive_oracle(seed, q):
    seq = random_sequence(64, 64, 2, seed=seed)
    cfg = EncoderConfig(q_level=q, gf_group_size=8, texture_mode=False)
    key_recon = encode_sequence(seq, None, cfg).reconstructions[0]
    frame1 = seq[1]
    m = _q16_motion(_estimate_frame_motion(frame1, key_recon, None, cfg)[0])
    ctx = _FrameCtx(64, 64, cfg.q_level, INTER_FRAME, key_recon=key_recon,
                    prev_recon=key_recon, motion=m, orig=frame1,
                    rd_lambda=cfg.rd_lambda)

    root = BlockRect(0, 0, 64)
    _, sbits, sdist = _search_node(ctx, root,
                                   _row_tables(ctx, [root], cfg, None, None))
    search_cost = sdist + cfg.rd_lambda * sbits

    snap = _snapshot(ctx, root)
    best = None
    for pat in _all_patterns(SUPERBLOCK):  # 17 partition patterns
        b, d = _eval_pattern(ctx, cfg, root, pat)
        _restore(ctx, root, snap)
        cost = d + cfg.rd_lambda * b
        if best is None or cost < best[0]:
            best = (cost, b, d)
    assert best[0] == pytest.approx(search_cost, abs=1e-9)
    assert (best[1], best[2]) == (sbits, sdist)


def _modes(tree):
    if isinstance(tree, list):
        return [_modes(t) for t in tree]
    return tree.mode, tree.mv


@pytest.mark.parametrize("ftype", [KEY_FRAME, INTER_FRAME], ids=["key", "inter"])
@pytest.mark.parametrize("rect", [BlockRect(64, 64, 64), BlockRect(128, 0, 64)],
                         ids=["full", "partial"])
def test_search_ignores_what_its_node_held(ftype, rect):
    # _search_node reads the working planes only above and left of its rect,
    # so the decision and the reconstruction it leaves in the rect do not
    # depend on what the rect held before; nothing outside it is written
    seq = random_sequence(144, 128, 2, seed=44)  # 128 + 16: a partial column
    cfg = EncoderConfig(q_level=24, texture_mode=False)
    key_recon = encode_sequence(seq, None, cfg).reconstructions[0]
    m = _q16_motion(_estimate_frame_motion(seq[1], key_recon, None, cfg)[0])
    rng = np.random.default_rng(45)
    context = {p: rng.integers(0, 256, getattr(key_recon, p).shape,
                               dtype=np.uint8) for p in ("y", "u", "v")}
    results = []
    for fill in ("zeros", "random"):
        ctx = _FrameCtx(144, 128, cfg.q_level, ftype, key_recon=key_recon,
                        prev_recon=key_recon, motion=m, orig=seq[1],
                        rd_lambda=cfg.rd_lambda)
        recon = _yuv(ctx.recon)
        for plane, a in context.items():
            recon[plane][:] = a
            x, y, s = _plane_rect(plane, rect)
            inside = recon[plane][y:y + s, x:x + s]
            inside[:] = 0 if fill == "zeros" else rng.integers(
                0, 256, inside.shape, dtype=np.uint8)
        tree, bits, dist = _search_node(
            ctx, rect, _row_tables(ctx, [rect], cfg, None, None))
        block = _snapshot(ctx, rect)
        for plane, a in context.items():
            x, y, s = _plane_rect(plane, rect)
            outside = np.ones(a.shape, bool)
            outside[y:y + s, x:x + s] = False
            assert np.array_equal(recon[plane][outside], a[outside])
        results.append((_modes(tree), bits, dist, block))
    (modes0, bits0, dist0, block0), (modes1, bits1, dist1, block1) = results
    assert (modes0, bits0, dist0) == (modes1, bits1, dist1)
    for plane in ("y", "u", "v"):
        assert np.array_equal(block0[plane], block1[plane])


def test_rd_prefers_fewer_bits_at_equal_distortion():
    # with lambda > 0 the cost ordering is monotone in bits at fixed SSD
    cfg = EncoderConfig(q_level=24)
    assert 100 + cfg.rd_lambda * 10 < 100 + cfg.rd_lambda * 11


def _reference_searched(ctx, rect, cfg, cur_mask, ref_mask):
    """The nodes under `rect` the RD search evaluates, by their definition:
    wholly inside the frame, with no texture-forced ancestor or self."""
    full = rect.x + rect.size <= ctx.pw and rect.y + rect.size <= ctx.ph
    if full and cfg.texture_mode and cur_mask is not None and \
            is_texture_block_oracle(rect, cur_mask, ref_mask, ctx.motion,
                                    ctx.pw, ctx.ph):
        return []
    out = [rect] if full else []
    if rect.size > MIN_BLOCK:
        half = rect.size // 2
        for cy, cx in ((0, 0), (0, 1), (1, 0), (1, 1)):
            child = BlockRect(rect.x + cx * half, rect.y + cy * half, half)
            if child.x < ctx.pw and child.y < ctx.ph:
                out += _reference_searched(ctx, child, cfg, cur_mask, ref_mask)
    return out


def test_rd_tables_match_per_node_reference():
    # every searched node's candidates from the row tables equal a build at
    # that node alone, in mode, MV, levels, reconstruction, bits and SSD:
    # GLOBAL_WARP, INTER_MV and INTRA_DC in INTER frames, INTRA_DC in KEY
    # frames; clips with partial superblocks, texture mode off and on (only
    # the 144x80 clip has texture-forced nodes).  The working planes hold
    # arbitrary samples, as INTRA_DC reads its neighbours there.
    rng = np.random.default_rng(46)
    n_nodes = n_forced = n_key = 0
    inter_modes = (BlockMode.GLOBAL_WARP, BlockMode.INTER_MV,
                   BlockMode.INTRA_DC)
    for size, q, texture in itertools.product(
            ((80, 48), (144, 80)), (1, 24, 63), (False, True)):
        seq, masks = panning_texture_sequence(*size, n_frames=4, seed=3)
        padded = [pad_frame(f) for f in seq]
        pw, ph = padded[0].width, padded[0].height
        cfg = EncoderConfig(q_level=q, gf_group_size=4, texture_mode=texture)
        recons = encode_sequence(seq, masks, cfg).reconstructions
        for i in (0, 1, 2, 3):
            cur_mask = masks[i] if texture else None
            if i == 0:
                ctx = _FrameCtx(pw, ph, cfg.q_level, KEY_FRAME,
                                orig=padded[0], rd_lambda=cfg.rd_lambda)
            else:
                m = _q16_motion(_estimate_frame_motion(
                    padded[i], recons[0], cur_mask, cfg)[0])
                ctx = _FrameCtx(pw, ph, cfg.q_level, INTER_FRAME,
                                key_recon=recons[0], prev_recon=recons[i - 1],
                                motion=m, orig=padded[i],
                                rd_lambda=cfg.rd_lambda)
            for a in ctx.recon.values():
                a[:] = rng.integers(0, 256, a.shape, dtype=np.uint8)
            for row in _superblock_rows(ctx):
                tables = _row_tables(ctx, row, cfg, cur_mask, masks[0])
                if i == 0:
                    assert tables.mv == {}
                    want = [n for sb in row for n in _reference_searched(
                        ctx, sb, cfg, None, None)]
                    modes = (BlockMode.INTRA_DC,)
                    n_key += len(want)
                else:
                    want = [n for sb in row for n in _reference_searched(
                        ctx, sb, cfg, cur_mask, masks[0])]
                    assert set(tables.mv) == set(want)
                    # nodes that texture mode takes out of the search
                    n_all = sum(len(_reference_searched(ctx, sb, cfg, None,
                                                        None)) for sb in row)
                    n_forced += n_all - len(want)
                    modes = inter_modes
                    n_nodes += len(want)
                for rect in want:
                    got = _candidates(ctx, tables, rect)
                    assert len(got) == len(modes)
                    for (leaf, bits, dist), mode in zip(got, modes):
                        ref, ref_bits, ref_dist = _reference_leaf(
                            ctx, mode, rect)
                        assert (leaf.mode, leaf.mv, bits, dist) == (
                            ref.mode, ref.mv, ref_bits, ref_dist)
                        for plane in ("y", "uv"):
                            assert np.array_equal(leaf.levels[plane],
                                                  ref.levels[plane])
                            assert np.array_equal(leaf.recon[plane],
                                                  ref.recon[plane])
    assert n_nodes > 0 and n_forced > 0 and n_key > 0
