"""Texture motion estimation and warping."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

import ransac_oracle
import search_oracle
from texcodec.analyzer import TextureMask, all_texture_mask
from texcodec.datasets import NON_TEXTURE, TEXTURE
from texcodec import motion
from texcodec.frames import BlockRect, Frame, pad_frame
from texcodec.motion import (RANSAC_ITERATIONS, SEARCH_RANGE, AffineMotion,
                             MotionError, MotionModelKind, bilinear_sample,
                             chroma_motion, coarse_translation,
                             collect_correspondences, diamond_search,
                             estimate_texture_motion, fit_motion_ransac,
                             warp_frame, warp_rect)
from texcodec.sequences import _noise_texture, panning_texture_sequence


def _texture_frame(w, h, seed=0, index=0):
    rng = np.random.default_rng(seed)
    return Frame(y=_noise_texture(rng, h, w, sigma=0.8),
                 uv=np.stack((
                     _noise_texture(rng, h // 2, w // 2, sigma=1.0, contrast=20),
                     _noise_texture(rng, h // 2, w // 2, sigma=1.0, contrast=20))),
                 frame_index=index)


def _interior_mask(gh, gw, margin=1):
    labels = np.zeros((gh, gw), np.uint8)
    labels[margin:gh - margin, margin:gw - margin] = TEXTURE
    return TextureMask(labels=labels, probs=labels.astype(np.float32))


# ---------------------------------------------------------------------------
# AffineMotion


def test_affine_motion_basics():
    m = AffineMotion.identity()
    assert m.as_tuple() == (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    assert m.det == 1.0
    t = AffineMotion.translation(3, -5)
    assert t.apply(10.0, 20.0) == (13.0, 15.0)
    with pytest.raises(MotionError):
        AffineMotion(a11=float("nan"))


def test_chroma_motion_halves_translation():
    m = AffineMotion(a11=1.1, a12=0.02, a21=-0.02, a22=1.1, tx=6.0, ty=-4.0)
    c = chroma_motion(m)
    assert (c.a11, c.a12, c.a21, c.a22) == (1.1, 0.02, -0.02, 1.1)
    assert (c.tx, c.ty) == (3.0, -2.0)


# ---------------------------------------------------------------------------
# warp


def test_warp_identity_bit_exact():
    f = _texture_frame(64, 48, seed=1)
    w = warp_frame(f, AffineMotion.identity())
    assert w.same_samples(f)


def test_warp_translation_on_ramp():
    y = np.tile(np.arange(32, dtype=np.uint8), (16, 1))
    f = Frame(y=y, uv=np.stack((np.full((8, 16), 128, np.uint8),
                                np.full((8, 16), 128, np.uint8))))
    w = warp_frame(f, AffineMotion.translation(1, 0))
    expected = np.minimum(np.arange(32) + 1, 31).astype(np.uint8)
    assert np.array_equal(w.y, np.tile(expected, (16, 1)))


def test_warp_half_pixel_on_ramp():
    y = np.tile(np.arange(0, 64, 2, dtype=np.uint8), (16, 1))  # Y[x] = 2x
    f = Frame(y=y, uv=np.stack((np.full((8, 16), 128, np.uint8),
                                np.full((8, 16), 128, np.uint8))))
    w = warp_frame(f, AffineMotion.translation(0.5, 0))
    # bilinear closed form: value 2x + 1 exactly (last column clamps)
    expected = np.minimum(2 * np.arange(32) + 1, 62).astype(np.uint8)
    assert np.array_equal(w.y, np.tile(expected, (16, 1)))


def test_warp_composition_inverse_translation():
    f = _texture_frame(64, 48, seed=2)
    t = 3
    back = warp_frame(warp_frame(f, AffineMotion.translation(t, t)),
                      AffineMotion.translation(-t, -t))
    assert np.array_equal(back.y[t:-t, t:-t], f.y[t:-t, t:-t])


def _ref_warp_plane(plane, m):
    """Per-pixel bilinear warp with edge clamping: the reference for
    `warp_frame`."""
    h, w = plane.shape
    out = np.empty_like(plane)
    for y in range(h):
        for x in range(w):
            px, py = m.apply(float(x), float(y))
            px, py = min(max(px, 0.0), w - 1.0), min(max(py, 0.0), h - 1.0)
            x0, y0 = math.floor(px), math.floor(py)
            x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
            fx, fy = px - x0, py - y0
            val = (float(plane[y0, x0]) * (1 - fx) * (1 - fy)
                   + float(plane[y0, x1]) * fx * (1 - fy)
                   + float(plane[y1, x0]) * (1 - fx) * fy
                   + float(plane[y1, x1]) * fx * fy)
            out[y, x] = min(max(round(val), 0), 255)
    return out


_WARP_MODELS = (AffineMotion(1.02, 0.01, -0.01, 0.98, 3.3, -2.7),
                AffineMotion.translation(-5.5, 7.25),
                AffineMotion(0.9, -0.2, 0.15, 1.1, -40.0, 20.0))


def test_warp_frame_matches_per_pixel_reference():
    # 40 rows: warped in two full 16-row bands and a partial one
    f = _texture_frame(48, 40, seed=3)
    for m in _WARP_MODELS:
        w = warp_frame(f, m)
        assert np.array_equal(w.y, _ref_warp_plane(f.y, m))
        mc = chroma_motion(m)
        assert np.array_equal(w.u, _ref_warp_plane(f.u, mc))
        assert np.array_equal(w.v, _ref_warp_plane(f.v, mc))


def _int_warp_sample(plane, q16, frac, x, y):
    """Sample (x, y) of the warp of `plane` (a list of rows) by the six
    Q16.16 header ints `q16`, in Python integers, as docs/bitstream.md
    defines it: the mapped coordinates in Q`frac` (16 for luma; 17 for
    chroma, whose translation is half the header's), clamped to the plane,
    the four samples weighted by products of the Q`frac` weights, and the
    sum rounded half to even."""
    a11, a12, a21, a22, tx, ty = q16
    h, w = len(plane), len(plane[0])
    one = 1 << frac
    px = min(max(((a11 * x + a12 * y) << (frac - 16)) + tx, 0), (w - 1) * one)
    py = min(max(((a21 * x + a22 * y) << (frac - 16)) + ty, 0), (h - 1) * one)
    x0, fx = divmod(px, one)
    y0, fy = divmod(py, one)
    x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
    total = (plane[y0][x0] * (one - fx) * (one - fy)
             + plane[y0][x1] * fx * (one - fy)
             + plane[y1][x0] * (one - fx) * fy
             + plane[y1][x1] * fx * fy)
    q, r = divmod(total, one * one)
    return q + (2 * r > one * one or (2 * r == one * one and q & 1))


def _q16_headers(rng, n):
    """n realistic Q16.16 headers (a small zoom, rotation and shear, and a
    shift within a few hundred samples), n half-sample shifts, whose
    weighted sums often end in exactly one half, and n arbitrary i32
    ones."""
    linear = rng.integers(-6554, 6554, (n, 4)) + [65536, 0, 0, 65536]
    shift = rng.integers(-300 << 16, 300 << 16, (n, 2))
    half = np.hstack([np.tile([65536, 0, 0, 65536], (n, 1)),
                      rng.integers(-20, 20, (n, 2)) << 15])
    arbitrary = rng.integers(-2 ** 31, 2 ** 31, (n, 6))
    return np.concatenate([np.hstack([linear, shift]), half,
                           arbitrary]).tolist()


@pytest.mark.parametrize("width,height,samples", [(48, 40, None),
                                                  (65536, 4, 300)],
                         ids=["48x40", "65536x4"])
def test_warp_frame_matches_integer_definition(width, height, samples):
    # warp_frame's float arithmetic is exact on Q16.16 headers, so it is
    # the integer warp that docs/bitstream.md defines: checked at every
    # sample, or at `samples` random ones of each plane of the wide frame
    rng = np.random.default_rng(7)
    f = Frame(y=rng.integers(0, 256, (height, width), dtype=np.uint8),
              uv=rng.integers(0, 256, (2, height // 2, width // 2),
                              dtype=np.uint8))
    for q16 in _q16_headers(rng, 8):
        w = warp_frame(f, AffineMotion(*(v / 65536.0 for v in q16)))
        for plane, got, frac in ((f.y, w.y, 16), (f.u, w.u, 17),
                                 (f.v, w.v, 17)):
            h, pw = plane.shape
            if samples is None:
                ys, xs = np.divmod(np.arange(h * pw), pw)
            else:
                ys, xs = rng.integers(0, h, samples), rng.integers(0, pw,
                                                                   samples)
            rows = plane.tolist()
            want = [_int_warp_sample(rows, q16, frac, x, y)
                    for x, y in zip(xs.tolist(), ys.tolist())]
            assert got[ys, xs].tolist() == want


def test_warp_frame_scratch_memory_is_bounded():
    # 1024x1024 planes are 1.5 MB; warping them whole took over 120 MB
    rng = np.random.default_rng(4)
    f = Frame(y=rng.integers(0, 256, (1024, 1024), dtype=np.uint8),
              uv=np.stack((rng.integers(0, 256, (512, 512), dtype=np.uint8),
                           rng.integers(0, 256, (512, 512), dtype=np.uint8))))
    tracemalloc.start()
    try:
        warp_frame(f, _WARP_MODELS[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_bilinear_sample_edge_clamp():
    plane = np.array([[0, 100], [200, 255]], np.uint8)
    out = bilinear_sample(plane, np.array([-5.0, 0.5, 10.0]),
                          np.array([0.0, 0.0, 1.0]))
    assert out[0] == 0 and out[1] == 50 and out[2] == 255


def test_warp_rect_corners():
    r = BlockRect(0, 0, 16)
    assert warp_rect(AffineMotion.identity(), r) == (
        (0.0, 0.0), (15.0, 0.0), (0.0, 15.0), (15.0, 15.0))
    xs = sorted({c[0] for c in warp_rect(AffineMotion.translation(16, 0), r)})
    assert xs == [16.0, 31.0]
    scaled = warp_rect(AffineMotion(a11=2.0, a22=2.0), r)
    assert scaled[0] == (0.0, 0.0)
    assert scaled[3] == (30.0, 30.0)


# ---------------------------------------------------------------------------
# block matching and fitting


def _cur_with_block(ref, dx, dy):
    """A plane whose 16x16 block at (32, 32) is ref's block at
    (32 + dx, 32 + dy)."""
    cur = np.zeros_like(ref)
    cur[32:48, 32:48] = ref[32 + dy:48 + dy, 32 + dx:48 + dx]
    return cur


def test_diamond_search_recovers_small_shift():
    rng = np.random.default_rng(3)
    ref = _noise_texture(rng, 96, 96, sigma=0.8)
    cur = _cur_with_block(ref, 2, -1)
    assert diamond_search(cur, ref, [32], [32], 16).tolist() == [[2, -1]]


def test_diamond_search_predictor_seed_escapes_local_minimum():
    # a large shift on smooth noise needs a seed near the truth; the
    # estimator provides one from its coarse pass
    rng = np.random.default_rng(3)
    ref = _noise_texture(rng, 96, 96, sigma=0.8)
    cur = _cur_with_block(ref, 7, -5)
    got = diamond_search(cur, ref, [32], [32], 16, starts=[[6, -4]])
    assert got.tolist() == [[7, -5]]


def test_diamond_search_origin_outside_reference_raises():
    ref = np.zeros((64, 64), np.uint8)
    with pytest.raises(MotionError, match="origin outside"):
        diamond_search(ref, ref, [0, 49], [0, 0], 16)


def _search_planes(kind, rng, h, w):
    """A (cur, ref) pair of luma planes: cur is ref moved by a few pixels
    plus noise ("random"), the same on few grey levels so that many SADs
    tie ("ties"), or two constant planes ("flat")."""
    if kind == "flat":
        return np.full((h, w), 90, np.uint8), np.full((h, w), 97, np.uint8)
    canvas = _noise_texture(rng, h + 8, w + 8, sigma=1.5).astype(np.int64)
    ref, cur = canvas[4:4 + h, 4:4 + w], canvas[1:1 + h, 7:7 + w]
    if kind == "random":
        cur = cur + rng.integers(-6, 7, cur.shape)
        return (np.clip(cur, 0, 255).astype(np.uint8),
                np.clip(ref, 0, 255).astype(np.uint8))
    return (cur // 64 * 60).astype(np.uint8), (ref // 64 * 60).astype(np.uint8)


@pytest.mark.parametrize("size", [16, 32, 64])
@pytest.mark.parametrize("kind", ["random", "ties", "flat"])
def test_diamond_search_matches_scalar_oracle(kind, size):
    rng = np.random.default_rng(100 + size + len(kind))
    h, w = 176, 208
    cur, ref = _search_planes(kind, rng, h, w)
    # the four corners and edges of the plane, then random positions
    xs = [0, w - size, 0, w - size, 0, (w - size) // 2]
    ys = [0, 0, h - size, h - size, (h - size) // 2, 0]
    xs += rng.integers(0, w - size + 1, 34).tolist()
    ys += rng.integers(0, h - size + 1, 34).tolist()
    inside = rng.integers(-SEARCH_RANGE, SEARCH_RANGE + 1, (40, 2))
    beyond = rng.choice([-1, 1], (40, 2)) * rng.integers(
        SEARCH_RANGE - 2, SEARCH_RANGE + 9, (40, 2))
    for starts in (None, inside, beyond):
        got = diamond_search(cur, ref, xs, ys, size, starts)
        want = [search_oracle.diamond_search(
            cur[y:y + size, x:x + size], ref, x, y,
            start=(0, 0) if starts is None else tuple(starts[i].tolist()))[:2]
            for i, (x, y) in enumerate(zip(xs, ys))]
        assert got.dtype == np.int64
        assert got.tolist() == [list(d) for d in want]


@pytest.mark.parametrize("w, h", [(352, 288), (128, 96), (200, 136)])
def test_collect_correspondences_matches_scalar_oracle(w, h):
    rng = np.random.default_rng(w + h)
    ref = _texture_frame(w, h, seed=w)
    cur = warp_frame(ref, AffineMotion(a11=1.01, a12=0.015, a21=-0.015,
                                       a22=1.01, tx=-3.4, ty=2.6))
    labels = np.where(rng.random((h // 16, w // 16)) < 0.2, NON_TEXTURE,
                      TEXTURE).astype(np.uint8)
    mask = TextureMask(labels=labels, probs=labels.astype(np.float32))
    n = int(np.sum(mask.labels == TEXTURE))
    for starts in (np.zeros((n, 2), np.int64),
                   np.tile((-4, 4), (n, 1)),
                   rng.integers(-SEARCH_RANGE - 6, SEARCH_RANGE + 7, (n, 2))):
        got = collect_correspondences(cur, ref, mask, starts)
        want = search_oracle.collect_correspondences(cur, ref, mask, starts)
        for a, b in zip(got, want):
            assert a.shape == (n, 2) and np.array_equal(a, b)


def test_fit_exact_on_noiseless_correspondences():
    rng = np.random.default_rng(4)
    truth = AffineMotion(a11=1.03, a12=0.02, a21=-0.02, a22=1.03,
                         tx=4.2, ty=-1.7)
    src = rng.uniform(0, 100, (30, 2))
    dst = np.column_stack(truth.apply(src[:, 0], src[:, 1]))
    for kind in (MotionModelKind.ROTZOOM, MotionModelKind.AFFINE):
        m, inl = fit_motion_ransac(src, dst, kind, seed=1234)
        assert np.allclose(m.as_tuple(), truth.as_tuple(), atol=1e-9)
        assert inl.all()


def test_ransac_rejects_outliers():
    rng = np.random.default_rng(5)
    truth = AffineMotion.translation(5.0, -3.0)
    src = rng.uniform(0, 100, (40, 2))
    dst = np.column_stack(truth.apply(src[:, 0], src[:, 1]))
    dst[:8] += rng.uniform(10, 30, (8, 2))  # 20% gross outliers
    m, inl = fit_motion_ransac(src, dst, MotionModelKind.TRANSLATION,
                               seed=1234)
    assert np.allclose((m.tx, m.ty), (5.0, -3.0), atol=1e-9)
    assert inl.sum() == 32


def test_fit_needs_minimum_points():
    with pytest.raises(MotionError):
        fit_motion_ransac(np.zeros((2, 2)), np.zeros((2, 2)),
                          MotionModelKind.AFFINE, seed=1234)


# ---------------------------------------------------------------------------
# the array programs against their scalar oracles


def _assert_fit_matches_oracle(src, dst, kind, seed):
    m, inl = fit_motion_ransac(src, dst, kind, seed)
    want_m, want_inl = ransac_oracle.fit_motion_ransac(src, dst, kind, seed)
    assert m.as_tuple() == want_m.as_tuple()
    assert inl.dtype == bool and np.array_equal(inl, want_inl)


@functools.lru_cache(maxsize=None)
def _panning_pairs(w, h, seed):
    """(cur, KEY, cur mask, KEY mask) of a panning clip's frames 2 and 0,
    padded as the codec codes them."""
    seq, masks = panning_texture_sequence(w, h, n_frames=3, seed=seed)
    return pad_frame(seq[2]), pad_frame(seq[0]), masks[2], masks[0]


_CLIPS = [(w, h, seed) for w, h in ((128, 96), (176, 144), (352, 288))
          for seed in (1, 2)]


@pytest.mark.parametrize("w, h, clip_seed", _CLIPS)
def test_batched_ransac_matches_scalar_oracle(w, h, clip_seed):
    cur, key, cur_mask, _ = _panning_pairs(w, h, clip_seed)
    n = int(np.sum(cur_mask.labels == TEXTURE))
    starts = np.tile(coarse_translation(cur, key, cur_mask), (n, 1))
    src, dst = collect_correspondences(cur, key, cur_mask, starts)
    for kind in MotionModelKind:
        for seed in (0, 1234, 77):
            _assert_fit_matches_oracle(src, dst, kind, seed)


def test_batched_ransac_blocks_keep_the_first_best(monkeypatch):
    # hypotheses scored 7 at a time, so that equal inlier counts meet
    # across blocks as well as within one
    cur, key, cur_mask, _ = _panning_pairs(176, 144, 1)
    n = int(np.sum(cur_mask.labels == TEXTURE))
    src, dst = collect_correspondences(cur, key, cur_mask,
                                       np.zeros((n, 2), np.int64))
    dst[::3] += 2.0
    monkeypatch.setattr(motion, "_RANSAC_BLOCK", 7 * n)
    for kind in MotionModelKind:
        for seed in (0, 1234):
            _assert_fit_matches_oracle(src, dst, kind, seed)
    # two halves moving apart: a fit to either half has 20 inliers, and
    # the half drawn first must win
    src = _cell_centres(10, 4)
    dst = src + np.where(np.arange(40)[:, None] < 20, (5.0, 0), (-5.0, 0))
    monkeypatch.setattr(motion, "_RANSAC_BLOCK", 7 * 40)
    for kind in MotionModelKind:
        for seed in (0, 1, 2):
            _assert_fit_matches_oracle(src, dst, kind, seed)


def _cell_centres(cols, rows):
    gx, gy = np.meshgrid(np.arange(cols), np.arange(rows))
    return np.column_stack((gx.ravel(), gy.ravel())) * 16 + 7.5


def test_batched_ransac_matches_oracle_on_singular_samples():
    rng = np.random.default_rng(21)
    truth = AffineMotion(a11=1.01, a12=0.02, a21=-0.015, a22=0.99,
                         tx=2.3, ty=-1.1)
    # two rows of cells: a fifth of all AFFINE draws are collinear, and a
    # repeated point can make a ROTZOOM draw singular as well
    src = np.concatenate((_cell_centres(9, 2), _cell_centres(1, 1)))
    dst = np.column_stack(truth.apply(src[:, 0], src[:, 1]))
    dst += rng.normal(0, 0.4, dst.shape)
    dst[:4] += rng.uniform(5, 9, (4, 2))
    draws = np.random.default_rng(5)
    idx = np.array([draws.choice(len(src), 3, replace=False)
                    for _ in range(RANSAC_ITERATIONS)])
    assert np.any(src[idx, 1].min(axis=1) == src[idx, 1].max(axis=1))
    for kind in MotionModelKind:
        _assert_fit_matches_oracle(src, dst, kind, 5)
    # every draw from one row of cells is collinear
    line = _cell_centres(12, 1)
    for kind in MotionModelKind:
        _assert_fit_matches_oracle(line, line + (3.0, -2.0), kind, 8)


def test_batched_ransac_matches_oracle_with_non_finite_points():
    cur, key, cur_mask, _ = _panning_pairs(128, 96, 1)
    n = int(np.sum(cur_mask.labels == TEXTURE))
    src, dst = collect_correspondences(cur, key, cur_mask,
                                       np.zeros((n, 2), np.int64))
    for bad in (np.nan, np.inf):
        d = dst.copy()
        d[3, 0] = bad
        d[n // 2, 1] = -bad
        for kind in MotionModelKind:
            for seed in (0, 1234):
                _assert_fit_matches_oracle(src, d, kind, seed)


def test_batched_ransac_too_few_points_error_unchanged():
    for kind, n in ((MotionModelKind.TRANSLATION, 0),
                    (MotionModelKind.ROTZOOM, 1), (MotionModelKind.AFFINE, 2)):
        pts = _cell_centres(n, 1)
        with pytest.raises(MotionError) as got:
            fit_motion_ransac(pts, pts, kind, 1)
        with pytest.raises(MotionError) as want:
            ransac_oracle.fit_motion_ransac(pts, pts, kind, 1)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("w, h, clip_seed", _CLIPS)
def test_coarse_translation_matches_scalar_oracle(w, h, clip_seed):
    cur, key, cur_mask, key_mask = _panning_pairs(w, h, clip_seed)
    for mask in (cur_mask, key_mask):
        assert (coarse_translation(cur, key, mask)
                == ransac_oracle.coarse_translation(cur, key, mask))


def _one_cell_mask(gh, gw, gy, gx):
    labels = np.zeros((gh, gw), np.uint8)
    labels[gy, gx] = TEXTURE
    return TextureMask(labels=labels, probs=labels.astype(np.float32))


def _both_coarse(cur, ref, mask):
    got = coarse_translation(cur, ref, mask)
    assert got == ransac_oracle.coarse_translation(cur, ref, mask)
    return got


def test_coarse_translation_crafted_cases():
    rng = np.random.default_rng(31)
    f = _texture_frame(96, 64, seed=31)
    # the reference is the current frame moved 4 px left: the exact match
    # (-4, 0) keeps only 12 samples of a cell in column 0, so it is skipped
    ref = Frame(y=np.roll(f.y, -4, axis=1), uv=f.uv)
    assert _both_coarse(f, ref, _one_cell_mask(4, 6, 1, 0)) != (-4, 0)
    assert _both_coarse(f, ref, _one_cell_mask(4, 6, 1, 2)) == (-4, 0)
    # a cell cut to one quarter-resolution column never reaches 16 samples
    narrow = Frame(y=f.y[:, :36], uv=f.uv[:, :, :18])
    assert _both_coarse(narrow, narrow, _one_cell_mask(4, 3, 1, 2)) == (0, 0)
    # on flat planes every shift ties at cost 0: the first one wins
    flat = Frame(y=np.full((64, 96), 77, np.uint8), uv=f.uv)
    assert _both_coarse(flat, flat, all_texture_mask(4, 6)) == (-32, -32)
    # columns of period 8 px: the matches 8 px apart tie
    stripes = Frame(y=np.tile(rng.integers(0, 256, (64, 8), dtype=np.uint8),
                              (1, 12)), uv=f.uv)
    assert _both_coarse(stripes, stripes, all_texture_mask(4, 6)) == (-32, 0)
    moved = Frame(y=np.roll(stripes.y, 4, axis=1), uv=f.uv)
    assert _both_coarse(stripes, moved, all_texture_mask(4, 6)) == (-28, 0)
    # under two quarter-resolution rows, there is nothing to search
    short = Frame(y=f.y[:7], uv=f.uv[:, :4])
    assert _both_coarse(short, short, all_texture_mask(1, 6)) == (0, 0)


def test_estimate_scratch_memory_is_bounded():
    # 1920x1088 with all 8 160 cells texture: gathering every cell's SAD
    # candidates at once took 107 MB, and scoring all RANSAC hypotheses of
    # 8 160 points at once takes 13 MB per (200, n) float array
    rng = np.random.default_rng(3)
    w, h = 1920, 1088
    canvas = _noise_texture(rng, h + 8, w + 8, sigma=1.0)
    uv = np.full((2, h // 2, w // 2), 128, np.uint8)
    ref = Frame(y=canvas[4:4 + h, 4:4 + w], uv=uv)
    cur = Frame(y=canvas[2:2 + h, 7:7 + w], uv=uv)
    mask = all_texture_mask(h // 16, w // 16)
    tracemalloc.start()
    try:
        m, stats = estimate_texture_motion(cur, ref, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.n_cells == 8160 and stats.inlier_fraction > 0.9
    assert np.allclose((m.tx, m.ty), (3.0, -2.0), atol=0.05)
    assert peak < 24 * 2 ** 20


# ---------------------------------------------------------------------------
# estimation end to end


def test_estimate_identity_on_identical_frames():
    f = _texture_frame(128, 96, seed=6)
    mask = _interior_mask(6, 8)
    m, stats = estimate_texture_motion(f, f, mask, MotionModelKind.ROTZOOM)
    assert np.allclose(m.as_tuple(), (1, 0, 0, 1, 0, 0), atol=0.01)
    assert stats.mean_residual <= 0.01
    assert stats.n_cells == int(np.sum(mask.labels == TEXTURE))


def test_estimate_integer_shift():
    rng = np.random.default_rng(7)
    canvas = _noise_texture(rng, 120, 160, sigma=0.8)
    dx, dy = 3, 5
    ref = Frame(y=canvas[:96, :128],
                uv=np.stack((np.full((48, 64), 128, np.uint8),
                             np.full((48, 64), 128, np.uint8))))
    # cur(x, y) = ref(x + dx, y + dy): content shifted up-left
    cur = Frame(y=canvas[dy:96 + dy, dx:128 + dx],
                uv=np.stack((np.full((48, 64), 128, np.uint8),
                             np.full((48, 64), 128, np.uint8))))
    mask = _interior_mask(6, 8)
    m, stats = estimate_texture_motion(cur, ref, mask, MotionModelKind.ROTZOOM)
    assert abs(m.tx - dx) <= 0.5 and abs(m.ty - dy) <= 0.5
    assert abs(m.a11 - 1) <= 0.01 and abs(m.a12) <= 0.01
    assert stats.inlier_fraction > 0.8


def test_estimate_requires_texture_region():
    f = _texture_frame(64, 48, seed=8)
    empty = all_texture_mask(3, 4, texture=False)
    with pytest.raises(MotionError, match="no texture region"):
        estimate_texture_motion(f, f, empty)


def test_estimate_few_cells_falls_back_to_translation():
    f = _texture_frame(128, 96, seed=9)
    labels = np.zeros((6, 8), np.uint8)
    labels[2, 2:5] = TEXTURE  # 3 cells < 6
    mask = TextureMask(labels=labels, probs=labels.astype(np.float32))
    m, stats = estimate_texture_motion(f, f, mask, MotionModelKind.ROTZOOM)
    assert stats.fallback_translation
    assert (m.a11, m.a12, m.a21, m.a22) == (1.0, 0.0, 0.0, 1.0)


def test_estimate_deterministic():
    ref = _texture_frame(128, 96, seed=10)
    cur = warp_frame(ref, AffineMotion(a11=1.02, a12=0.01, a21=-0.01,
                                       a22=1.02, tx=2.0, ty=-3.0))
    mask = _interior_mask(6, 8, margin=2)
    r1 = estimate_texture_motion(cur, ref, mask, MotionModelKind.ROTZOOM)
    r2 = estimate_texture_motion(cur, ref, mask, MotionModelKind.ROTZOOM)
    assert r1[0].as_tuple() == r2[0].as_tuple()
    assert r1[1].as_dict() == r2[1].as_dict()
