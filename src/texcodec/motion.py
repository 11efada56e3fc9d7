"""Texture motion estimation and frame warping.

An AffineMotion maps current-frame luma coordinates into the reference
frame: (x', y') = (a11*x + a12*y + tx, a21*x + a22*y + ty).  Estimation
seeds the search with a full-search translation of the texture region at
quarter resolution (the shifts of one row scored together), collects one
translational correspondence per texture cell by diamond-search block
matching (SAD on 16x16 luma, range +-SEARCH_RANGE, all cells searched in
lockstep) with parabolic sub-pixel refinement, then fits the requested
model with RANSAC and a least-squares refit on the inliers.  The RANSAC
minimal fits are solved as one stack of linear systems and their inliers
counted as one array per block of hypotheses.  Synthesis warps the
reference with bilinear interpolation, clamping out-of-bounds samples to
the frame edge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .analyzer import TextureMask
from .datasets import TEXTURE
from .frames import BLOCK, Frame

DET_MIN, DET_MAX = 0.25, 4.0
RANSAC_THRESHOLD = 1.5  # px: a correspondence within it is an inlier
RANSAC_ITERATIONS = 200
SEARCH_RANGE = 32  # px: the largest |dx| or |dy| a block search reaches


class MotionError(ValueError):
    pass


class MotionModelKind(enum.Enum):
    TRANSLATION = "translation"
    ROTZOOM = "rotzoom"
    AFFINE = "affine"


@dataclass(frozen=True)
class AffineMotion:
    a11: float = 1.0
    a12: float = 0.0
    a21: float = 0.0
    a22: float = 1.0
    tx: float = 0.0
    ty: float = 0.0

    def __post_init__(self):
        if not all(np.isfinite(v) for v in self.as_tuple()):
            raise MotionError("non-finite motion parameters")

    def as_tuple(self):
        return (self.a11, self.a12, self.a21, self.a22, self.tx, self.ty)

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def apply(self, x, y):
        """Map coordinates (arrays or scalars) into the reference frame."""
        return (
            self.a11 * x + self.a12 * y + self.tx,
            self.a21 * x + self.a22 * y + self.ty,
        )

    @classmethod
    def identity(cls):
        return cls()

    @classmethod
    def translation(cls, tx, ty):
        return cls(tx=float(tx), ty=float(ty))


@dataclass
class MotionStats:
    n_cells: int = 0
    n_inliers: int = 0
    inlier_fraction: float = 0.0
    mean_residual: float = 0.0
    fallback_translation: bool = False

    def as_dict(self):
        return dict(self.__dict__)


# ---------------------------------------------------------------------------
# block matching


_FAR = np.iinfo(np.int64).max  # the score of a displacement out of reach
_LARGE_DIAMOND = np.array(((0, 0), (2, 0), (-2, 0), (0, 2), (0, -2),
                           (1, 1), (1, -1), (-1, 1), (-1, -1)))
_SMALL_DIAMOND = np.array(((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)))


_SAD_BLOCK = 1 << 20  # reference samples `_sads` gathers per step


def _sads(blocks, windows, xs, ys, d) -> np.ndarray:
    """SAD of each block against its (n, k) reference windows displaced by
    the (n, k, 2) array `d`; _FAR where a displacement leaves ±SEARCH_RANGE
    or the reference plane.  The windows are gathered a few blocks at a
    time, at most _SAD_BLOCK samples per step."""
    x, y = xs[:, None] + d[..., 0], ys[:, None] + d[..., 1]
    ok = ((np.abs(d).max(axis=-1) <= SEARCH_RANGE) & (x >= 0) & (y >= 0)
          & (x < windows.shape[1]) & (y < windows.shape[0]))
    x, y = np.where(ok, x, 0), np.where(ok, y, 0)
    out = np.full(ok.shape, _FAR)
    step = max(1, _SAD_BLOCK // (d.shape[1] * blocks.shape[-1] ** 2))
    for lo in range(0, len(blocks), step):
        part = slice(lo, lo + step)
        ref = windows[y[part], x[part]].astype(np.int16)
        sad = np.abs(ref - blocks[part, None]).sum(axis=(-2, -1))
        out[part] = np.where(ok[part], sad, _FAR)
    return out


def _search_arrays(cur_y, ref_y, xs, ys, size):
    """The blocks at (xs, ys) as int16, the reference's windows, xs, ys."""
    xs, ys = np.asarray(xs, np.int64), np.asarray(ys, np.int64)
    windows = sliding_window_view(ref_y, (size, size))
    if np.any((xs < 0) | (ys < 0) | (xs >= windows.shape[1])
              | (ys >= windows.shape[0])):
        raise MotionError("search origin outside reference frame")
    blocks = sliding_window_view(cur_y, (size, size))[ys, xs].astype(np.int16)
    return blocks, windows, xs, ys


def diamond_search(cur_y: np.ndarray, ref_y: np.ndarray, xs, ys, size: int,
                   starts=None) -> np.ndarray:
    """The integer displacement (dx, dy) of least SAD of each size x size
    block of `cur_y` at (xs[i], ys[i]) in `ref_y`, as an (n, 2) int64 array.

    All blocks walk the classic large/small diamond pattern in lockstep,
    bounded to ±SEARCH_RANGE and to positions fully inside `ref_y`.  Block
    i begins at the better of (0, 0) and starts[i] (a motion predictor);
    the large diamond moves until its centre wins, then the small diamond
    takes four steps from the moving best.  A tie keeps the earlier
    candidate.
    """
    blocks, windows, xs, ys = _search_arrays(cur_y, ref_y, xs, ys, size)
    rows = np.arange(len(xs))
    cand = np.zeros((len(xs), 2, 2), np.int64)
    if starts is not None:
        cand[:, 1] = starts
    cost = _sads(blocks, windows, xs, ys, cand)
    pick = cost.argmin(axis=1)
    best, cost = cand[rows, pick], cost[rows, pick]
    active = rows
    while len(active):
        ring = best[active, None] + _LARGE_DIAMOND
        c = _sads(blocks[active], windows, xs[active], ys[active], ring[:, 1:])
        c = np.concatenate((cost[active, None], c), axis=1)
        pick = c.argmin(axis=1)
        k = np.arange(len(active))
        best[active], cost[active] = ring[k, pick], c[k, pick]
        active = active[pick > 0]
    for step in _SMALL_DIAMOND[1:]:
        c = _sads(blocks, windows, xs, ys, (best + step)[:, None])[:, 0]
        better = c < cost
        best[better] += step
        cost[better] = c[better]
    return best


_COARSE_BLOCK = 1 << 14  # texture samples `coarse_translation` scores per step


def _sums4(y: np.ndarray, h4: int, w4: int) -> np.ndarray:
    """The (h4, w4) int16 sums of the 4x4 blocks of `y`: 16 times its
    quarter-resolution means."""
    a = y[:4 * h4, :4 * w4].astype(np.int16)
    a = a[:, 0::4] + a[:, 1::4] + a[:, 2::4] + a[:, 3::4]
    return a[0::4] + a[1::4] + a[2::4] + a[3::4]


def _box_sums(grid: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """out[i, j]: the sum of `grid` over the samples that the shift
    (shifts[j], shifts[i]) keeps inside the grid."""
    h, w = grid.shape
    table = np.zeros((h + 1, w + 1), np.int64)
    table[1:, 1:] = grid.cumsum(axis=0, dtype=np.int64).cumsum(axis=1)
    y0, y1 = np.clip(-shifts, 0, h), np.clip(h - shifts, 0, h)
    x0, x1 = np.clip(-shifts, 0, w), np.clip(w - shifts, 0, w)
    return (table[np.ix_(y1, x1)] - table[np.ix_(y0, x1)]
            - table[np.ix_(y1, x0)] + table[np.ix_(y0, x0)])


def coarse_translation(cur: Frame, ref: Frame,
                       cur_mask: TextureMask) -> tuple[int, int]:
    """Full-search translation of the texture region at quarter resolution;
    used to seed the per-cell diamond searches.

    A shift (dx, dy) within ±SEARCH_RANGE/4 that keeps n >= 16 texture
    samples of the quarter-resolution frame inside it costs the mean
    absolute difference over those n samples.  The first least cost in
    dy-major, dx-minor order wins; (0, 0) when no shift qualifies.  The
    shifts of one dy are scored together, over at most _COARSE_BLOCK
    texture samples at a time, so that the scratch arrays stay small.
    """
    f = 4
    h4, w4 = cur.height // f, cur.width // f
    if h4 < 2 or w4 < 2:
        return (0, 0)
    sel = np.kron(cur_mask.labels == TEXTURE,
                  np.ones((BLOCK // f, BLOCK // f), dtype=bool))[:h4, :w4]
    ty, tx = np.nonzero(sel)
    if not len(ty):
        return (0, 0)
    r = max(SEARCH_RANGE // f, 1)
    shifts = np.arange(-r, r + 1)
    cur4 = _sums4(cur.y, h4, w4)
    c = cur4[ty, tx]
    # The reference is padded with r zero samples on each side, so that a
    # shifted sample always lands in it; one that leaves the frame adds
    # |c - 0| = c to `total`, taken off again below.  From row dy + r of
    # the padded plane on, its flat sample idx[k, i] is the one that
    # texture sample i meets at the shift (shifts[k], dy).
    w = w4 + 2 * r
    plane = np.pad(_sums4(ref.y, h4, w4), r).ravel()
    total = np.zeros((2 * r + 1, 2 * r + 1), np.int64)
    for lo in range(0, len(c), _COARSE_BLOCK):
        part = slice(lo, lo + _COARSE_BLOCK)
        idx = ty[part] * w + tx[part] + np.arange(2 * r + 1)[:, None]
        for i, dy in enumerate(shifts):
            d = np.take(plane[(dy + r) * w:], idx)
            np.subtract(d, c[part], out=d)
            total[i] += np.abs(d, out=d).sum(axis=1, dtype=np.int64)
    inside = _box_sums(np.where(sel, cur4, 0), shifts)
    n = _box_sums(sel, shifts)
    s = total - (int(c.sum(dtype=np.int64)) - inside)
    # Every absolute difference of 4x4 sums, and so every partial sum of
    # them, is an exact integer; the 4x4 means that the costs are defined
    # on are those sums / 16, whose differences then sum exactly to s / 16
    # in any order.  So s / (16 n) is the one correctly rounded float of
    # the mean over the n samples, whatever order s was summed in.
    with np.errstate(divide="ignore", invalid="ignore"):
        cost = np.where(n >= 16, s / (16.0 * n), np.inf)
    k = int(cost.argmin())
    if not np.isfinite(cost.flat[k]):
        return (0, 0)
    dy, dx = divmod(k, 2 * r + 1)
    return (int(shifts[dx]) * f, int(shifts[dy]) * f)


def collect_correspondences(cur: Frame, ref: Frame, cur_mask: TextureMask,
                            starts) -> tuple[np.ndarray, np.ndarray]:
    """One (src, dst) point pair per texture cell, in cell raster order: the
    cell centre, and the centre moved by the cell's diamond-search match
    (begun at starts[i]) refined by a 3-point SAD parabola per axis."""
    gy, gx = np.nonzero(cur_mask.labels == TEXTURE)
    xs, ys = gx * BLOCK, gy * BLOCK
    d = diamond_search(cur.y, ref.y, xs, ys, BLOCK, starts)
    # SADs at the match and at its +x, -x, +y and -y neighbours
    s = _sads(*_search_arrays(cur.y, ref.y, xs, ys, BLOCK),
              d[:, None] + _SMALL_DIAMOND)
    src = np.column_stack((xs, ys)) + (BLOCK - 1) / 2.0
    dst = src.copy()
    for axis in (0, 1):
        sp, s0, sm = s[:, 1 + 2 * axis], s[:, 0], s[:, 2 + 2 * axis]
        denom = np.where((sm < _FAR) & (sp < _FAR), sm - 2.0 * s0 + sp, 0.0)
        ok = denom > 0
        frac = np.zeros(len(d))
        frac[ok] = np.clip(0.5 * (sm[ok] - sp[ok]) / denom[ok], -0.5, 0.5)
        dst[:, axis] += d[:, axis] + frac
    return src, dst


# ---------------------------------------------------------------------------
# model fitting


def _fit_translation(src, dst) -> AffineMotion:
    t = (dst - src).mean(axis=0)
    return AffineMotion.translation(t[0], t[1])


def _fit_rotzoom(src, dst) -> AffineMotion:
    # x' = a*x + b*y + tx ; y' = -b*x + a*y + ty
    n = len(src)
    A = np.zeros((2 * n, 4))
    rhs = np.empty(2 * n)
    A[0::2, 0] = src[:, 0]
    A[0::2, 1] = src[:, 1]
    A[0::2, 2] = 1.0
    A[1::2, 0] = src[:, 1]
    A[1::2, 1] = -src[:, 0]
    A[1::2, 3] = 1.0
    rhs[0::2] = dst[:, 0]
    rhs[1::2] = dst[:, 1]
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    a, b, tx, ty = sol
    return AffineMotion(a11=a, a12=b, a21=-b, a22=a, tx=tx, ty=ty)


def _fit_affine(src, dst) -> AffineMotion:
    n = len(src)
    A = np.column_stack([src[:, 0], src[:, 1], np.ones(n)])
    sx, *_ = np.linalg.lstsq(A, dst[:, 0], rcond=None)
    sy, *_ = np.linalg.lstsq(A, dst[:, 1], rcond=None)
    return AffineMotion(a11=sx[0], a12=sx[1], a21=sy[0], a22=sy[1],
                        tx=sx[2], ty=sy[2])


_FITTERS = {
    MotionModelKind.TRANSLATION: (_fit_translation, 1),
    MotionModelKind.ROTZOOM: (_fit_rotzoom, 2),
    MotionModelKind.AFFINE: (_fit_affine, 3),
}


def _residuals(m: AffineMotion, src, dst) -> np.ndarray:
    px, py = m.apply(src[:, 0], src[:, 1])
    return np.hypot(px - dst[:, 0], py - dst[:, 1])


def _minimal_fits(src, dst, idx, kind: MotionModelKind) -> np.ndarray:
    """The (I, 6) parameters (a11, a12, a21, a22, tx, ty) of the minimal fit
    to each row of the (I, min_pts) sample array `idx`; NaN where that fit
    fails.  Regular systems are solved as one stack; a singular one (two
    equal ROTZOOM points, three collinear AFFINE points) is fitted by the
    model's least-squares fitter, which returns the minimum-norm fit."""
    s, d = src[idx], dst[idx]  # (I, min_pts, 2)
    fits = np.empty((len(idx), 6))
    if kind is MotionModelKind.TRANSLATION:
        fits[:, :4] = (1.0, 0.0, 0.0, 1.0)
        fits[:, 4:] = d[:, 0] - s[:, 0]
        return fits
    x, y = s[..., 0], s[..., 1]
    one = np.ones_like(x)
    if kind is MotionModelKind.ROTZOOM:
        # the rows of _fit_rotzoom's system, point by point
        zero = np.zeros_like(x)
        A = np.stack((np.stack((x, y, one, zero), -1),
                      np.stack((y, -x, zero, one), -1)), 2).reshape(-1, 4, 4)
        b = d.reshape(-1, 4, 1)
        singular = (x[:, 0] == x[:, 1]) & (y[:, 0] == y[:, 1])
    else:
        A = np.stack((x, y, one), -1)
        b = d
        # cell centres differ by whole samples, so the cross product of
        # two point differences is an exact integer and 0 exactly when the
        # three points are collinear
        singular = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                    == (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))
    A[singular] = np.eye(A.shape[-1])  # fitted one by one below
    try:
        sol = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:  # a singular system of non-cell points
        singular[:] = True
        sol = np.zeros(b.shape[:1] + A.shape[-1:] + b.shape[-1:])
    if kind is MotionModelKind.ROTZOOM:
        a, bb, tx, ty = np.moveaxis(sol[..., 0], -1, 0)
        fits[:] = np.column_stack((a, bb, -bb, a, tx, ty))
    else:
        fits[:] = np.column_stack((sol[:, 0, 0], sol[:, 1, 0], sol[:, 0, 1],
                                   sol[:, 1, 1], sol[:, 2, 0], sol[:, 2, 1]))
    fitter = _FITTERS[kind][0]
    for i in np.flatnonzero(singular):
        try:
            fits[i] = fitter(s[i], d[i]).as_tuple()
        except (MotionError, np.linalg.LinAlgError):
            fits[i] = np.nan
    return fits


_RANSAC_BLOCK = 1 << 16  # (hypothesis, point) pairs scored per step


def fit_motion_ransac(src, dst, kind: MotionModelKind,
                      seed: int) -> tuple[AffineMotion, np.ndarray]:
    """RANSAC + least-squares refit; returns (model, inlier bool mask).

    Draws RANSAC_ITERATIONS minimal samples, fits them all at once and
    counts each fit's inliers, a block of at most _RANSAC_BLOCK residuals
    at a time.  The first fit of most inliers is refitted on them by least
    squares (on every point when it has fewer than the minimal sample),
    then once more on the inliers of that refit."""
    fitter, min_pts = _FITTERS[kind]
    n = len(src)
    if n < min_pts:
        raise MotionError(f"{kind.value} fit needs >= {min_pts} points, got {n}")
    rng = np.random.default_rng(seed)
    idx = np.array([rng.choice(n, size=min_pts, replace=False)
                    for _ in range(RANSAC_ITERATIONS)])
    x, y = src[:, 0], src[:, 1]
    best_count = -1
    step = max(1, _RANSAC_BLOCK // n)
    with np.errstate(all="ignore"):
        fits = _minimal_fits(src, dst, idx, kind)
        for lo in range(0, RANSAC_ITERATIONS, step):
            p = fits[lo:lo + step, :, None]
            # AffineMotion.apply, one row per hypothesis.  A fit with a
            # non-finite parameter has a NaN or infinite residual at every
            # point, so no inliers: it wins only if no fit has min_pts
            # inliers, and then every point is used, as if it was skipped.
            inl = np.hypot(p[:, 0] * x + p[:, 1] * y + p[:, 4] - dst[:, 0],
                           p[:, 2] * x + p[:, 3] * y + p[:, 5] - dst[:, 1]
                           ) <= RANSAC_THRESHOLD
            counts = inl.sum(axis=1)
            k = int(counts.argmax())
            if counts[k] > best_count:
                best_count, best_inliers = int(counts[k]), inl[k]
    if best_count < min_pts:
        best_inliers = np.ones(n, dtype=bool)
    model = fitter(src[best_inliers], dst[best_inliers])
    # one re-selection pass after the refit
    inl = _residuals(model, src, dst) <= RANSAC_THRESHOLD
    if inl.sum() >= min_pts:
        model = fitter(src[inl], dst[inl])
        best_inliers = inl
    return model, best_inliers


def estimate_texture_motion(cur: Frame, ref: Frame, cur_mask: TextureMask,
                            kind: MotionModelKind = MotionModelKind.ROTZOOM,
                            seed: int = 1234,
                            ) -> tuple[AffineMotion, MotionStats]:
    """Fit the texture motion of `cur` relative to `ref` using only the
    texture cells of `cur_mask`.  Falls back to TRANSLATION when there are
    fewer than 6 texture cells or the fit is degenerate."""
    n_cells = int(np.sum(cur_mask.labels == TEXTURE))
    if n_cells < 1:
        raise MotionError("no texture region")
    stats = MotionStats(n_cells=n_cells)
    if n_cells < 6 and kind is not MotionModelKind.TRANSLATION:
        kind = MotionModelKind.TRANSLATION
        stats.fallback_translation = True

    starts = np.tile(coarse_translation(cur, ref, cur_mask), (n_cells, 1))
    src, dst = collect_correspondences(cur, ref, cur_mask, starts)
    model, inliers = fit_motion_ransac(src, dst, kind, seed)

    # second pass: re-search each cell around the fitted model's prediction,
    # which handles displacement fields that vary across the frame
    starts = np.rint(np.column_stack(model.apply(src[:, 0], src[:, 1]))
                     - src).astype(np.int64)
    src2, dst2 = collect_correspondences(cur, ref, cur_mask, starts)
    model2, inliers2 = fit_motion_ransac(src2, dst2, kind, seed)
    if inliers2.sum() >= inliers.sum():
        model, inliers, src, dst = model2, inliers2, src2, dst2

    if not (DET_MIN <= abs(model.det) <= DET_MAX):
        model, inliers = fit_motion_ransac(src, dst,
                                           MotionModelKind.TRANSLATION, seed)
        stats.fallback_translation = True
    stats.n_inliers = int(inliers.sum())
    stats.inlier_fraction = stats.n_inliers / max(len(src), 1)
    res = _residuals(model, src[inliers], dst[inliers])
    stats.mean_residual = float(res.mean()) if len(res) else 0.0
    return model, stats


# ---------------------------------------------------------------------------
# warping


def bilinear_sample(planes: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bilinear interpolation with edge clamping; returns uint8.  `planes` is
    one (h, w) plane or a (c, h, w) stack whose planes share the sample
    positions."""
    h, w = planes.shape[-2:]
    flat = planes.reshape(*planes.shape[:-2], h * w)
    xs = np.clip(xs, 0.0, w - 1.0)
    ys = np.clip(ys, 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    gx, gy = 1 - fx, 1 - fy
    row0, row1 = y0 * w, y1 * w
    # a flat-index take gathers faster than a 2-D fancy index
    at = partial(np.take, flat, axis=-1)
    val = (
        at(row0 + x0) * gx * gy
        + at(row0 + x1) * fx * gy
        + at(row1 + x0) * gx * fy
        + at(row1 + x1) * fx * fy
    )
    return np.clip(np.rint(val), 0, 255).astype(np.uint8)


def chroma_motion(m: AffineMotion) -> AffineMotion:
    """Chroma-plane motion: same linear part, halved translation."""
    return AffineMotion(m.a11, m.a12, m.a21, m.a22, m.tx / 2.0, m.ty / 2.0)


_WARP_BAND = 16  # output rows `warp_frame` samples per step


def _warp_planes(planes: np.ndarray, m: AffineMotion) -> np.ndarray:
    """out[..., y, x] = planes[..., m(x, y)] for an (h, w) plane or a
    (c, h, w) stack, sampled _WARP_BAND output rows at a time so that the
    scratch arrays stay a small multiple of one row."""
    h, w = planes.shape[-2:]
    out = np.empty(planes.shape, np.uint8)
    x = np.arange(w, dtype=np.float64)
    for top in range(0, h, _WARP_BAND):
        y = np.arange(top, min(top + _WARP_BAND, h), dtype=np.float64)[:, None]
        out[..., top:top + len(y), :] = bilinear_sample(planes, *m.apply(x, y))
    return out


def warp_frame(ref: Frame, m: AffineMotion) -> Frame:
    """Warp the whole reference frame: out[x, y] = ref[m(x, y)]."""
    return Frame(y=_warp_planes(ref.y, m),
                 uv=_warp_planes(ref.uv, chroma_motion(m)),
                 frame_index=ref.frame_index)


def warp_rect(m: AffineMotion, rect) -> tuple[tuple[float, float], ...]:
    """Map the four (inclusive) corners of a block into the reference."""
    x0, y0 = rect.x, rect.y
    x1, y1 = rect.x + rect.size - 1, rect.y + rect.size - 1
    return tuple(
        m.apply(float(x), float(y))
        for x, y in ((x0, y0), (x1, y0), (x0, y1), (x1, y1))
    )
