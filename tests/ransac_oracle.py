"""Scalar references for the array programs of texture-motion estimation,
shared by the motion tests.

`fit_motion_ransac` fits and scores one RANSAC hypothesis at a time through
the model's least-squares fitter; `coarse_translation` scores one
quarter-resolution shift at a time from 4x4 float means."""

import numpy as np

from texcodec.datasets import TEXTURE
from texcodec.frames import BLOCK
from texcodec.motion import (_FITTERS, RANSAC_ITERATIONS, RANSAC_THRESHOLD,
                             SEARCH_RANGE, MotionError, _residuals)


def fit_motion_ransac(src, dst, kind, seed):
    """RANSAC + least-squares refit; returns (model, inlier bool mask)."""
    fitter, min_pts = _FITTERS[kind]
    n = len(src)
    if n < min_pts:
        raise MotionError(f"{kind.value} fit needs >= {min_pts} points, got {n}")
    rng = np.random.default_rng(seed)
    best_inliers = None
    best_count = -1
    for _ in range(RANSAC_ITERATIONS):
        idx = rng.choice(n, size=min_pts, replace=False)
        try:
            cand = fitter(src[idx], dst[idx])
        except (MotionError, np.linalg.LinAlgError):
            continue
        inl = _residuals(cand, src, dst) <= RANSAC_THRESHOLD
        if inl.sum() > best_count:
            best_count, best_inliers = int(inl.sum()), inl
    if best_inliers is None or best_count < min_pts:
        best_inliers = np.ones(n, dtype=bool)
    model = fitter(src[best_inliers], dst[best_inliers])
    # one re-selection pass after the refit
    inl = _residuals(model, src, dst) <= RANSAC_THRESHOLD
    if inl.sum() >= min_pts:
        model = fitter(src[inl], dst[inl])
        best_inliers = inl
    return model, best_inliers


def coarse_translation(cur, ref, cur_mask):
    """Full-search translation of the texture region at quarter resolution."""
    f = 4
    h4, w4 = cur.height // f, cur.width // f
    if h4 < 2 or w4 < 2:
        return (0, 0)

    def down(y):
        return y[:h4 * f, :w4 * f].astype(np.float64).reshape(
            h4, f, w4, f).mean(axis=(1, 3))

    cur4, ref4 = down(cur.y), down(ref.y)
    sel = np.kron(cur_mask.labels == TEXTURE,
                  np.ones((BLOCK // f, BLOCK // f), dtype=bool))[:h4, :w4]
    if not sel.any():
        return (0, 0)
    r = max(SEARCH_RANGE // f, 1)
    best, best_cost = (0, 0), None
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            ys = slice(max(0, -dy), min(h4, h4 - dy))
            xs = slice(max(0, -dx), min(w4, w4 - dx))
            m = sel[ys, xs]
            n = int(m.sum())
            if n < 16:
                continue
            d = np.abs(cur4[ys, xs][m]
                       - ref4[ys.start + dy:ys.stop + dy,
                              xs.start + dx:xs.stop + dx][m])
            cost = d.sum() / n
            if best_cost is None or cost < best_cost:
                best_cost, best = cost, (dx * f, dy * f)
    return best
