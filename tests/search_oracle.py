"""Scalar reference for the lockstep block search, shared by the motion and
codec tests.

`diamond_search` walks one block at a time, scoring each candidate with its
own SAD through a cache; `collect_correspondences` runs it per texture cell
and refines each match with a 3-point parabola per axis, topping up the
cache with whatever neighbours the walk did not score."""

import numpy as np

from texcodec.datasets import TEXTURE
from texcodec.frames import BLOCK
from texcodec.motion import MotionError


def _sad(a: np.ndarray, b: np.ndarray) -> int:
    return int(np.abs(a.astype(np.int32) - b.astype(np.int32)).sum())


_LARGE_DIAMOND = ((0, 0), (2, 0), (-2, 0), (0, 2), (0, -2),
                  (1, 1), (1, -1), (-1, 1), (-1, -1))
_SMALL_DIAMOND = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))


def diamond_search(cur_block: np.ndarray, ref_y: np.ndarray, x0: int, y0: int,
                   search_range: int = 32,
                   start: tuple[int, int] = (0, 0)) -> tuple[int, int, dict]:
    """Find the integer displacement minimizing SAD around (x0, y0).

    Classic large/small diamond pattern, displacement bounded to
    +-search_range and to positions fully inside the reference plane; the
    walk begins at the better of (0, 0) and `start` (a motion predictor).
    Returns (dx, dy, sad_cache) where sad_cache maps displacement -> SAD.
    """
    s = cur_block.shape[0]
    h, w = ref_y.shape
    cache: dict[tuple[int, int], int] = {}

    def cost(dx, dy):
        if max(abs(dx), abs(dy)) > search_range:
            return None
        x, y = x0 + dx, y0 + dy
        if x < 0 or y < 0 or x + s > w or y + s > h:
            return None
        key = (dx, dy)
        if key not in cache:
            cache[key] = _sad(cur_block, ref_y[y:y + s, x:x + s])
        return cache[key]

    best = (0, 0)
    best_cost = cost(0, 0)
    if best_cost is None:
        raise MotionError("search origin outside reference frame")
    if start != (0, 0):
        c = cost(*start)
        if c is not None and c < best_cost:
            best_cost, best = c, start
    # large diamond until the center wins
    while True:
        center = best
        for dx, dy in _LARGE_DIAMOND[1:]:
            c = cost(center[0] + dx, center[1] + dy)
            if c is not None and c < best_cost:
                best_cost, best = c, (center[0] + dx, center[1] + dy)
        if best == center:
            break
    for dx, dy in _SMALL_DIAMOND[1:]:
        c = cost(best[0] + dx, best[1] + dy)
        if c is not None and c < best_cost:
            best_cost, best = c, (best[0] + dx, best[1] + dy)
    return best[0], best[1], cache


def _parabolic_offset(sm, s0, sp) -> float:
    denom = sm - 2.0 * s0 + sp
    if denom <= 0:
        return 0.0
    return float(np.clip(0.5 * (sm - sp) / denom, -0.5, 0.5))


def _subpel(dx, dy, cache):
    """Refine an integer displacement with a 3-point parabola per axis."""
    fx = fy = 0.0
    if (dx - 1, dy) in cache and (dx + 1, dy) in cache:
        fx = _parabolic_offset(cache[(dx - 1, dy)], cache[(dx, dy)],
                               cache[(dx + 1, dy)])
    if (dx, dy - 1) in cache and (dx, dy + 1) in cache:
        fy = _parabolic_offset(cache[(dx, dy - 1)], cache[(dx, dy)],
                               cache[(dx, dy + 1)])
    return dx + fx, dy + fy


def collect_correspondences(cur, ref, cur_mask, starts, search_range=32):
    """One (src, dst) point pair per texture cell, in cell raster order;
    the i-th cell's search starts at starts[i]."""
    src, dst = [], []
    cells = zip(*np.nonzero(cur_mask.labels == TEXTURE))
    for (gy, gx), start in zip(cells, np.asarray(starts).tolist()):
        x0, y0 = int(gx) * BLOCK, int(gy) * BLOCK
        block = cur.y[y0:y0 + BLOCK, x0:x0 + BLOCK]
        dx, dy, cache = diamond_search(block, ref.y, x0, y0, search_range,
                                       start=tuple(start))
        # refine the neighborhood needed by the parabola
        for nb in ((dx - 1, dy), (dx + 1, dy), (dx, dy - 1), (dx, dy + 1)):
            x, y = x0 + nb[0], y0 + nb[1]
            if (nb not in cache and max(abs(nb[0]), abs(nb[1])) <= search_range
                    and 0 <= x and 0 <= y
                    and x + BLOCK <= ref.width and y + BLOCK <= ref.height):
                cache[nb] = _sad(block, ref.y[y:y + BLOCK, x:x + BLOCK])
        fdx, fdy = _subpel(dx, dy, cache)
        cx, cy = x0 + (BLOCK - 1) / 2.0, y0 + (BLOCK - 1) / 2.0
        src.append((cx, cy))
        dst.append((cx + fdx, cy + fdy))
    return (np.asarray(src, dtype=np.float64).reshape(-1, 2),
            np.asarray(dst, dtype=np.float64).reshape(-1, 2))
