"""Planar geometry for disk coverage: distances and the one fixed-radius
neighbour search, `near_pairs`, which serves circle pairs, coverage and the
feasibility re-check."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative tolerance for closed coverage: a point at distance up to
# r * (1 + COVER_TOL) still counts as covered, absorbing float noise for
# placements that sit exactly on a detection circle.
COVER_TOL = 1e-9

# Offsets that `hypot` converts to Python floats at a time.
_CHUNK = 1 << 16


@dataclass(frozen=True, order=True)
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")


def hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Elementwise `math.hypot`.  Numpy screens, and `math.hypot` settles
    every comparison in the band and every output weight: `np.hypot` can
    differ from it in the last bit.  The offsets go to Python floats a
    chunk at a time, so no list as long as the input is built."""
    out = np.empty(len(dx))
    for i in range(0, len(dx), _CHUNK):
        part = slice(i, i + _CHUNK)
        out[part] = np.fromiter(map(math.hypot, dx[part].tolist(), dy[part].tolist()), float)
    return out


def within(dx: np.ndarray, dy: np.ndarray, reach: float) -> np.ndarray:
    """Mask of the offsets whose `math.hypot` length is at most `reach`.

    `np.hypot` and `math.hypot` each lie within an ulp or so of the true
    length, so where `np.hypot` is farther from `reach` than a relative
    1e-12 (about 4,500 ulps) both fall on the same side of it; the absolute
    1e-300 covers subnormal lengths, whose error is a subnormal ulp.  Only
    the offsets in that band are settled by `math.hypot`.
    """
    d = np.hypot(dx, dy)
    inside = d <= reach
    band = (np.abs(d - reach) <= 1e-12 * reach + 1e-300).nonzero()[0]
    inside[band] = hypot(dx[band], dy[band]) <= reach
    return inside


def near_pairs(qx, qy, px, py, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """All (query, point) index pairs, ascending, with the query in the 3x3
    buckets around the point: a superset of the pairs within `radius`.
    This is the cell grid of Bentley, Stanat & Williams, IPL 1977.

    Buckets are squares a little wider than `radius`.  Two points whose
    float `math.hypot` distance is at most `radius` differ by at most
    `radius` (to rounding) in each axis, so they lie in the same or adjacent
    buckets: the 1e-6 relative margin absorbs the rounding of the distance,
    and the term in the largest point coordinate absorbs that of the bucket
    quotients.

    That term, 2**-30 of the largest coordinate, also bounds every bucket
    coordinate bx, by by 2**30 + 2 in absolute value, so the int64
    bx * 2**32 + by keys each bucket exactly and sorts as (bx, by).  It
    widens the buckets appreciably only where the largest coordinate
    exceeds about 1e9 radius (there it matches the radius), where the
    float spacing already dwarfs `COVER_TOL` * radius.  With the queries
    sorted by key, those in buckets bx, by - 1 .. by + 1 are one run,
    found by two binary searches, so each point needs three runs.
    Memory stays proportional to the pairs found.
    """
    scale = float(np.maximum.reduce(np.abs(np.concatenate((px, py))), initial=0.0))
    side = radius * (1.0 + 1e-6) + 2.0**-30 * scale
    # A query more than a bucket beyond every point has no neighbour.
    # Clamped to there, it may gain candidates, which the exact test
    # rejects, and its bucket quotient stays within the bound.
    lim = scale + side
    qx, qy = np.minimum(np.maximum(qx, -lim), lim), np.minimum(np.maximum(qy, -lim), lim)
    key = _bucket_keys(qx, qy, side)
    order = key.argsort()
    key = key[order]
    # Each point's bucket rows bx - 1 .. bx + 1.
    rows = _bucket_keys(px, py, side) + _ROWS
    start = key.searchsorted(rows - 1).T.ravel()
    count = key.searchsorted(rows + 1, "right").T.ravel() - start
    point = np.arange(len(start)).repeat(count) // 3
    run = (start - count.cumsum() + count).repeat(count)
    pairs = order[run + np.arange(len(run))] * len(px) + point
    pairs.sort()
    return pairs // len(px), pairs % len(px)


# The key offsets of the bucket rows bx - 1, bx and bx + 1.
_ROWS = np.array([[-1 << 32], [0], [1 << 32]])


def _bucket_keys(x, y, side: float) -> np.ndarray:
    """The int64 key bx * 2**32 + by of each point's bucket."""
    return ((np.floor(x / side).astype(np.int64) << 32)
            + np.floor(y / side).astype(np.int64))
