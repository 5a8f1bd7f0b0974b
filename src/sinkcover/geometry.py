"""Planar geometry for disk coverage: distances and a fixed-radius
neighbour grid."""

from __future__ import annotations

import math
from dataclasses import dataclass

# Relative tolerance for closed coverage: a point at distance up to
# r * (1 + COVER_TOL) still counts as covered, absorbing float noise for
# placements that sit exactly on a detection circle.
COVER_TOL = 1e-9


@dataclass(frozen=True, order=True)
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")


def dist(p: Point, q: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(p.x - q.x, p.y - q.y)


class NearGrid:
    """Fixed-radius near-neighbour index over a point list (the cell grid of
    Bentley, Stanat & Williams, IPL 1977).

    Points are binned into square buckets a little wider than `radius`.  Two
    points whose float `dist` is at most `radius` differ by at most `radius`
    (to rounding) in each axis, so they lie in the same or adjacent buckets:
    the 1e-6 relative margin absorbs the rounding of `dist`, and the term in
    the largest coordinate absorbs that of the bucket quotients.
    """

    def __init__(self, points, radius: float):
        self.scale = max((max(abs(p.x), abs(p.y)) for p in points), default=0.0)
        self.side = self.bucket_side(radius, self.scale)
        self.buckets: dict[tuple[int, int], list[int]] = {}
        for i, p in enumerate(points):
            self.buckets.setdefault(self._key(p), []).append(i)

    @staticmethod
    def bucket_side(radius: float, scale: float) -> float:
        """Bucket side for `radius` over points whose largest coordinate
        magnitude is `scale`."""
        return radius * (1.0 + 1e-6) + 1e-12 * scale

    def _key(self, p: Point) -> tuple[int, int]:
        return math.floor(p.x / self.side), math.floor(p.y / self.side)

    def near(self, p: Point) -> list[int]:
        """Ascending indices of the points in the 3x3 buckets around `p`: a
        superset of the points within `radius` of it."""
        if max(abs(p.x), abs(p.y)) > self.scale + self.side:
            # Farther than a bucket from every point; also keeps the bucket
            # quotient finite for far queries when `side` is tiny.
            return []
        bx, by = self._key(p)
        out: list[int] = []
        for kx in (bx - 1, bx, bx + 1):
            for ky in (by - 1, by, by + 1):
                out.extend(self.buckets.get((kx, ky), ()))
        out.sort()
        return out
