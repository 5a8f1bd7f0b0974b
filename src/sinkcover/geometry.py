"""Planar geometry for disk coverage: distances, a fixed-radius neighbour
grid, and station-side coverage angles."""

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


def coverage_angle_halfwidth(a: float, a_prime: float, r: float) -> float:
    """Half-angle of the arc guaranteed covered by a sensor near a station.

    With the station at the origin and a sensor at (a, 0), every point at
    distance up to r + a_prime from the station whose polar angle lies in
    [-theta, theta] is within r of the sensor or the station.  The returned
    theta comes from the law of cosines on the triangle with sides a (station
    to sensor), r (sensor to arc endpoint) and r + a_prime (station to arc
    endpoint).

    Valid for 0 < a <= r/2 and 0 < a_prime <= a/2.
    """
    if a <= 0:
        raise ValueError("sensor-to-station distance a must be positive")
    if not (a <= r / 2.0):
        raise ValueError("requires a <= r/2")
    if not (0 < a_prime <= a / 2.0):
        raise ValueError("requires 0 < a_prime <= a/2")
    outer = r + a_prime
    cos_theta = (outer * outer + a * a - r * r) / (2.0 * a * outer)
    cos_theta = min(1.0, max(-1.0, cos_theta))
    return math.acos(cos_theta)


def s_prime_location(a: float, r: float, delta: float) -> Point:
    """Closest position reaching both residual pockets of a two-sensor layout.

    Configuration: station at the origin, sensor at (a, 0), and the two
    contact points at distances r + delta (upper) and r (lower) from the
    station, both at distance r from the sensor.  The returned point is the
    nearest location to the station whose radius-r disk still reaches both
    contact points; it is the reflection of (a, 0) through the midpoint of
    the two contact points.

    Valid for 0 < delta <= a/4 and a <= r/2.  Its x-coordinate always
    exceeds 2 * delta, which is what makes a single replacement sensor for
    both pockets more expensive than two separate ones.
    """
    if a <= 0:
        raise ValueError("sensor-to-station distance a must be positive")
    if not (a <= r / 2.0):
        raise ValueError("requires a <= r/2")
    if not (0 < delta <= a / 4.0):
        raise ValueError("requires 0 < delta <= a/4")
    x = (delta * delta + 2.0 * r * delta + a * a) / (2.0 * a) - a / 2.0
    two_r = 2.0 * r
    y = (math.sqrt(((two_r + delta) ** 2 - a * a) * (a * a - delta * delta))
         / (2.0 * a)) - math.sqrt(two_r * two_r - a * a) / 2.0
    return Point(x, y)
