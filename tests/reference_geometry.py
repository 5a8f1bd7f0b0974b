"""Geometry helpers the library no longer calls: the distance between two
points, a near-station sensor configuration used by property checks, with
its covered half-angle and the position reaching both of its residual
pockets, and the scalar circle intersection, circle projection and
coverage scan that the all-pairs reference front end is built from."""

from __future__ import annotations

import math
from dataclasses import dataclass

from sinkcover.geometry import COVER_TOL, Point


def dist(p: Point, q: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(p.x - q.x, p.y - q.y)


@dataclass(frozen=True)
class LevelProbe:
    """A sampled near-station sensor configuration used by property checks.

    Bundles the outer sensor distance `a`, the inner distance `a_prime`,
    the pocket offset `delta` (half of a_prime), the covered half-angle
    `theta` at radius r + a_prime, and the sensing radius `r`.
    """

    a: float
    a_prime: float
    delta: float
    theta: float
    r: float

    @classmethod
    def from_distances(cls, a: float, a_prime: float, r: float) -> "LevelProbe":
        theta = coverage_angle_halfwidth(a, a_prime, r)
        return cls(a=a, a_prime=a_prime, delta=a_prime / 2.0, theta=theta, r=r)


def circle_circle_intersections(c1: Point, c2: Point, r: float) -> list[Point]:
    """Intersection points of the two radius-r circles centered at c1 and c2.

    Tangent circles yield exactly one point; disjoint or coincident
    (degenerate) circles yield none.  Output is sorted by (x, y) so callers
    get a deterministic ordering.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    d = dist(c1, c2)
    if d == 0.0:
        # Coincident circles intersect everywhere; report the degenerate
        # case as "no isolated intersection points".
        return []
    disc = r * r - (d / 2.0) * (d / 2.0)
    if disc < 0.0:
        return []
    h = math.sqrt(disc)
    mx = (c1.x + c2.x) / 2.0
    my = (c1.y + c2.y) / 2.0
    ux = (c2.x - c1.x) / d
    uy = (c2.y - c1.y) / d
    if h <= 1e-12 * r:
        return [Point(mx, my)]
    pts = [Point(mx - h * uy, my + h * ux), Point(mx + h * uy, my - h * ux)]
    pts.sort()
    return pts


def nearest_point_on_circle(center: Point, r: float, from_pt: Point) -> Point:
    """Point on the radius-r circle around `center` closest to `from_pt`.

    Works for `from_pt` inside or outside the circle.  If `from_pt` equals
    the center every circle point ties; the tie is broken eastward, i.e.
    (center.x + r, center.y).
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    d = dist(center, from_pt)
    if d == 0.0:
        return Point(center.x + r, center.y)
    t = r / d
    if math.isinf(t):   # d is subnormal: scale the unit vector instead
        return Point(center.x + ((from_pt.x - center.x) / d) * r,
                     center.y + ((from_pt.y - center.y) / d) * r)
    return Point(center.x + (from_pt.x - center.x) * t,
                 center.y + (from_pt.y - center.y) * t)


def covered_targets(site: Point, targets: list[Point] | tuple[Point, ...],
                    r: float) -> frozenset[int]:
    """Indices of targets within closed distance r of `site`.

    Coverage is closed (distance exactly r counts) with a small relative
    tolerance so that sites generated on detection-circle boundaries are
    not lost to rounding.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    reach = r * (1.0 + COVER_TOL)
    return frozenset(i for i, t in enumerate(targets) if dist(site, t) <= reach)


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
