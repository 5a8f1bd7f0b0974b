import math
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from reference_geometry import (LevelProbe, circle_circle_intersections,
                                coverage_angle_halfwidth, covered_targets, dist,
                                nearest_point_on_circle, s_prime_location)

from sinkcover.geometry import Point, near_pairs

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


def test_dist_345():
    assert dist(Point(0, 0), Point(3, 4)) == 5.0


def test_dist_identity():
    assert dist(Point(1, 1), Point(1, 1)) == 0.0


def test_dist_sqrt2():
    assert dist(Point(0, 0), Point(1, 1)) == pytest.approx(math.sqrt(2), rel=1e-15)


def test_point_rejects_nan():
    with pytest.raises(ValueError):
        Point(float("nan"), 0.0)


@given(coords, coords, coords, coords)
def test_dist_symmetric(ax, ay, bx, by):
    p, q = Point(ax, ay), Point(bx, by)
    assert dist(p, q) == dist(q, p)


@given(coords, coords, coords, coords, coords, coords)
def test_dist_triangle_inequality(ax, ay, bx, by, cx, cy):
    a, b, c = Point(ax, ay), Point(bx, by), Point(cx, cy)
    lhs = dist(a, c)
    rhs = dist(a, b) + dist(b, c)
    assert lhs <= rhs * (1 + 1e-12) + 1e-12


@st.composite
def point_sets(draw):
    """Queries and points a few radii around an offset, out to where the
    float spacing of the coordinates exceeds the radius."""
    radius = draw(st.sampled_from([1e-6, 1e-3, 0.5, 1.0, 2.0, 2.5]))
    offset = draw(st.sampled_from([0.0, 1e6, -1e6, 1e9, -1e9, 1e15, -1e15]))
    coord = st.floats(-4.0 * radius, 4.0 * radius).map(lambda v: v + offset)
    xy = st.tuples(coord, coord)
    queries = draw(st.lists(xy, max_size=20))
    points = draw(st.lists(xy, max_size=20))
    # Repeats, and points exactly `radius` from a query along an axis when
    # the subtraction is exact (at offset 0, for a query with x = 0).
    pool = queries + points + [(x - radius, y) for x, y in queries]
    points += draw(st.lists(st.sampled_from(pool), max_size=6) if pool else st.just([]))
    return queries, points, radius


@given(point_sets())
@example(([(0.0, 0.0)], [(-1.0, 0.0), (0.0, 0.0)], 1.0))
# Near the top of the float range with a tiny radius, where far queries are
# clamped to just beyond the points and the bucket quotients are largest.
@example(([(1e300, 1e300), (-1e300, 1e300), (1.7e308, -1.7e308), (0.0, 0.0)],
          [(1e300, 1e300), (1e300, -1e300), (-1e300, -1e300), (1e300, 1e300)], 1e-300))
def test_near_pairs_finds_every_pair_within_radius(case):
    queries, points, radius = case
    q = np.array(queries, dtype=float).reshape(-1, 2)
    p = np.array(points, dtype=float).reshape(-1, 2)
    qi, pi = near_pairs(q[:, 0], q[:, 1], p[:, 0], p[:, 1], radius)
    found = list(zip(qi.tolist(), pi.tolist()))
    assert found == sorted(set(found))
    within = {(i, j) for i, a in enumerate(queries) for j, b in enumerate(points)
              if math.hypot(a[0] - b[0], a[1] - b[1]) <= radius}
    assert within <= set(found)


def test_circle_intersections_two_points():
    pts = circle_circle_intersections(Point(0, 0), Point(2, 0), math.sqrt(2))
    assert len(pts) == 2
    assert pts[0].x == pytest.approx(1.0) and pts[0].y == pytest.approx(-1.0)
    assert pts[1].x == pytest.approx(1.0) and pts[1].y == pytest.approx(1.0)


def test_circle_intersections_tangent():
    pts = circle_circle_intersections(Point(0, 0), Point(2, 0), 1.0)
    assert len(pts) == 1
    assert pts[0] == Point(1.0, 0.0)


def test_circle_intersections_disjoint():
    assert circle_circle_intersections(Point(0, 0), Point(5, 0), 1.0) == []


def test_circle_intersections_coincident_degenerate():
    assert circle_circle_intersections(Point(1, 2), Point(1, 2), 1.0) == []


def test_circle_intersections_on_both_circles():
    rng = random.Random(7)
    for _ in range(500):
        r = rng.uniform(0.1, 10.0)
        c1 = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        c2 = Point(c1.x + rng.uniform(-2 * r, 2 * r),
                   c1.y + rng.uniform(-2 * r, 2 * r))
        for p in circle_circle_intersections(c1, c2, r):
            assert abs(dist(p, c1) - r) <= 1e-9 * r
            assert abs(dist(p, c2) - r) <= 1e-9 * r


def test_nearest_point_exterior():
    assert nearest_point_on_circle(Point(0, 0), 1.0, Point(3, 0)) == Point(1.0, 0.0)


def test_nearest_point_interior():
    p = nearest_point_on_circle(Point(0, 0), 1.0, Point(0.5, 0))
    assert p.x == pytest.approx(1.0) and p.y == pytest.approx(0.0)


def test_nearest_point_center_tiebreak():
    assert nearest_point_on_circle(Point(0, 0), 2.0, Point(0, 0)) == Point(2.0, 0.0)


def test_nearest_point_lies_on_circle():
    rng = random.Random(11)
    for _ in range(300):
        c = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        q = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        r = rng.uniform(0.01, 10.0)
        p = nearest_point_on_circle(c, r, q)
        assert abs(dist(p, c) - r) <= 1e-9 * r


def test_covered_targets_boundary_counts():
    got = covered_targets(Point(0, 0), [Point(0.5, 0), Point(2, 0), Point(0, 1)], 1.0)
    assert got == {0, 2}


def test_covered_targets_empty():
    assert covered_targets(Point(0, 0), [], 1.0) == frozenset()


def test_covered_targets_identity_position():
    assert covered_targets(Point(1, 1), [Point(1, 1)], 0.1) == {0}


def test_coverage_angle_reference_value():
    # Half-angle at a = r/2, a' = a/2 is arccos(13/20) for any r.
    assert coverage_angle_halfwidth(0.5, 0.25, 1.0) == pytest.approx(
        math.acos(13 / 20), abs=1e-12)


def test_coverage_angle_hand_checked():
    # ((1.2)^2 + 0.16 - 1) / (2 * 0.4 * 1.2) = 0.625
    assert coverage_angle_halfwidth(0.4, 0.2, 1.0) == pytest.approx(
        math.acos(0.625), abs=1e-12)


def test_coverage_angle_scales_with_radius():
    expected = math.acos(((2.25) ** 2 + 0.25 - 4.0) / (2 * 0.5 * 2.25))
    assert coverage_angle_halfwidth(0.5, 0.25, 2.0) == pytest.approx(expected, abs=1e-12)


def test_coverage_angle_rejects_zero_a():
    with pytest.raises(ValueError):
        coverage_angle_halfwidth(0.0, 0.1, 1.0)


def test_coverage_angle_domain():
    with pytest.raises(ValueError):
        coverage_angle_halfwidth(0.6, 0.25, 1.0)      # a > r/2
    with pytest.raises(ValueError):
        coverage_angle_halfwidth(0.5, 0.3, 1.0)       # a' > a/2


def test_angular_coverage_samples():
    # Points at radius in (r, r + a'] and angle within the half-width are
    # inside the sensor disk at (a, 0); closer points are inside the station
    # disk.  Light version of the dense acceptance sweep.
    rng = random.Random(3)
    for a, a_prime, r in [(0.5, 0.25, 1.0), (0.3, 0.15, 1.0), (1.0, 0.4, 2.5)]:
        theta = coverage_angle_halfwidth(a, a_prime, r)
        sensor = Point(a, 0.0)
        reach = r * (1 + 1e-9)
        for _ in range(1000):
            rho = r + rng.uniform(0, 1) * a_prime
            phi = rng.uniform(-theta, theta)
            pt = Point(rho * math.cos(phi), rho * math.sin(phi))
            assert dist(pt, sensor) <= reach or rho <= reach


def test_s_prime_x_coordinate_instance():
    p = s_prime_location(0.5, 1.0, 0.125)
    assert p.x == pytest.approx(0.265625, abs=1e-15)


def test_s_prime_x_exceeds_twice_delta_sampled():
    rng = random.Random(5)
    for _ in range(2000):
        r = rng.uniform(0.1, 10.0)
        a = rng.uniform(1e-6, r / 2)
        delta = rng.uniform(1e-9, a / 4)
        assert s_prime_location(a, r, delta).x > 2 * delta


def test_s_prime_matches_reflection_construction():
    # Independent construction: reflect the sensor at (a, 0) through the
    # midpoint of the two contact points, each placed by direct distance
    # constraints from the station and the sensor.
    def reflected(a, r, delta):
        t2 = (a / 2, -math.sqrt((2 * r) ** 2 - a * a) / 2)
        t1x = (delta * delta + 2 * r * delta + a * a) / (2 * a)
        t1y = math.sqrt(((2 * r + delta) ** 2 - a * a) * (a * a - delta * delta)) / (2 * a)
        mx, my = (t1x + t2[0]) / 2, (t1y + t2[1]) / 2
        return 2 * mx - a, 2 * my - 0.0

    rng = random.Random(9)
    for _ in range(200):
        r = rng.uniform(0.5, 3.0)
        a = rng.uniform(0.05, r / 2)
        delta = rng.uniform(1e-6, a / 4)
        p = s_prime_location(a, r, delta)
        ex, ey = reflected(a, r, delta)
        assert p.x == pytest.approx(ex, rel=1e-12, abs=1e-12)
        assert p.y == pytest.approx(ey, rel=1e-12, abs=1e-12)


def test_s_prime_contact_points_have_stated_distances():
    # The two contact points used by the construction really are at
    # distances (r + delta, r) from the station and r from the sensor.
    a, r, delta = 0.4, 1.0, 0.1
    station, sensor = Point(0, 0), Point(a, 0)
    t2 = Point(a / 2, -math.sqrt((2 * r) ** 2 - a * a) / 2)
    t1 = Point((delta ** 2 + 2 * r * delta + a * a) / (2 * a),
               math.sqrt(((2 * r + delta) ** 2 - a * a) * (a * a - delta ** 2)) / (2 * a))
    assert dist(station, t1) == pytest.approx(r + delta, rel=1e-12)
    assert dist(sensor, t1) == pytest.approx(r, rel=1e-12)
    assert dist(station, t2) == pytest.approx(r, rel=1e-12)
    assert dist(sensor, t2) == pytest.approx(r, rel=1e-12)


def test_s_prime_rejects_degenerate():
    with pytest.raises(ValueError):
        s_prime_location(0.0, 1.0, 0.01)


def test_level_probe_factory():
    probe = LevelProbe.from_distances(0.5, 0.25, 1.0)
    assert probe.delta == 0.125
    assert probe.theta == pytest.approx(math.acos(13 / 20), abs=1e-12)
