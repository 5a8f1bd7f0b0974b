"""Candidate placement generation.

Reduces the continuous placement problem to a finite list of sites, each
carrying the set of targets it covers and the cheapest movement distance
from any station.  The candidate classes are chosen so that some optimal
continuous placement is always dominated by one of them:

  (a) every station (zero-cost placements),
  (b) every target position (guarantees feasibility for isolated targets),
  (c) intersection points of pairs of detection circles,
  (d) for every (target, station) pair, the point of the target's detection
      circle nearest to the station.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import COVER_TOL, NearGrid, Point, circle_circle_intersections, dist, \
    nearest_point_on_circle


@dataclass(frozen=True)
class Instance:
    """A coverage problem: point targets, stations and a sensing radius."""

    targets: tuple[Point, ...]
    stations: tuple[Point, ...]
    r: float

    def __post_init__(self) -> None:
        if len(self.stations) < 1:
            raise ValueError("at least one station is required")
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ValueError(f"sensing radius must be positive, got {self.r}")

    @property
    def n(self) -> int:
        return len(self.targets)

    @property
    def k(self) -> int:
        return len(self.stations)

    @classmethod
    def from_coords(cls, targets, stations, r: float) -> "Instance":
        return cls(targets=tuple(Point(float(x), float(y)) for x, y in targets),
                   stations=tuple(Point(float(x), float(y)) for x, y in stations),
                   r=float(r))


@dataclass(frozen=True)
class CandidateSite:
    """A discrete sensor placement.

    `covered` is the set of target indices within the sensing radius,
    `weight` the distance from the nearest station and `origin_station`
    the index of a station attaining it (lowest index on ties).
    """

    position: Point
    covered: frozenset[int]
    weight: float
    origin_station: int


def site_weight(position: Point, stations) -> tuple[float, int]:
    """Minimum distance from `position` to any station, with the station index.

    Ties are broken toward the lowest station index.
    """
    if len(stations) == 0:
        raise ValueError("at least one station is required")
    best_w = math.inf
    best_i = -1
    for i, p in enumerate(stations):
        w = dist(position, p)
        if w < best_w:
            best_w, best_i = w, i
    return best_w, best_i


def generate_candidate_sites(instance: Instance) -> list[CandidateSite]:
    """Enumerate candidate sites for an instance.

    Duplicate positions are merged, sites covering no target are dropped,
    and the result is sorted by (weight, x, y) so downstream enumeration and
    tie-breaking are reproducible.  Circle pairs and coverage are looked up
    in bucket grids of side just over 2r and r, so only targets that can
    intersect or be covered are examined.  The distance tests, the argument
    order of each pair, and the order in which positions are first seen
    (which decides between 0.0 and -0.0 for a merged position) are those of
    a scan over all pairs.
    """
    r = instance.r
    targets = instance.targets
    positions: dict[tuple[float, float], Point] = {}

    def add(p: Point) -> None:
        positions.setdefault((p.x, p.y), p)

    for p in instance.stations:
        add(p)
    for t in targets:
        add(t)
    pairs = NearGrid(targets, 2.0 * r)
    for i, t in enumerate(targets):
        for j in pairs.near(t):
            if j > i:
                for p in circle_circle_intersections(t, targets[j], r):
                    add(p)
    for t in targets:
        for p in instance.stations:
            add(nearest_point_on_circle(t, r, p))

    reach = r * (1.0 + COVER_TOL)
    cover = NearGrid(targets, reach)
    sites = []
    for pos in positions.values():
        covered = frozenset(i for i in cover.near(pos)
                            if dist(pos, targets[i]) <= reach)
        if not covered:
            continue
        weight, origin = site_weight(pos, instance.stations)
        sites.append(CandidateSite(pos, covered, weight, origin))
    sites.sort(key=lambda s: (s.weight, s.position.x, s.position.y))
    return sites


def coverers_by_target(sites: list[CandidateSite]) -> dict[int, list[int]]:
    """Target index -> ascending indices of the sites covering it."""
    out: dict[int, list[int]] = {}
    for j, s in enumerate(sites):
        for t in s.covered:
            out.setdefault(t, []).append(j)
    return out


def prune_dominated(sites: list[CandidateSite]) -> list[CandidateSite]:
    """Drop sites whose coverage is available elsewhere at no extra cost.

    A site is removed when another site covers a superset of its targets at
    a weight that is no larger.  Exact ties (same covered set, same weight)
    keep the lexicographically smaller position, then the earlier index.
    That makes domination a strict partial order and the kept sites its
    maximal elements, whatever the input order.  A dominator covers every
    target of the site it dominates, so only the coverers of the site's
    lowest target are compared (every site, for one covering nothing).
    """
    coverers = coverers_by_target(sites)
    kept = []
    for i, s in enumerate(sites):
        rivals = coverers[min(s.covered)] if s.covered else range(len(sites))
        if not any(j != i and _dominates(sites[j], j, s, i) for j in rivals):
            kept.append(s)
    return kept


def _dominates(a: CandidateSite, ia: int, b: CandidateSite, ib: int) -> bool:
    """True iff site a (at index ia) dominates site b (at index ib)."""
    return (a.weight <= b.weight and b.covered <= a.covered
            and (a.weight < b.weight or len(a.covered) > len(b.covered)
                 or (a.position, ia) < (b.position, ib)))
