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

import numpy as np

from .geometry import COVER_TOL, Point, dist, hypot, near_pairs, within


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


@dataclass(frozen=True, eq=False)
class CandidateTable:
    """Raw candidate sites as numpy columns, row i being site i.

    Row i covers the targets `members[lo[i]:hi[i]]`, in ascending order.
    Most raw sites fall to `prune_dominated` right away, so they stay
    columns, and only the kept ones become `CandidateSite`s.
    """

    x: np.ndarray
    y: np.ndarray
    weight: np.ndarray
    origin: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    members: np.ndarray

    def __len__(self) -> int:
        return len(self.weight)

    def __getitem__(self, i: int) -> CandidateSite:
        covered = frozenset(self.members[self.lo[i]:self.hi[i]].tolist())
        return CandidateSite(Point(self.x[i].item(), self.y[i].item()), covered,
                             self.weight[i].item(), self.origin[i].item())


def generate_candidate_sites(instance: Instance) -> CandidateTable:
    """Enumerate candidate sites for an instance.

    Duplicate positions are merged, sites covering no target are dropped,
    and the rows are sorted by (weight, x, y) so downstream enumeration and
    tie-breaking are reproducible.  Positions are first seen in the order
    stations, targets, circle pairs (ascending (i, j)), projections
    ((target, station) order); the first one seen wins a merge, which
    decides between 0.0 and -0.0.  Circle pairs and coverage are found by
    `near_pairs` at radius 2r and r, so only targets that can intersect or
    be covered are examined.  Numpy screens, and `math.hypot`, as in
    `geometry.dist`, settles every comparison in the band and every output
    weight: `np.hypot` can differ from it in the last bit.
    """
    reach = instance.r * (1.0 + COVER_TOL)
    tx = np.array([t.x for t in instance.targets])
    ty = np.array([t.y for t in instance.targets])
    sx = np.array([p.x for p in instance.stations])
    sy = np.array([p.y for p in instance.stations])
    # Each stage returns only what the next needs, so the intermediates of
    # one are freed before the next allocates.
    qx, qy = _positions(tx, ty, sx, sy, instance.r)
    members, lo, hi, qx, qy = _coverage(qx, qy, tx, ty, reach)
    weight, origin = _nearest_stations(qx, qy, sx, sy, instance.stations)
    # Positions are distinct, so only rows of equal weight need (x, y); a
    # lexsort of every row cost 0.55 ms more per sparse-400 op.
    order = weight.argsort(kind="stable")
    heads = _run_heads(weight[order])
    tied = ~(heads & np.append(heads[1:], True))
    rows = order[tied]
    order[tied] = rows[np.lexsort((qy[rows], qx[rows], weight[rows]))]
    return CandidateTable(qx[order], qy[order], weight[order], origin[order],
                          lo[order], hi[order], members)


def _positions(tx, ty, sx, sy, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Distinct candidate positions, in the order first seen; the first of
    equal positions is kept."""
    cx, cy = _circle_pair_points(tx, ty, r)
    px, py = _nearest_circle_points(tx, ty, sx, sy, r)
    x, y = np.concatenate((sx, tx, cx, px)), np.concatenate((sy, ty, cy, py))
    finite = np.isfinite(x) & np.isfinite(y)
    if not finite.all():
        bad = finite.argmin()
        raise ValueError(f"non-finite point ({x[bad].item()}, {y[bad].item()})")
    # -0.0 == 0.0, so signed zeros share a key, and the stable sort of
    # np.unique gives each key's first index.
    first = np.unique(x + 1j * y, return_index=True)[1]
    first.sort()
    return x[first], y[first]


def _circle_pair_points(tx, ty, r: float) -> tuple[np.ndarray, np.ndarray]:
    """The intersection points of the radius-r circles around each pair of
    targets, in ascending (i, j) order: none for coincident or disjoint
    circles, the midpoint for tangent ones (h == 0; any other h is at
    least about 1e-8 r, the root of one rounding step of r*r).  The order of a
    pair's two points shows nowhere: they are distinct, so they neither
    merge with each other nor tie in the final sort."""
    i, j = near_pairs(tx, ty, tx, ty, 2.0 * r)
    i, j = i[i < j], j[i < j]
    ax, ay, bx, by = tx[i], ty[i], tx[j], ty[j]
    # Pairs that do not meet divide by zero or take a negative root, and
    # far-out coordinates overflow to inf, which `_positions` rejects.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d = hypot(ax - bx, ay - by)
        disc = r * r - (d / 2.0) * (d / 2.0)
        h = np.sqrt(disc)
        mx, my = (ax + bx) / 2.0, (ay + by) / 2.0
        ux, uy = (bx - ax) / d, (by - ay) / d
        tangent = h == 0.0
        xs = np.stack((np.where(tangent, mx, mx - h * uy), mx + h * uy), axis=1)
        ys = np.stack((np.where(tangent, my, my + h * ux), my - h * ux), axis=1)
    meet = (d != 0.0) & (disc >= 0.0)
    keep = np.stack((meet, meet & ~tangent), axis=1)
    return xs[keep], ys[keep]


def _coverage(qx, qy, tx, ty, reach: float):
    """The targets each position covers, for the positions covering any:
    position i covers `members[lo[i]:hi[i]]`, ascending; with those
    positions' coordinates."""
    q, c = near_pairs(qx, qy, tx, ty, reach)
    inside = within(qx[q] - tx[c], qy[q] - ty[c], reach)
    q, c = q[inside], c[inside]
    lo = _run_heads(q).nonzero()[0]
    hi = np.append(lo[1:], len(c))
    return c, lo, hi, qx[q[lo]], qy[q[lo]]


def _nearest_stations(qx, qy, sx, sy, stations) -> tuple[np.ndarray, np.ndarray]:
    """Each position's distance to its nearest station and that station's
    index, lowest on ties, as `site_weight` gives them.

    The station is the least squared distance dx*dx + dy*dy, weighed by
    math.hypot over the same dx and dy.  A squared distance is within about
    2 ulps of the true one, and math.hypot within about 1 ulp of its root.
    So when every other station's square exceeds the least by more than a
    relative 8e-12, its true distance exceeds the chosen one's by a relative
    4e-12 less a few ulps, and so does its math.hypot: the choice is
    site_weight's, with no tie.  An absolute 1e-300 covers squares that
    underflow, whose error is a subnormal ulp, and squares that overflow are
    inf, which ties with inf.  A position with another station in that
    band is settled by `site_weight`.
    """
    # One row per station, so the reductions run along long rows; the
    # squares of sx - qx are those of qx - sx.
    dx, dy = sx[:, None] - qx, sy[:, None] - qy
    with np.errstate(over="ignore"):
        d2 = dx * dx + dy * dy
        band = np.minimum.reduce(d2) * (1.0 + 8e-12) + 1e-300
    origin = d2.argmin(axis=0)
    tied = (np.add.reduce(d2 <= band) > 1).nonzero()[0].tolist()
    weight = hypot(qx - sx[origin], qy - sy[origin])
    for i in tied:
        weight[i], origin[i] = site_weight(Point(float(qx[i]), float(qy[i])), stations)
    return weight, origin


def _nearest_circle_points(tx, ty, sx, sy, r: float) -> tuple[np.ndarray, np.ndarray]:
    """The point of each target's radius-r circle nearest to each station, in
    (target, station) order: c + (s - c) * (r / dist(c, s)) for centre c
    and station s, c + ((s - c) / dist(c, s)) * r when r / dist(c, s)
    overflows (a subnormal distance), and (c.x + r, c.y) when s is on c."""
    cx, cy = tx[:, None], ty[:, None]
    dx, dy = sx - cx, sy - cy
    d = hypot(dx.ravel(), dy.ravel()).reshape(dx.shape)   # hypot(-a, -b) == hypot(a, b)
    on_centre = d == 0.0
    d = np.where(on_centre, 1.0, d)
    with np.errstate(over="ignore", invalid="ignore"):
        t = r / d
        finite = np.isfinite(t)
        ox = np.where(finite, dx * t, (dx / d) * r)
        oy = np.where(finite, dy * t, (dy / d) * r)
    px = np.where(on_centre, cx + r, cx + ox).ravel()
    py = np.where(on_centre, cy, cy + oy).ravel()
    return px, py


def _run_heads(a: np.ndarray) -> np.ndarray:
    """Mask of the elements of `a` that differ from their predecessor."""
    heads = np.empty(len(a), dtype=bool)
    heads[:1] = True
    heads[1:] = a[1:] != a[:-1]
    return heads


def coverers_by_target(sites: list[CandidateSite]) -> dict[int, list[int]]:
    """Target index -> ascending indices of the sites covering it."""
    out: dict[int, list[int]] = {}
    for j, s in enumerate(sites):
        for t in s.covered:
            out.setdefault(t, []).append(j)
    return out


def prune_dominated(table: CandidateTable) -> list[CandidateSite]:
    """Drop sites whose coverage is available elsewhere at no extra cost.

    A site is removed when another site covers a superset of its targets at
    a weight that is no larger.  Exact ties (same covered set, same weight)
    keep the lexicographically smaller position, then the earlier row.
    That makes domination a strict partial order and the kept sites its
    maximal elements, whatever the row order.  So only the least site of
    each covered set by (weight, position, row) can be kept, and it is
    kept unless a strict superset's least site weighs no more; such a
    superset holds the set's lowest target, and any nonempty set is a
    strict superset of the empty one.  Only the kept sites are built, in
    row order.
    """
    if not len(table):
        return []
    # Each row's targets are ascending, so two rows cover equal sets exactly
    # when their member bytes are equal.
    size = table.members.itemsize
    buf = table.members.tobytes()
    groups: dict[bytes, int] = {}
    group = np.array([groups.setdefault(buf[a:b], len(groups)) for a, b in
                      zip((table.lo * size).tolist(), (table.hi * size).tolist())])
    w = np.full(len(groups), np.inf)
    np.minimum.at(w, group, table.weight)
    # The few sites at their set's least weight, by (set, position, row).
    tied = np.flatnonzero(table.weight == w[group])
    tied = tied[np.lexsort((table.y[tied], table.x[tied], group[tied]))]
    least = tied[_run_heads(group[tied])]
    members = table.members.tolist()
    sets = [frozenset(members[a:b]) for a, b in
            zip(table.lo[least].tolist(), table.hi[least].tolist())]
    w = w.tolist()
    holders: dict[int, list[int]] = {}
    for g, cov in enumerate(sets):
        for t in cov:
            holders.setdefault(t, []).append(g)
    kept = []
    for g, cov in enumerate(sets):
        rivals = holders[min(cov)] if cov else range(len(sets))
        if not any(cov < sets[h] and w[h] <= w[g] for h in rivals):
            kept.append(g)
    rows = np.sort(least[kept])
    return [CandidateSite(Point(x, y), sets[g], wt, o) for x, y, g, wt, o in
            zip(table.x[rows].tolist(), table.y[rows].tolist(), group[rows].tolist(),
                table.weight[rows].tolist(), table.origin[rows].tolist())]
