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
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import COVER_TOL, Point, hypot, near_pairs, within


@dataclass(frozen=True, eq=False)
class Instance:
    """A coverage problem: point targets, stations and a sensing radius.

    `targets` (n x 2) and `stations` (k x 2) are float64 arrays, row i
    being point i's (x, y), which the instance marks read-only; every
    coordinate is finite and there is at least one station.  Two instances
    are equal when their radii and coordinates are (0.0 equals -0.0)."""

    targets: np.ndarray
    stations: np.ndarray
    r: float

    def __post_init__(self) -> None:
        for name in ("targets", "stations"):
            a = getattr(self, name)
            if not (isinstance(a, np.ndarray) and a.dtype == np.float64
                    and a.ndim == 2 and a.shape[1] == 2):
                raise ValueError(f"{name} must be an (n, 2) float64 array")
            if not np.isfinite(a).all():
                x, y = a[np.isfinite(a).all(axis=1).argmin()].tolist()
                raise ValueError(f"non-finite point ({x}, {y})")
            a.setflags(write=False)
        if len(self.stations) < 1:
            raise ValueError("at least one station is required")
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ValueError(f"sensing radius must be positive, got {self.r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (self.r == other.r and np.array_equal(self.targets, other.targets)
                and np.array_equal(self.stations, other.stations))

    __hash__ = None

    @property
    def n(self) -> int:
        return len(self.targets)

    @property
    def k(self) -> int:
        return len(self.stations)

    @classmethod
    def from_coords(cls, targets, stations, r: float) -> "Instance":
        """The instance of the given (x, y) pairs, each coordinate taken
        as `float` takes it."""
        return cls(targets=_pairs(targets), stations=_pairs(stations), r=float(r))


def _pairs(points) -> np.ndarray:
    """(x, y) pairs as an (n, 2) float64 array."""
    return np.array([(float(x), float(y)) for x, y in points], dtype=float).reshape(-1, 2)


def site_weight(position: Point, stations) -> tuple[float, int]:
    """Minimum distance from `position` to any station, given as (x, y)
    pairs, with the station index.

    Ties are broken toward the lowest station index.
    """
    if len(stations) == 0:
        raise ValueError("at least one station is required")
    best_w = math.inf
    best_i = -1
    for i, (x, y) in enumerate(stations):
        w = math.hypot(position.x - x, position.y - y)
        if w < best_w:
            best_w, best_i = w, i
    return best_w, best_i


@dataclass(frozen=True, eq=False)
class CandidateTable:
    """Candidate sites as numpy columns, row i being site i.

    Row i covers the targets `members[lo[i]:hi[i]]`, in ascending order.
    Sites stay columns from generation through pruning and the solve; the
    oracles read them as the lists `columns` gives, the solver as the
    arrays `pairs` gives.
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

    def rows(self, rows: np.ndarray) -> "CandidateTable":
        """The table of the given rows, in that order, sharing `members`."""
        return CandidateTable(self.x[rows], self.y[rows], self.weight[rows],
                              self.origin[rows], self.lo[rows], self.hi[rows],
                              self.members)

    def columns(self) -> tuple[list[float], list[list[int]]]:
        """The sites as two lists, `(weights, covers)`: site g weighs
        `weights[g]` and covers the ascending targets `covers[g]`."""
        size = self.hi - self.lo
        flat = self.members[_ranges(self.lo, size)].tolist()
        ends = size.cumsum().tolist()
        return (self.weight.tolist(),
                [flat[a:b] for a, b in zip([0] + ends[:-1], ends)])

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every (target, row) pair of a row and a target it covers, as two
        arrays, row by row and each row's targets ascending."""
        size = self.hi - self.lo
        return self.members[_ranges(self.lo, size)], np.arange(len(size)).repeat(size)


def generate_candidate_sites(instance: Instance) -> CandidateTable:
    """Enumerate candidate sites for an instance.

    Duplicate positions are merged, sites covering no target are dropped,
    and the rows are sorted by (weight, x, y) so downstream enumeration and
    tie-breaking are reproducible.  Positions are first seen in the order
    stations, targets, circle pairs (ascending (i, j)), projections
    ((target, station) order); the first one seen wins a merge, which
    decides between 0.0 and -0.0.  Circle pairs and coverage are found by
    `near_pairs` at radius 2r and r, so only targets that can intersect or
    be covered are examined.  Numpy screens, and `math.hypot` settles every
    comparison in the band and every output weight: `np.hypot` can differ
    from it in the last bit.
    """
    reach = instance.r * (1.0 + COVER_TOL)
    tx, ty = instance.targets.T.copy()
    sx, sy = instance.stations.T.copy()
    # Each stage returns only what the next needs, so the intermediates of
    # one are freed before the next allocates.
    qx, qy = _positions(tx, ty, sx, sy, instance.r)
    members, lo, hi, qx, qy = _coverage(qx, qy, tx, ty, reach)
    weight, origin = _nearest_stations(qx, qy, sx, sy)
    # Positions are distinct, so only rows of equal weight need (x, y); a
    # lexsort of every row cost 0.55 ms more per sparse-400 op.
    order = weight.argsort(kind="stable")
    heads = run_heads(weight[order])
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
    # Each group of equal positions keeps its least index, the first seen.
    # An exact np.lexsort((y, x)) took three times as long as the hash.
    order, heads = _group(_position_hashes(x, y),
                          lambda a, b: (x[a] == x[b]) & (y[a] == y[b]))
    first = np.minimum.reduceat(order, heads.nonzero()[0])
    first.sort()
    return x[first], y[first]


def _position_hashes(x, y) -> np.ndarray:
    """A uint64 per position that equal positions share: the bits of x,
    folded so that its high bits reach the low ones and multiplied, plus
    the bits of y, with 0.0 added first so that -0.0 hashes as 0.0."""
    h = (x + 0.0).view(np.uint64)
    return ((h ^ (h >> np.uint64(32))) * np.uint64(0x9E3779B97F4A7C15)
            + (y + 0.0).view(np.uint64))


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
        # Pair by pair, its first point, then its second.
        xs = np.array((np.where(tangent, mx, mx - h * uy), mx + h * uy)).T
        ys = np.array((np.where(tangent, my, my + h * ux), my - h * ux)).T
    meet = (d != 0.0) & (disc >= 0.0)
    keep = np.array((meet, meet & ~tangent)).T
    return xs[keep], ys[keep]


def _coverage(qx, qy, tx, ty, reach: float):
    """The targets each position covers, for the positions covering any:
    position i covers `members[lo[i]:hi[i]]`, ascending; with those
    positions' coordinates."""
    q, c = near_pairs(qx, qy, tx, ty, reach)
    inside = within(qx[q] - tx[c], qy[q] - ty[c], reach)
    q, c = q[inside], c[inside]
    lo = run_heads(q).nonzero()[0]
    hi = np.append(lo[1:], len(c))
    return c, lo, hi, qx[q[lo]], qy[q[lo]]


def _nearest_stations(qx, qy, sx, sy) -> tuple[np.ndarray, np.ndarray]:
    """Each position's distance to its nearest station and that station's
    index, lowest on ties, as `site_weight` gives them.

    The station is the least squared distance dx*dx + dy*dy, weighed by
    math.hypot over the same dx and dy.  A squared distance is within about
    2 ulps of the true one, and math.hypot within about 1 ulp of its root.
    So when the second least square (inf with one station) exceeds the
    least by more than a relative 8e-12, every other station's true
    distance exceeds the chosen one's by a relative 4e-12 less a few ulps,
    and so does its math.hypot: the choice is site_weight's, with no tie.
    An absolute 1e-300 covers squares that underflow, whose error is a
    subnormal ulp, and squares that overflow are inf, which ties with inf.
    A position whose second least square is in that band is settled by
    `site_weight`.  One pass over the stations keeps the least and second
    least squares, so memory grows with the positions alone.
    """
    least, second = np.full(len(qx), np.inf), np.full(len(qx), np.inf)
    origin = np.zeros(len(qx), dtype=np.intp)
    with np.errstate(over="ignore"):
        for s in range(len(sx)):
            d2 = (qx - sx[s]) ** 2 + (qy - sy[s]) ** 2
            np.minimum(second, np.maximum(least, d2), out=second)
            origin[d2 < least] = s
            np.minimum(least, d2, out=least)
        tied = (second <= least * (1.0 + 8e-12) + 1e-300).nonzero()[0].tolist()
    weight = hypot(qx - sx[origin], qy - sy[origin])
    stations = list(zip(sx.tolist(), sy.tolist())) if tied else []
    for i in tied:
        weight[i], origin[i] = site_weight(Point(float(qx[i]), float(qy[i])), stations)
    return weight, origin


def _nearest_circle_points(tx, ty, sx, sy, r: float) -> tuple[np.ndarray, np.ndarray]:
    """The point of each target's radius-r circle nearest to each station, in
    (target, station) order: c + (s - c) * (r / dist(c, s)) for centre c
    and station s, c + ((s - c) / dist(c, s)) * r when r / dist(c, s)
    overflows (a subnormal distance), and (c.x + r, c.y) when s is on c."""
    cx, cy = tx[:, None], ty[:, None]
    # Far-out coordinates overflow to inf and nan, which `_positions` rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        dx, dy = sx - cx, sy - cy
        d = hypot(dx.ravel(), dy.ravel()).reshape(dx.shape)   # hypot(-a, -b) == hypot(a, b)
        on_centre = d == 0.0
        d = np.where(on_centre, 1.0, d)
        t = r / d
        finite = np.isfinite(t)
        ox = np.where(finite, dx * t, (dx / d) * r)
        oy = np.where(finite, dy * t, (dy / d) * r)
        px = np.where(on_centre, cx + r, cx + ox).ravel()
        py = np.where(on_centre, cy, cy + oy).ravel()
    return px, py


def run_heads(*keys: np.ndarray) -> np.ndarray:
    """Mask of the positions where some key of equal-length `keys` differs
    from its predecessor; the first position is a head."""
    heads = np.empty(len(keys[0]), dtype=bool)
    heads[:1] = True
    heads[1:] = keys[0][1:] != keys[0][:-1]
    for a in keys[1:]:
        heads[1:] |= a[1:] != a[:-1]
    return heads


def check_cost_range(n: int, w: float) -> None:
    """Refuse weights whose sums may pass the float range: w is the largest,
    over n targets, of a target's cheapest coverer weight.  Each target at
    its cheapest coverer covers the n targets for at most n * w, so no
    optimum the strip DP or the exact oracle finds, and no round made of
    cell optima, costs more; a greedy pick weighs at most w per target it
    newly covers.  The branch and bound tries its cheapest branches first,
    so it finds a cover of at most n * w before it prunes by cost plus a
    bound of at most w.  A partial sum that overflows can only be pruned
    or lose to such a cover.  So when (n + 1) * w is within half the
    largest float, with room for rounding, every cost reported is
    finite."""
    if not (n + 1) * w <= sys.float_info.max / 2:
        raise ValueError(
            f"costs may pass the float range: a target's cheapest coverer weighs {w!r}, "
            f"and {n + 1} times that passes half the largest float")


def coverers(covers: list[list[int]]) -> dict[int, list[int]]:
    """Target index -> ascending indices of the sites covering it, for site
    g covering the targets `covers[g]`."""
    out: dict[int, list[int]] = {}
    for g, cov in enumerate(covers):
        for t in cov:
            out.setdefault(t, []).append(g)
    return out


def prune_dominated(table: CandidateTable) -> CandidateTable:
    """Drop sites whose coverage is available elsewhere at no extra cost.

    A site is removed when another site covers a superset of its targets at
    a weight that is no larger.  Exact ties (same covered set, same weight)
    keep the lexicographically smaller position, then the earlier row.
    That makes domination a strict partial order and the kept sites its
    maximal elements, whatever the row order.  So only the least site of
    each covered set by (weight, position, row) can be kept, and it is
    kept unless a strict superset's least site weighs no more; such a
    superset holds the set's lowest target, and any nonempty set is a
    strict superset of the empty one.

    Returns the kept rows as a `CandidateTable`, in row order, sharing
    `members`: row i of it is the i-th kept site.  Rows are grouped by
    covered set in `_group_rows`, and one join over each set's lowest
    target finds the strict supersets (`_dominated`).
    """
    rows, heads = _group_rows(table)
    # The least site of each set: its lightest, unless several tie.
    w = table.weight[rows]
    start = heads.nonzero()[0]
    group = heads.cumsum() - 1
    least = w == np.minimum.reduceat(w, start)[group] if len(w) else heads
    if least.sum() > len(start):
        # Among tied sites the least (x, y, row) comes first.
        tied = least.nonzero()[0]
        r = rows[tied]
        tied = tied[np.lexsort((r, table.y[r], table.x[r], group[tied]))]
        least[tied] = run_heads(group[tied])
    least = rows[least]
    dominated = _dominated(table.lo[least], table.hi[least], table.weight[least],
                           table.members)
    keep = least[~dominated]
    keep.sort()
    return table.rows(keep)


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges [start[i], start[i] + count[i]), one after another."""
    first = (start - count.cumsum() + count).repeat(count)
    return first + np.arange(len(first))


def _row_hashes(table: CandidateTable) -> np.ndarray:
    """A uint64 per row that equal covered sets share: the wrapping sum over
    the set of a mixed 64-bit value per target, read off one prefix sum over
    `members`."""
    h = (table.members + 1).astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    h ^= h >> np.uint64(29)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    prefix = np.zeros(len(h) + 1, dtype=np.uint64)
    h.cumsum(out=prefix[1:])
    return prefix[table.hi] - prefix[table.lo]


def _group_rows(table: CandidateTable) -> tuple[np.ndarray, np.ndarray]:
    """Every row, grouped by covered set (`_group` over `_row_hashes`):
    the rows, each group contiguous, and a mask of each group's first."""
    lo, size, members = table.lo, table.hi - table.lo, table.members

    def same(rows, lead):   # member for member
        n = size[rows]
        ok = n == size[lead]
        n[~ok] = 0
        at = _ranges(lo[rows], n)
        differ = members[at] != members[at + (lo[lead] - lo[rows]).repeat(n)]
        ok[np.arange(len(n)).repeat(n)[differ]] = False
        return ok

    return _group(_row_hashes(table), same)


def _group(key: np.ndarray, same) -> tuple[np.ndarray, np.ndarray]:
    """Every index, grouped by equality: the indices, each group contiguous,
    and a mask of each group's first.  Equal elements share a `key`, and
    `same(a, b)` tells elementwise whether elements a and b are equal.

    Indices are sorted by key, and each is checked against the first index
    of its key run.  The ones that differ from it, which only a collision
    of keys leaves, are grouped again by the same steps; each pass settles
    at least every run's first index.
    """
    done, leads = [], []
    order = key.argsort()
    while True:
        heads = run_heads(key[order])
        lead = order[heads][heads.cumsum() - 1]
        match = same(order, lead)
        if match.all() and not done:   # no collision
            return order, heads
        done.append(order[match])
        leads.append(lead[match])
        order = order[~match]
        if not len(order):
            return np.concatenate(done), run_heads(np.concatenate(leads))
        order = order[key[order].argsort()]


def _dominated(lo, hi, weight, members) -> np.ndarray:
    """For each set `members[lo[i]:hi[i]]`, no two of them equal, whether a
    strict superset among them weighs no more.

    A strict superset of a nonempty set holds its lowest target, so each
    set is joined with the other sets holding that target, kept only when
    they are no heavier.  A 64-bit signature per set, bit t mod 64 for
    each target t, drops most pairs that are not nested, and the rest are
    checked for every target of the set after its lowest.
    """
    size = hi - lo
    first = size.cumsum() - size
    # (set, target) entries, ascending by set, then target.
    owner = np.arange(len(size)).repeat(size)
    target = members[(lo - first).repeat(size) + np.arange(len(owner))]
    full = size.nonzero()[0]
    sig = np.zeros(len(size), dtype=np.int64)
    if len(full):
        sig[full] = np.bitwise_or.reduceat(np.left_shift(1, target & 63), first[full])
    by_target = target.argsort()
    low = target[first[full]]
    a = target[by_target].searchsorted(low)
    n = target[by_target].searchsorted(low, "right") - a
    sub, sup = full.repeat(n), owner[by_target[_ranges(a, n)]]
    # The sets are distinct, so a set that holds another one is a strict
    # superset of it.
    subsig = sig[sub]
    rival = (sup != sub) & (weight[sup] <= weight[sub]) & (subsig & sig[sup] == subsig)
    sub, sup = sub[rival], sup[rival]
    # Each pair's targets after the lowest must be entries of the superset.
    span = int(target.max(initial=-1)) + 1
    entry = owner * span + target
    n = size[sub] - 1
    pair = np.arange(len(sub)).repeat(n)
    probe = sup[pair] * span + target[_ranges(first[sub] + 1, n)]
    hit = entry[np.minimum(entry.searchsorted(probe), len(entry) - 1)] == probe
    out = np.zeros(len(size), dtype=bool)
    out[sub[np.bincount(pair[~hit], minlength=len(sub)) == 0]] = True
    if 0 < len(full) < len(size):   # the empty set
        out[size == 0] = weight[full].min() <= weight[size == 0]
    return out
