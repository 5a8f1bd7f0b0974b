"""All-pairs candidate-site generation and dominance pruning, and a
column-wise generation that decides every distance with `math.hypot`.

The library's versions join arrays over bucket grids; the all-pairs ones
scan every target pair, every (site, target) pair and every site pair, and
serve as the reference the indexed versions must reproduce exactly, order
included.  `math_hypot_candidate_table` is fast enough for workload sizes:
it shares the library's bucket join and circle points, but merges positions
in a dict, tests coverage with `math.hypot` on every pair, shortlists the
nearest station by an `np.hypot` band, and sorts rows by a three-key
lexsort.
"""

import itertools

import numpy as np
from reference_geometry import (circle_circle_intersections, covered_targets,
                                nearest_point_on_circle)
from site_records import CandidateSite, points

from sinkcover.geometry import COVER_TOL, Point, hypot, near_pairs
from sinkcover.sites import (CandidateTable, _circle_pair_points,
                             _nearest_circle_points, run_heads, site_weight)


def math_hypot_candidate_table(instance):
    """The `CandidateTable` of `generate_candidate_sites`, every coverage
    test and nearest-station choice settled by `math.hypot`."""
    reach = instance.r * (1.0 + COVER_TOL)
    tx, ty = instance.targets.T.copy()
    sx, sy = instance.stations.T.copy()
    qx, qy = _positions(tx, ty, sx, sy, instance.r)
    members, lo, hi, qx, qy = _coverage(qx, qy, tx, ty, reach)
    weight, origin = _nearest_stations(qx, qy, sx, sy, instance.stations.tolist())
    order = np.lexsort((qy, qx, weight))
    return CandidateTable(qx[order], qy[order], weight[order], origin[order],
                          lo[order], hi[order], members)


def _positions(tx, ty, sx, sy, r):
    cx, cy = _circle_pair_points(tx, ty, r)
    px, py = _nearest_circle_points(tx, ty, sx, sy, r)
    # dict.fromkeys keeps the first key of each equal (x, y), signed zeros
    # included.
    seen = dict.fromkeys(zip(np.concatenate((sx, tx, cx, px)).tolist(),
                             np.concatenate((sy, ty, cy, py)).tolist()))
    pos = np.fromiter(itertools.chain.from_iterable(seen), float, 2 * len(seen))
    if not np.isfinite(pos).all():
        bad = np.isfinite(pos).reshape(-1, 2).all(axis=1).argmin()
        x, y = pos[2 * bad:2 * bad + 2].tolist()
        raise ValueError(f"non-finite point ({x}, {y})")
    return pos[0::2].copy(), pos[1::2].copy()


def _coverage(qx, qy, tx, ty, reach):
    q, c = near_pairs(qx, qy, tx, ty, reach)
    inside = hypot(qx[q] - tx[c], qy[q] - ty[c]) <= reach
    q, c = q[inside], c[inside]
    lo = run_heads(q).nonzero()[0]
    hi = np.append(lo[1:], len(c))
    return c, lo, hi, qx[q[lo]], qy[q[lo]]


def _nearest_stations(qx, qy, sx, sy, stations):
    # The least np.hypot is the station, weighed by math.hypot; any other
    # station within a relative 1e-12 (or an absolute 1e-300) of it goes to
    # `site_weight`.
    near = np.hypot(qx[:, None] - sx, qy[:, None] - sy)
    origin = near.argmin(axis=1)
    band = np.minimum.reduce(near, axis=1) * (1.0 + 1e-12) + 1e-300
    tied = (np.add.reduce(near <= band[:, None], axis=1) > 1).nonzero()[0].tolist()
    weight = hypot(qx - sx[origin], qy - sy[origin])
    for i in tied:
        weight[i], origin[i] = site_weight(Point(float(qx[i]), float(qy[i])), stations)
    return weight, origin


def all_pairs_candidate_sites(instance):
    r = instance.r
    targets, stations = points(instance.targets), points(instance.stations)
    positions = {}

    def add(p):
        positions.setdefault((p.x, p.y), p)

    for p in stations:
        add(p)
    for t in targets:
        add(t)
    for i in range(len(targets)):
        for j in range(i + 1, len(targets)):
            for p in circle_circle_intersections(targets[i], targets[j], r):
                add(p)
    for t in targets:
        for p in stations:
            add(nearest_point_on_circle(t, r, p))

    sites = []
    for pos in positions.values():
        covered = covered_targets(pos, targets, r)
        if not covered:
            continue
        weight, origin = site_weight(pos, instance.stations.tolist())
        sites.append(CandidateSite(pos, covered, weight, origin))
    sites.sort(key=lambda s: (s.weight, s.position.x, s.position.y))
    return sites


def all_pairs_prune(sites):
    n = len(sites)
    masks = []
    for s in sites:
        m = 0
        for t in s.covered:
            m |= 1 << t
        masks.append(m)
    keep = [True] * n
    for i in range(n):
        mi, wi, pi = masks[i], sites[i].weight, sites[i].position
        for j in range(n):
            if i == j or not keep[j]:
                continue
            mj, wj = masks[j], sites[j].weight
            if (mi & mj) == mi and wj <= wi:
                if mj != mi or wj < wi:
                    keep[i] = False
                    break
                pj = sites[j].position
                if pj < pi or (pj == pi and j < i):
                    keep[i] = False
                    break
    return [s for s, k in zip(sites, keep) if k]
