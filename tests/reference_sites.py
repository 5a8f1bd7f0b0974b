"""All-pairs candidate-site generation and dominance pruning.

The library's versions join arrays over bucket grids; these scan every
target pair, every (site, target) pair and every site pair, and serve as
the reference the indexed versions must reproduce exactly, order included.
"""

import numpy as np
from reference_geometry import (circle_circle_intersections, covered_targets,
                                nearest_point_on_circle)

from sinkcover.sites import CandidateSite, CandidateTable, site_weight


def candidate_table(sites):
    """The `CandidateTable` whose rows are `sites`, in list order."""
    covered = [sorted(s.covered) for s in sites]
    size = np.array([len(c) for c in covered], dtype=np.intp)
    hi = size.cumsum()
    return CandidateTable(
        x=np.array([s.position.x for s in sites], dtype=float),
        y=np.array([s.position.y for s in sites], dtype=float),
        weight=np.array([s.weight for s in sites], dtype=float),
        origin=np.array([s.origin_station for s in sites], dtype=np.intp),
        lo=hi - size, hi=hi,
        members=np.array([t for c in covered for t in c], dtype=np.intp))


def all_pairs_candidate_sites(instance):
    r = instance.r
    targets = instance.targets
    positions = {}

    def add(p):
        positions.setdefault((p.x, p.y), p)

    for p in instance.stations:
        add(p)
    for t in targets:
        add(t)
    for i in range(len(targets)):
        for j in range(i + 1, len(targets)):
            for p in circle_circle_intersections(targets[i], targets[j], r):
                add(p)
    for t in targets:
        for p in instance.stations:
            add(nearest_point_on_circle(t, r, p))

    sites = []
    for pos in positions.values():
        covered = covered_targets(pos, targets, r)
        if not covered:
            continue
        weight, origin = site_weight(pos, instance.stations)
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
