"""Full-grid sweep of the discretization audit, and the rescanning greedy.

The library finds each target's interval of rows on each x line by binary
search and weighs only a few points of each run of one covered set; this
sweep tests every target against every grid point of the bounding box in
one pass and sorts the covering points by (covered set, weight, x, y).  It
serves as the reference the library's sweep must reproduce exactly: the
same report and the same grid sites.

`greedy_cover_rescan` is the greedy baseline that rescans every site on
each step; the library's lazy heap must pick the same sites.
"""

import numpy as np

from sinkcover.geometry import COVER_TOL, Point
from sinkcover.oracle import (INF, GridRefineReport, OracleResult,
                              exact_min_cost_cover)
from sinkcover.sites import CandidateSite, site_weight


def full_grid_sites(instance, step):
    r = instance.r
    txs = np.array([t.x for t in instance.targets])
    tys = np.array([t.y for t in instance.targets])
    x0, x1 = txs.min() - r, txs.max() + r
    y0, y1 = tys.min() - r, tys.max() + r
    xs = np.arange(x0, x1 + step / 2, step)
    ys = np.arange(y0, y1 + step / 2, step)
    reach = r * (1.0 + COVER_TOL)

    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    gx = gx.ravel()
    gy = gy.ravel()
    masks = np.zeros(gx.shape, dtype=np.int64)
    for i, t in enumerate(instance.targets):
        d2 = (gx - t.x) ** 2 + (gy - t.y) ** 2
        masks |= (d2 <= reach * reach).astype(np.int64) << i
    sel = masks > 0
    gx, gy, masks = gx[sel], gy[sel], masks[sel]
    total_pts = int(sel.sum())
    w = np.full(gx.shape, np.inf)
    for p in instance.stations:
        np.minimum(w, np.hypot(gx - p.x, gy - p.y), out=w)
    order = np.lexsort((gy, gx, w, masks))
    masks_o = masks[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = masks_o[1:] != masks_o[:-1]
    best_weight: dict[int, float] = {}
    best_pos: dict[int, tuple[float, float]] = {}
    for gi in order[first]:
        key = int(masks[gi])
        best_weight[key] = float(w[gi])
        best_pos[key] = (float(gx[gi]), float(gy[gi]))

    grid_sites = []
    for key in sorted(best_weight):
        covered = frozenset(t for t in range(instance.n) if key >> t & 1)
        px, py = best_pos[key]
        pos = Point(px, py)
        _, origin = site_weight(pos, instance.stations)
        grid_sites.append(CandidateSite(pos, covered, best_weight[key], origin))
    return grid_sites, total_pts


def full_grid_refine_audit(instance, discrete_opt, step):
    if instance.n == 0:
        raise ValueError("nothing to cover")
    if instance.n > 63:
        raise ValueError(f"grid audit packs targets into int64 masks: "
                         f"{instance.n} targets exceed 63")
    if step <= 0:
        raise ValueError("step must be positive")
    grid_sites, total_pts = full_grid_sites(instance, step)
    res = exact_min_cost_cover(instance.n, grid_sites)
    return GridRefineReport(step=step,
                            discrete_opt=discrete_opt,
                            grid_opt=res.cost,
                            gap=res.cost - discrete_opt,
                            grid_solution_size=len(res.site_indices),
                            grid_candidate_points=total_pts,
                            distinct_cover_sets=len(grid_sites))


def greedy_cover_rescan(target_count, sites):
    if target_count == 0:
        return OracleResult(0.0, frozenset(), 0, False)
    masks = []
    for s in sites:
        mask = 0
        for t in s.covered:
            if t < target_count:
                mask |= 1 << t
        masks.append(mask)
    uncov = (1 << target_count) - 1
    chosen = []
    steps = 0
    while uncov:
        best_si = -1
        best_ratio = INF
        for si, m in enumerate(masks):
            new = bin(m & uncov).count("1")
            if new == 0:
                continue
            ratio = sites[si].weight / new
            if ratio < best_ratio:
                best_ratio, best_si = ratio, si
        if best_si < 0:
            t = (uncov & -uncov).bit_length() - 1
            return OracleResult(INF, frozenset(chosen), steps, False,
                                feasible=False, infeasible_target=t)
        chosen.append(best_si)
        uncov &= ~masks[best_si]
        steps += 1
    cost = sum(sites[si].weight for si in sorted(chosen))
    return OracleResult(cost, frozenset(chosen), steps, False)
