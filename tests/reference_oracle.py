"""Full-grid sweep of the discretization audit, its global check, and the
rescanning greedy.

The library finds each target's interval of rows on each x line by binary
search and weighs one row per run of one covered set and station; this
sweep tests every target against every grid point of the bounding box in
one pass and keeps each covered set's cheapest point.  The library's sweep
must reproduce its covered sets, least weights and point count exactly.

`full_grid_global_audit` is the audit's older, global form: an exact
cover over one grid site per covered set must cost no less than the
discrete optimum.  The library's per-set dominance check implies it.

`greedy_cover_rescan` is the greedy baseline that rescans every site on
each step; the library's lazy heap must pick the same sites.

`milp_min_cost_cover` is an exact cover oracle that shares no code with
the strip DP or the branch and bound: HiGHS's MILP solver (Huangfu and
Hall, Math. Prog. Comp. 10, 2018) through `scipy.optimize.milp`.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_array

from sinkcover.geometry import COVER_TOL, Point
from sinkcover.oracle import INF, OracleResult, exact_min_cost_cover
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
    order = np.lexsort((w, masks))
    masks_o = masks[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = masks_o[1:] != masks_o[:-1]

    grid_sites = []
    for gi in order[first]:
        key = int(masks[gi])
        covered = frozenset(t for t in range(instance.n) if key >> t & 1)
        pos = Point(float(gx[gi]), float(gy[gi]))
        _, origin = site_weight(pos, instance.stations)
        grid_sites.append(CandidateSite(pos, covered, float(w[gi]), origin))
    return grid_sites, total_pts


@dataclass(frozen=True)
class GlobalGridReport:
    discrete_opt: float
    grid_opt: float
    gap: float                 # grid_opt - discrete_opt
    grid_solution_size: int

    @property
    def ok_lower(self):
        """Grid search never beats the discrete optimum (up to float noise)."""
        return self.grid_opt >= self.discrete_opt - 1e-9


def full_grid_global_audit(instance, discrete_opt, step):
    grid_sites, _ = full_grid_sites(instance, step)
    res = exact_min_cost_cover(instance.n, grid_sites)
    return GlobalGridReport(discrete_opt=discrete_opt, grid_opt=res.cost,
                            gap=res.cost - discrete_opt,
                            grid_solution_size=len(res.site_indices))


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


def milp_min_cost_cover(target_count, sites):
    """Minimum total weight covering targets 0..target_count-1 with `sites`,
    as a MILP: one binary per site, and one row per target of the sparse
    incidence matrix asking that a chosen site cover it, solved with no
    relative gap.  Returns an OracleResult whose cost is recomputed over
    the chosen sites in ascending index order."""
    if target_count == 0:
        return OracleResult(0.0, frozenset(), 0, True)
    cols = [i for i, s in enumerate(sites) for t in s.covered if t < target_count]
    rows = [t for s in sites for t in s.covered if t < target_count]
    incidence = csr_array((np.ones(len(rows)), (rows, cols)),
                          shape=(target_count, len(sites)))
    res = milp(np.array([s.weight for s in sites]),
               constraints=LinearConstraint(incidence, lb=1.0, ub=np.inf),
               integrality=np.ones(len(sites)), bounds=Bounds(0.0, 1.0),
               options={"mip_rel_gap": 0.0})
    if res.x is None:
        return OracleResult(INF, frozenset(), 0, False, feasible=False)
    chosen = [i for i, v in enumerate(res.x) if v > 0.5]
    return OracleResult(sum(sites[i].weight for i in chosen), frozenset(chosen),
                        0, res.status == 0)
