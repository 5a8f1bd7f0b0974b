"""Desk-scale ground truth.

Exact minimum-cost cover by branch and bound, a greedy baseline, and a
continuous-refinement audit that stress-tests the candidate-site
discretization.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .geometry import COVER_TOL, Point
from .sites import CandidateSite, Instance, site_weight

INF = float("inf")

# Grid points the refinement audit sweeps at most; a finer grid is refused
# before any grid-sized array exists.
_MAX_GRID_POINTS = 1_000_000_000


@dataclass(frozen=True)
class OracleResult:
    cost: float
    site_indices: frozenset[int]
    nodes_explored: int
    proven_optimal: bool
    feasible: bool = True
    infeasible_target: int | None = None


def _target_masks(target_count: int, sites: list[CandidateSite]) -> list[int]:
    masks = []
    for s in sites:
        m = 0
        for t in s.covered:
            if t < target_count:
                m |= 1 << t
        masks.append(m)
    return masks


def _search(uncov: int, chosen: tuple[int, ...], cost: float, tables: tuple,
            best: list) -> None:
    """One branch-and-bound node: cover target mask `uncov` after taking the
    sites `chosen` at weight `cost`.  `tables` and `best` (the incumbent
    cost and sites, and the node count) are passed in, not closed over, so
    the recursion builds no reference cycle."""
    coverers, masks, sites, cheapest = tables
    best[2] += 1
    if uncov == 0:
        if cost < best[0] or (cost == best[0] and chosen < best[1]):
            best[0], best[1] = cost, chosen
        return
    lb, rest = 0.0, uncov
    while rest:
        t = (rest & -rest).bit_length() - 1
        if cheapest[t] > lb:
            lb = cheapest[t]
        rest &= rest - 1
    if cost + lb >= best[0]:
        return
    t = (uncov & -uncov).bit_length() - 1
    for si in coverers[t]:
        _search(uncov & ~masks[si], chosen + (si,), cost + sites[si].weight,
                tables, best)


def exact_min_cost_cover(target_count: int, sites: list[CandidateSite]) -> OracleResult:
    """Exact minimum total weight covering all targets, by branch and bound.

    Branches on the lowest-index uncovered target over the sites covering
    it, cheapest first.  Nodes are pruned against the incumbent using an
    admissible lower bound: the largest, over uncovered targets, of the
    cheapest weight of any site covering that target.

    Intended for small instances; the search is exponential in general.
    """
    if target_count == 0:
        return OracleResult(0.0, frozenset(), 0, True)
    masks = _target_masks(target_count, sites)
    full = (1 << target_count) - 1

    coverers: list[list[int]] = [[] for _ in range(target_count)]
    for si, m in enumerate(masks):
        for t in range(target_count):
            if m >> t & 1:
                coverers[t].append(si)
    cheapest = [INF] * target_count
    for t in range(target_count):
        if not coverers[t]:
            return OracleResult(INF, frozenset(), 0, False,
                                feasible=False, infeasible_target=t)
        coverers[t].sort(key=lambda si: (sites[si].weight, si))
        cheapest[t] = sites[coverers[t][0]].weight

    best = [INF, (), 0]
    _search(full, (), 0.0, (coverers, masks, sites, cheapest), best)
    best_cost, best_set, nodes = best
    if math.isinf(best_cost):
        return OracleResult(INF, frozenset(), nodes, False, feasible=False)
    return OracleResult(best_cost, frozenset(best_set), nodes, True)


def greedy_cover(target_count: int, sites: list[CandidateSite]) -> OracleResult:
    """Baseline: repeatedly pick the site with the best weight-per-new-target
    ratio, lowest index on ties.  Never better than the exact oracle; useful
    as a quick sanity bar.

    A site's ratio only rises as targets get covered, so a heap keyed on
    (ratio, site index) may hold stale keys: a popped site whose count of
    new targets is unchanged has the least current key, and is picked;
    any other is pushed back with its current key.
    """
    if target_count == 0:
        return OracleResult(0.0, frozenset(), 0, False)
    masks = _target_masks(target_count, sites)
    uncov = (1 << target_count) - 1
    heap = [(sites[si].weight / new, si, new)
            for si, m in enumerate(masks) if (new := m.bit_count())]
    heapq.heapify(heap)
    chosen: list[int] = []
    while uncov and heap:
        _, si, new = heapq.heappop(heap)
        now = (masks[si] & uncov).bit_count()
        if now == new:
            chosen.append(si)
            uncov &= ~masks[si]
        elif now:
            heapq.heappush(heap, (sites[si].weight / now, si, now))
    steps = len(chosen)
    if uncov:
        t = (uncov & -uncov).bit_length() - 1
        return OracleResult(INF, frozenset(chosen), steps, False,
                            feasible=False, infeasible_target=t)
    cost = sum(sites[si].weight for si in sorted(chosen))
    return OracleResult(cost, frozenset(chosen), steps, False)


@dataclass(frozen=True)
class GridRefineReport:
    """Outcome of the continuous-refinement audit."""

    step: float
    discrete_opt: float
    grid_opt: float
    gap: float                 # grid_opt - discrete_opt
    grid_solution_size: int
    grid_candidate_points: int
    distinct_cover_sets: int

    @property
    def ok_lower(self) -> bool:
        """Grid search never beats the discrete optimum (up to float noise)."""
        return self.grid_opt >= self.discrete_opt - 1e-9


def grid_refine_audit(instance: Instance, discrete_opt: float,
                      step: float) -> GridRefineReport:
    """Compare the discrete optimum against a brute-force grid of placements.

    Sensor positions are sampled at pitch `step` over the union of detection
    circles (positions farther than r from every target cover nothing and
    are useless), condensed to one cheapest representative per distinct
    covered set, and solved exactly.  If the candidate-site classes are
    sound, the grid optimum can only be worse, up to O(step) per sensor.
    Input that `check_grid_audit` refuses raises ValueError.
    """
    grid_sites, total_pts = _grid_sites(instance, step)
    res = exact_min_cost_cover(instance.n, grid_sites)
    return GridRefineReport(step=step,
                            discrete_opt=discrete_opt,
                            grid_opt=res.cost,
                            gap=res.cost - discrete_opt,
                            grid_solution_size=len(res.site_indices),
                            grid_candidate_points=total_pts,
                            distinct_cover_sets=len(grid_sites))


def check_grid_audit(instance: Instance, step: float) -> tuple[float, float, float, float]:
    """The box x0, x1, y0, y1 the refinement audit sweeps at pitch `step`,
    after refusing with ValueError what it cannot take: no target, more than
    63 (covered sets are packed into int64 bit masks), a step that is not
    positive and finite, or a grid of more than `_MAX_GRID_POINTS` points.
    Nothing grid-sized is built."""
    if instance.n == 0:
        raise ValueError("nothing to cover")
    if instance.n > 63:
        raise ValueError(f"grid audit packs targets into int64 masks: "
                         f"{instance.n} targets exceed 63")
    if not (step > 0 and math.isfinite(step)):
        raise ValueError("step must be positive and finite")
    r = instance.r
    x0 = min(t.x for t in instance.targets) - r
    x1 = max(t.x for t in instance.targets) + r
    y0 = min(t.y for t in instance.targets) - r
    y1 = max(t.y for t in instance.targets) + r
    # np.arange's own lengths.
    size = (np.ceil((x1 + step / 2 - x0) / step)
            * np.ceil((y1 + step / 2 - y0) / step))
    if size > _MAX_GRID_POINTS:
        raise ValueError(f"grid of pitch {step} has {size:.3g} points, more "
                         f"than the {_MAX_GRID_POINTS:.3g} the audit sweeps")
    return x0, x1, y0, y1


def _grid_sites(instance: Instance,
                step: float) -> tuple[list[CandidateSite], int]:
    """The audit's grid sites, one per distinct covered set, and the number
    of grid points that cover some target.

    Each set is represented by its cheapest grid point, ties going to the
    least x, then the least y.

    A grid point covers target t when `(x - t.x)**2 + (y - t.y)**2 <= rr`
    in floats.  On one x line the offsets `dy = y - t.y` are non-decreasing
    in the row (np.arange fills `start + i*delta`, and rounding is
    monotone), negative below `np.searchsorted(ys, t.y)` and non-negative
    from it on, so the rounded sum falls and then rises: t covers one
    interval of rows per line, whose two ends are found by binary search
    on that same expression.  Each line is cut at the interval ends into
    runs of one covered set.

    Only a few candidate points of each run are weighed.  The offsets
    `dy = ys - p.y` to a station p are non-decreasing in the row too, so
    the rows with `|dy| <= L` form one window, found by `searchsorted`.
    Let q be the run's row of least |dy|, dx the line's offset to p, and
    D(j) the exact sqrt(dx**2 + dy_j**2) of the rounded offsets.  Assume
    generously that `np.hypot` returns D within 2**-48 D + 2**-1022 below
    overflow (glibc's is within one ulp), and take, in floats,
    L = |dy_q| + 2**-21 (|dx| + |dy_q|) + 2**-500, which is at least
    |dy_q| + W with W = 2**-22 D(q) + 2**-501.  A row j of the run outside
    the window then has |dy_j| - |dy_q| > W, so
    D(j)**2 - D(q)**2 >= (|dy_j| - |dy_q|)**2 > W**2 >= 2 D(q) M + M**2
    with M = 3 (2**-48 D(q) + 2**-1022).  Hence D(j) > D(q) + M, and the
    computed distance from j to p is strictly greater than that from q.
    The run's candidates are the union of its windows over the stations:
    every other point is farther from each station p than p's row q, so
    strictly heavier than the lightest candidate, and every point at the
    run's least weight is a candidate.  Far stations widen a window (at
    1e6 r several rows round to one distance), near ones keep it at a row
    or two.
    """
    r = instance.r
    x0, x1, y0, y1 = check_grid_audit(instance, step)
    txs = np.array([t.x for t in instance.targets])
    tys = np.array([t.y for t in instance.targets])
    xs = np.arange(x0, x1 + step / 2, step)
    ys = np.arange(y0, y1 + step / 2, step)
    ny = len(ys)
    reach = r * (1.0 + COVER_TOL)
    rr = reach * reach

    # One (target, line) pair for each line a target can reach: the rounded
    # sum is at least its x term.
    reached = [np.flatnonzero((xs - t.x) ** 2 <= rr) for t in instance.targets]
    tix = np.repeat(np.arange(instance.n), [len(a) for a in reached])
    lines = np.concatenate(reached)
    dx2, ty = (xs[lines] - txs[tix]) ** 2, tys[tix]

    def covers(j):
        return dx2 + (ys[j] - ty) ** 2 <= rr

    split = np.searchsorted(ys, ty)
    first = _first_true(covers, np.zeros_like(split), split)
    end = _first_true(lambda j: ~covers(j), split, np.full_like(split, ny))
    # Each interval's ends as flat grid indices, ordered by (line, row).
    # Every interval closes on its own line, so the running xor of the
    # bits is each run's covered set, and 0 between lines.
    hit = first < end
    pos = np.concatenate((lines[hit] * ny + first[hit],
                          lines[hit] * ny + end[hit]))
    order = np.argsort(pos)
    pos = pos[order]
    acc = np.bitwise_xor.accumulate(np.tile(1 << tix[hit], 2)[order])
    last = np.diff(pos, append=-1) != 0
    heads, keys = pos[last], acc[last]
    lens = np.diff(heads, append=heads[-1:])
    covering = keys != 0
    heads, lens, keys = heads[covering], lens[covering], keys[covering]
    line = heads // ny
    first_row = heads - line * ny
    last_row = first_row + lens - 1

    # Each run's candidate window for each station, as rows.
    win_lo, win_len = [], []
    for p in instance.stations:
        dy = ys - p.y
        q = np.clip(np.argmin(np.abs(dy)), first_row, last_row)
        near = np.abs(dy[q])
        lim = near + (np.abs(xs[line] - p.x) + near) * 2.0**-21 + 2.0**-500
        a = np.maximum(np.searchsorted(dy, -lim, "left"), first_row)
        b = np.minimum(np.searchsorted(dy, lim, "right"), last_row + 1)
        win_lo.append(a)
        win_len.append(b - a)
    win_lo, win_len = np.concatenate(win_lo), np.concatenate(win_len)
    offs = np.cumsum(win_len) - win_len
    # Windows of two stations may overlap; a repeated point is harmless.
    run = np.repeat(np.tile(np.arange(len(heads)), len(instance.stations)),
                    win_len)
    gx = xs[line[run]]
    gy = ys[np.repeat(win_lo - offs, win_len) + np.arange(int(win_len.sum()))]
    w = np.full(gx.shape, np.inf)
    for p in instance.stations:
        np.minimum(w, np.hypot(gx - p.x, gy - p.y), out=w)
    # Every point at its run's least weight is a candidate, so the first
    # candidate of each set by (weight, x, y) is the set's point.
    key = keys[run]
    order = np.lexsort((gy, gx, w, key))
    key = key[order]
    new_set = np.diff(key, prepend=-1) != 0

    grid_sites = []
    for gi, s in zip(order[new_set], key[new_set].tolist()):
        covered = frozenset(t for t in range(instance.n) if s >> t & 1)
        at = Point(float(gx[gi]), float(gy[gi]))
        _, origin = site_weight(at, instance.stations)
        grid_sites.append(CandidateSite(at, covered, float(w[gi]), origin))
    return grid_sites, int(lens.sum())


def _first_true(test, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Elementwise binary search: for each i, the least j in [lo[i], hi[i])
    with test(j)[i], or hi[i] if there is none.  test(j) gives one bool per
    element for an index array j, and must be false, then true, on each
    range."""
    while (live := lo < hi).any():
        mid = np.where(live, (lo + hi) // 2, 0)
        ok = test(mid)
        hi = np.where(live & ok, mid, hi)
        lo = np.where(live & ~ok, mid + 1, lo)
    return lo
