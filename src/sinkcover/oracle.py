"""Desk-scale ground truth.

Exact minimum-cost cover by branch and bound, a greedy baseline, a
continuous-refinement audit that stress-tests the candidate-site
discretization, and sensor-density censuses over strips and small squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import COVER_TOL, Point
from .sites import CandidateSite, Instance, site_weight
from .grid import bounding_box

INF = float("inf")

# Grid points per row chunk of the refinement audit's sweep; bounds its
# peak memory.
_CHUNK_POINTS = 4_000_000
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


def exact_min_cost_cover(target_count: int, sites: list[CandidateSite],
                         max_sites: int | None = None) -> OracleResult:
    """Exact minimum total weight covering all targets, by branch and bound.

    Branches on the lowest-index uncovered target over the sites covering
    it, cheapest first.  Nodes are pruned against the incumbent using an
    admissible lower bound: the largest, over uncovered targets, of the
    cheapest weight of any site covering that target.  With `max_sites` the
    search is restricted to covers of at most that many sites.

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

    best_cost = INF
    best_set: tuple[int, ...] = ()
    nodes = 0

    def lower_bound(uncov: int) -> float:
        lb = 0.0
        while uncov:
            t = (uncov & -uncov).bit_length() - 1
            if cheapest[t] > lb:
                lb = cheapest[t]
            uncov &= uncov - 1
        return lb

    def search(uncov: int, chosen: tuple[int, ...], cost: float) -> None:
        nonlocal best_cost, best_set, nodes
        nodes += 1
        if uncov == 0:
            if cost < best_cost or (cost == best_cost and chosen < best_set):
                best_cost, best_set = cost, chosen
            return
        if max_sites is not None and len(chosen) >= max_sites:
            return
        if cost + lower_bound(uncov) >= best_cost:
            return
        t = (uncov & -uncov).bit_length() - 1
        for si in coverers[t]:
            search(uncov & ~masks[si], chosen + (si,), cost + sites[si].weight)

    search(full, (), 0.0)
    if math.isinf(best_cost):
        return OracleResult(INF, frozenset(), nodes, False, feasible=False)
    return OracleResult(best_cost, frozenset(best_set), nodes, True)


def greedy_cover(target_count: int, sites: list[CandidateSite]) -> OracleResult:
    """Baseline: repeatedly pick the site with the best weight-per-new-target
    ratio.  Never better than the exact oracle; useful as a quick sanity bar.
    """
    if target_count == 0:
        return OracleResult(0.0, frozenset(), 0, False)
    masks = _target_masks(target_count, sites)
    full = (1 << target_count) - 1
    uncov = full
    chosen: list[int] = []
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
    Covered sets are packed into int64 bit masks, so at most 63 targets are
    accepted, and a grid of more than `_MAX_GRID_POINTS` points is refused.
    """
    if instance.n == 0:
        raise ValueError("nothing to cover")
    if instance.n > 63:
        raise ValueError(f"grid audit packs targets into int64 masks: "
                         f"{instance.n} targets exceed 63")
    if not (step > 0 and math.isfinite(step)):
        raise ValueError("step must be positive and finite")
    grid_sites, total_pts = _grid_sites(instance, step)
    res = exact_min_cost_cover(instance.n, grid_sites)
    return GridRefineReport(step=step,
                            discrete_opt=discrete_opt,
                            grid_opt=res.cost,
                            gap=res.cost - discrete_opt,
                            grid_solution_size=len(res.site_indices),
                            grid_candidate_points=total_pts,
                            distinct_cover_sets=len(grid_sites))


def _grid_sites(instance: Instance,
                step: float) -> tuple[list[CandidateSite], int]:
    """The audit's grid sites, one per distinct covered set, and the number
    of grid points that cover some target.

    Each set is represented by its cheapest grid point, ties going to the
    least x, then the least y.  Rows of the grid are swept in chunks of
    about `_CHUNK_POINTS` points; a later chunk replaces a set's point only
    on a strictly lower weight.  Within a chunk, points are grouped not one
    by one but in runs of one covered set along each x line: sets are found
    among the run keys, and a set's point is the first point at its least
    weight in one of its runs, the least x, then the least y among those.

    Only a few candidate points of each run are weighed.  On one x line the
    offsets `dy = yy - p.y` to a station p are non-decreasing in the row
    (np.arange fills `start + i*delta`, and rounding is monotone), so the
    rows with `|dy| <= L` form one window, found by `searchsorted`.  Let q
    be the run's row of least |dy|, dx the line's offset to p, and D(j) the
    exact sqrt(dx**2 + dy_j**2) of the rounded offsets.  Assume generously
    that `np.hypot` returns D within 2**-48 D + 2**-1022 below overflow
    (glibc's is within one ulp), and take, in floats,
    L = |dy_q| + 2**-21 (|dx| + |dy_q|) + 2**-500, which is at least
    |dy_q| + W with W = 2**-22 D(q) + 2**-501.  A row j of the run outside
    the window then has |dy_j| - |dy_q| > W, so
    D(j)**2 - D(q)**2 >= (|dy_j| - |dy_q|)**2 > W**2 >= 2 D(q) M + M**2
    with M = 3 (2**-48 D(q) + 2**-1022).  Hence D(j) > D(q) + M, and the
    computed distance from j to p is strictly greater than that from q.
    The run's candidates are the union of its windows over the stations:
    every other point is farther from each station p than p's row q, so
    strictly heavier than the lightest candidate, and the run's least
    weight and the first point at it are found among the candidates.
    Far stations widen a window (at 1e6 r several rows round to one
    distance), near ones keep it at a row or two.
    """
    r = instance.r
    txs = np.array([t.x for t in instance.targets])
    tys = np.array([t.y for t in instance.targets])
    x0, x1 = txs.min() - r, txs.max() + r
    y0, y1 = tys.min() - r, tys.max() + r
    # np.arange's own lengths, checked before anything grid-sized exists.
    size = (np.ceil((x1 + step / 2 - x0) / step)
            * np.ceil((y1 + step / 2 - y0) / step))
    if size > _MAX_GRID_POINTS:
        raise ValueError(f"grid of pitch {step} has {size:.3g} points, more "
                         f"than the {_MAX_GRID_POINTS:.3g} the audit sweeps")
    xs = np.arange(x0, x1 + step / 2, step)
    ys = np.arange(y0, y1 + step / 2, step)
    reach = r * (1.0 + COVER_TOL)
    rr = reach * reach

    # A grid point passes `(x - t.x)**2 + (y - t.y)**2 <= rr` only if each
    # rounded square passes on its own, so testing the squares along each
    # axis gives windows that hold every accepted point at any offset.
    windows = []
    for i, t in enumerate(instance.targets):
        wx = np.flatnonzero((xs - t.x) ** 2 <= rr)
        wy = np.flatnonzero((ys - t.y) ** 2 <= rr)
        if wx.size and wy.size:
            windows.append((i, t, wx[0], wx[-1] + 1, wy[0], wy[-1] + 1))

    best_weight: dict[int, float] = {}
    best_pos: dict[int, tuple[float, float]] = {}
    total_pts = 0
    chunk = max(1, _CHUNK_POINTS // max(len(xs), 1))
    for lo in range(0, len(ys), chunk):
        yy = ys[lo:lo + chunk]
        masks = np.zeros((len(xs), len(yy)), dtype=np.int64)
        for i, t, xa, xb, ya, yb in windows:
            ya, yb = max(ya - lo, 0), min(yb - lo, len(yy))
            if ya >= yb:
                continue
            d2 = (xs[xa:xb, None] - t.x) ** 2 + (yy[None, ya:yb] - t.y) ** 2
            masks[xa:xb, ya:yb] |= (d2 <= rr).astype(np.int64) << i
        # Runs of one mask along each x line: a run starts where the mask
        # changes and at the start of every line.
        flat = masks.ravel()
        starts = np.ones(flat.size, dtype=bool)
        np.not_equal(flat[1:], flat[:-1], out=starts[1:])
        starts[::len(yy)] = True
        heads = np.flatnonzero(starts)
        lens = np.diff(heads, append=flat.size)
        keys = flat[heads]
        covering = keys != 0
        heads, lens, keys = heads[covering], lens[covering], keys[covering]
        if not heads.size:
            continue
        total_pts += int(lens.sum())
        line = heads // len(yy)
        first_row = heads - line * len(yy)
        last_row = first_row + lens - 1
        # Each run's candidate window for each station, as flat indices.
        win_lo, win_len = [], []
        for p in instance.stations:
            dy = yy - p.y
            q = np.clip(np.argmin(np.abs(dy)), first_row, last_row)
            near = np.abs(dy[q])
            lim = near + (np.abs(xs[line] - p.x) + near) * 2.0**-21 + 2.0**-500
            a = np.maximum(np.searchsorted(dy, -lim, "left"), first_row)
            b = np.minimum(np.searchsorted(dy, lim, "right"), last_row + 1)
            win_lo.append(heads + (a - first_row))
            win_len.append(b - a)
        win_lo, win_len = np.concatenate(win_lo), np.concatenate(win_len)
        offs = np.cumsum(win_len) - win_len
        # Windows of two stations may overlap; a repeated point is harmless.
        cand = np.sort(np.repeat(win_lo - offs, win_len)
                       + np.arange(int(win_len.sum())))
        gx = xs[cand // len(yy)]
        gy = yy[cand % len(yy)]
        w = np.full(gx.shape, np.inf)
        for p in instance.stations:
            np.minimum(w, np.hypot(gx - p.x, gy - p.y), out=w)
        # Candidates are sorted by flat index, so by run, then by y.
        offs = np.searchsorted(cand, heads)
        counts = np.diff(offs, append=len(cand))
        run_w = np.minimum.reduceat(w, offs)
        sets, group = np.unique(keys, return_inverse=True)
        least = np.full(len(sets), np.inf)
        np.minimum.at(least, group, run_w)
        # In each run that reaches its set's least weight, the first
        # candidate at that weight has the least y on its line.
        runs = np.flatnonzero(run_w == least[group])
        hits = np.array([o + int(np.argmax(w[o:o + n] == v)) for o, n, v
                         in zip(offs[runs], counts[runs], run_w[runs])])
        order = np.lexsort((gy[hits], gx[hits], group[runs]))
        hits, runs = hits[order], runs[order]
        first = np.ones(len(hits), dtype=bool)
        first[1:] = group[runs[1:]] != group[runs[:-1]]
        for gi, ri in zip(hits[first], runs[first]):
            key = int(keys[ri])
            cur = best_weight.get(key)
            if cur is None or w[gi] < cur:
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


@dataclass(frozen=True)
class CensusReport:
    max_per_strip: int
    max_per_square: int
    strip_counts: dict[tuple[int, int, int], int]
    square_counts: dict[tuple[int, int], int]


def strip_sensor_census(instance: Instance, positions: list[Point] | tuple[Point, ...],
                        m: int, shift: int = 0) -> CensusReport:
    """Count placed sensors per strip and per small square.

    Strips are the 2r-wide slices of the shift-`shift` cell tiling for the
    given m.  Squares have side sqrt(1/2) after normalizing the instance so
    r = 1 (i.e. side sqrt(1/2) * r in original units), anchored at the grid
    origin.  The maxima give an empirical ceiling for the per-strip cap.
    """
    g = bounding_box(instance, m)
    side = g.cell_side
    width = 2.0 * g.r
    off_x = g.origin.x + 2.0 * shift * g.r
    off_y = g.origin.y + 2.0 * shift * g.r
    strip_counts: dict[tuple[int, int, int], int] = {}
    for p in positions:
        ix = math.floor((p.x - off_x) / side)
        iy = math.floor((p.y - off_y) / side)
        s = int((p.x - (off_x + ix * side)) // width)
        s = min(max(s, 0), m - 1)
        key = (ix, iy, s + 1)
        strip_counts[key] = strip_counts.get(key, 0) + 1

    sq = math.sqrt(0.5) * g.r
    square_counts: dict[tuple[int, int], int] = {}
    for p in positions:
        key = (math.floor((p.x - g.origin.x) / sq),
               math.floor((p.y - g.origin.y) / sq))
        square_counts[key] = square_counts.get(key, 0) + 1

    return CensusReport(
        max_per_strip=max(strip_counts.values(), default=0),
        max_per_square=max(square_counts.values(), default=0),
        strip_counts=strip_counts,
        square_counts=square_counts)
