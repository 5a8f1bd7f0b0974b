"""Desk-scale ground truth.

Exact minimum-cost cover by branch and bound, a greedy baseline, a
continuous-refinement audit that stress-tests the candidate-site
discretization, and sensor-density censuses over strips and small squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import COVER_TOL, Point
from .sites import CandidateSite, Instance, site_weight
from .grid import bounding_box, cells_for_shift, strips_of_cell

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
    origin.  The maxima measure the paper's density lemma (an optimum has
    O(m) sensors per strip), which the strip DP does not enforce.
    """
    # The tiling of the instance, binning the sensors in place of its targets.
    g = replace(bounding_box(instance, m), targets=tuple(positions))
    strip_counts: dict[tuple[int, int, int], int] = {}
    for cell in cells_for_shift(g, shift):
        for strip in strips_of_cell(cell, {}):
            if strip.target_indices:
                strip_counts[(*cell.index, strip.index)] = len(strip.target_indices)

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
