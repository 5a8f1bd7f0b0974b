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

from .geometry import COVER_TOL
from .sites import CandidateSite, Instance, coverers_by_target

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

    by_target = coverers_by_target(sites)
    coverers = [sorted(by_target.get(t, ()), key=lambda si: (sites[si].weight, si))
                for t in range(target_count)]
    for t, cs in enumerate(coverers):
        if not cs:
            return OracleResult(INF, frozenset(), 0, False,
                                feasible=False, infeasible_target=t)
    cheapest = [sites[cs[0]].weight for cs in coverers]

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
    cost = sum((sites[si].weight for si in sorted(chosen)), 0.0)
    return OracleResult(cost, frozenset(chosen), steps, False)


@dataclass(frozen=True)
class GridRefineReport:
    """The discretization audit's outcome; it passes when `undominated` is 0."""

    step: float
    grid_candidate_points: int
    distinct_cover_sets: int
    undominated: int           # sets no candidate covers at no more weight
    worst_excess: float        # max over sets of (least superset weight - w)


def grid_refine_audit(instance: Instance, sites: list[CandidateSite],
                      step: float) -> GridRefineReport:
    """Check the candidate sites against a grid of placements, set by set.

    The grid has pitch `step` over the targets' bounding box grown by r.
    For every set S that some grid point covers exactly, with w the least
    weight of such a point, some site must cover a superset of S at weight
    at most w.  Sound candidate classes ensure it: the points covering S
    are an intersection of disks, whose point nearest a station is the
    station, a projection onto one circle, or a vertex of two circles.  So
    no cover by grid points beats the optimum over `sites`, and no exact
    solve is needed.  Every superset of S holds S's lowest target, so only
    that target's coverers are tried.

    The tolerance is r * COVER_TOL plus a few ulps of w.  The grid tests
    coverage at reach r(1 + COVER_TOL), while projections and vertices sit
    on radius-r circles, so a grid point just past a circle can lie up to
    r * COVER_TOL nearer a station than the projection on it; and site
    weights come from `math.hypot`, grid weights from `np.hypot`.  Input
    that `check_grid_audit` refuses raises ValueError.
    """
    sets, least, points = _grid_sets(instance, step)
    masks = _target_masks(instance.n, sites)
    coverers = coverers_by_target(sites)
    undominated, worst = 0, -INF
    for s, w in zip(sets.tolist(), least.tolist()):
        low = (s & -s).bit_length() - 1
        excess = min((sites[j].weight - w for j in coverers.get(low, ())
                      if masks[j] & s == s), default=INF)
        undominated += excess > instance.r * COVER_TOL + 4.0 * math.ulp(w)
        worst = max(worst, excess)
    return GridRefineReport(step=step, grid_candidate_points=points,
                            distinct_cover_sets=len(sets),
                            undominated=undominated, worst_excess=worst)


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


def _grid_sets(instance: Instance, step: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Each distinct covered set of the audit's grid as an int64 bit mask,
    ascending, the least weight of a grid point covering exactly that set,
    and the number of grid points that cover some target.

    A grid point covers target t when `(x - t.x)**2 + (y - t.y)**2 <= rr`
    in floats.  The sum is at least its x term, so t reaches one interval
    of x lines, where `(x - t.x)**2 <= rr`; and on one of those lines t
    covers one interval of rows (`_covered`).  Each interval's ends come
    from `_first_true`, started at the closed-form root `t.y -+ sqrt(rr -
    dx**2)` but settled by the float test itself, so the ends are exact
    whatever the roots' rounding.  Each line is cut at the interval ends
    into runs of one covered set.

    The offsets `ys - p.y` to a station p are non-decreasing in the row
    too, so in a run |dy| is least at the line's row of least |dy| clamped
    into the run, and so is `np.hypot` (monotone where correctly rounded):
    each station is weighed at one row per run.
    """
    x0, x1, y0, y1 = check_grid_audit(instance, step)
    txs = np.array([t.x for t in instance.targets])
    tys = np.array([t.y for t in instance.targets])
    xs = np.arange(x0, x1 + step / 2, step)
    ys = np.arange(y0, y1 + step / 2, step)
    ny = len(ys)
    reach = instance.r * (1.0 + COVER_TOL)
    rr = reach * reach

    # One (target, line) pair for each line a target reaches, target by
    # target.  With d2 = 0.0 the test is `(x - t.x)**2 <= rr` bit for bit.
    left, right = _covered(xs, txs, np.searchsorted(xs, txs), 0.0, rr)
    counts = right - left
    tix = np.repeat(np.arange(instance.n), counts)
    block = np.cumsum(counts) - counts          # each target's first pair
    lines = np.arange(counts.sum()) + np.repeat(left - block, counts)
    first, end = _covered(ys, tys[tix], np.searchsorted(ys, tys)[tix],
                          (xs[lines] - txs[tix]) ** 2, rr)
    # Each interval's ends as flat grid indices, ordered by (line, row).
    # Every interval closes on its own line, so the running xor of the
    # bits is each run's covered set, and 0 between lines.  Each target's
    # starts, then its ends, already ascend: a stable sort merges the runs.
    hit = first < end
    pos = np.concatenate((lines[hit] * ny + first[hit],
                          lines[hit] * ny + end[hit]))
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    acc = np.bitwise_xor.accumulate(np.tile(1 << tix[hit], 2)[order])
    last = np.diff(pos, append=-1) != 0
    heads, keys = pos[last], acc[last]
    lens = np.diff(heads, append=heads[-1:])
    covering = keys != 0
    heads, lens, keys = heads[covering], lens[covering], keys[covering]
    line, first_row = np.divmod(heads, ny)

    w = np.full(len(heads), np.inf)
    for p in instance.stations:
        q = np.clip(np.argmin(np.abs(ys - p.y)), first_row, first_row + lens - 1)
        np.minimum(w, np.hypot(xs[line] - p.x, ys[q] - p.y), out=w)
    # Each set's least weight; a minimum does not depend on the order.
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=0))
    return keys[starts], np.minimum.reduceat(w[order], starts), int(lens.sum())


def _covered(axis: np.ndarray, c: np.ndarray, split: np.ndarray, d2,
             rr: float) -> tuple[np.ndarray, np.ndarray]:
    """For each i, the indices [first[i], end[i]) of the ascending `axis`
    where `d2[i] + (axis[j] - c[i])**2 <= rr`, with d2 >= 0; `split` is
    `np.searchsorted(axis, c)`.

    np.arange fills `start + i*delta`, and rounding is monotone, so the
    offsets `axis - c` are non-decreasing in j: negative below the split,
    non-negative from it on.  The rounded sum then falls and rises, so the
    test is false, then true below the split and true, then false from it
    on: one interval.  Each end is found by `_first_true` on its side of
    the split, guessed at the row of the root `c -+ sqrt(rr - d2)`.
    """
    def covers(j):
        return d2 + (axis[j] - c) ** 2 <= rr

    half = np.sqrt(np.maximum(rr - d2, 0.0))
    first = _first_true(covers, np.zeros_like(split), split,
                        np.searchsorted(axis, c - half))
    end = _first_true(lambda j: ~covers(j), split, np.full_like(split, len(axis)),
                      np.searchsorted(axis, c + half, side="right"))
    return first, end


def _first_true(test, lo: np.ndarray, hi: np.ndarray, guess: np.ndarray) -> np.ndarray:
    """Elementwise search: for each i, the least j in [lo[i], hi[i]) with
    test(j)[i], or hi[i] if there is none.  test(j) gives one bool per
    element for an index array j, and must be false, then true, on each
    range; an element with nothing to test is asked at index 0.

    The search starts from the bracket [guess - 1, guess + 1] clipped into
    the range.  Since the test is monotone on the range, two tests prove
    that the answer lies in the bracket: false just below it (or it starts
    at lo) and true at its top (or it ends at hi).  Where both hold the
    range shrinks to the bracket, settled in at most two more tests; every
    other element keeps its whole range.  The binary search over those
    ranges is exact, so the answer does not depend on the guess.
    """
    b0, b1 = np.clip(guess - 1, lo, hi), np.clip(guess + 1, lo, hi)
    inside = (((b0 == lo) | ~test(np.where(b0 > lo, b0 - 1, 0)))
              & ((b1 == hi) | test(np.where(b1 < hi, b1, 0))))
    lo, hi = np.where(inside, b0, lo), np.where(inside, b1, hi)
    while (live := lo < hi).any():
        mid = np.where(live, (lo + hi) // 2, 0)
        ok = test(mid)
        hi = np.where(live & ok, mid, hi)
        lo = np.where(live & ~ok, mid + 1, lo)
    return lo
