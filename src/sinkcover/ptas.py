"""Shifted-grid approximation: solve every shift round cell by cell, keep the
cheapest round.

With m shift rounds the returned cost is at most (1 + 4/m) times the optimum
over the candidate-site universe: averaging over rounds, each optimal site is
double-counted by a cell boundary in only a few rounds, so some round must be
close to the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import COVER_TOL, NearGrid, Point, dist
from .grid import Grid, bounding_box, cells_for_shift, strips_of_cell
from .sites import (CandidateSite, Instance, coverers_by_target,
                    generate_candidate_sites, prune_dominated)
from .strip_dp import CellInfeasible, DpCounters, auto_cap, solve_cell


class CapInfeasibleError(Exception):
    """A cell could not be solved within the configured subset cap."""

    def __init__(self, shift_round: int, cell_index: tuple[int, int],
                 strip_index: int, cap: int):
        self.shift_round = shift_round
        self.cell_index = cell_index
        self.strip_index = strip_index
        self.cap = cap
        super().__init__(
            f"infeasible at shift {shift_round}, cell {cell_index}, "
            f"strip {strip_index} with cap {cap}")


@dataclass(frozen=True)
class PtasConfig:
    """Solver knobs.  Exactly one of `epsilon` and `m` must be given;
    epsilon is converted to m = ceil(4 / epsilon)."""

    epsilon: float | None = None
    m: int | None = None
    cap: int | str = "auto"     # "auto" | fixed integer

    def __post_init__(self) -> None:
        if (self.epsilon is None) == (self.m is None):
            raise ValueError("exactly one of epsilon and m must be given")
        if self.epsilon is not None and not (
                self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be positive and finite")
        if self.m is not None and self.m < 1:
            raise ValueError("m must be at least 1")
        if isinstance(self.cap, str):
            if self.cap != "auto":
                raise ValueError(f"unknown cap policy {self.cap!r}")
        elif self.cap < 1:
            raise ValueError("fixed cap must be at least 1")

    @property
    def rounds(self) -> int:
        if self.m is not None:
            return self.m
        return max(1, math.ceil(4.0 / self.epsilon))


@dataclass(frozen=True)
class Placement:
    position: Point
    station: int
    weight: float


@dataclass(frozen=True)
class Solution:
    placements: tuple[Placement, ...]
    total_cost: float
    shift_round_used: int
    per_round_costs: tuple[float, ...]
    m: int
    cap_used: int
    counters: dict[str, int]


def _round_cost(site_ids, sites: list[CandidateSite]) -> float:
    return sum(sites[i].weight for i in sorted(site_ids))


def _solve_round(grid: Grid, f: int, sites: list[CandidateSite],
                 coverers: dict[int, list[int]], cap: int,
                 escalate: bool) -> tuple[float, frozenset[int], DpCounters]:
    """Solve every cell of shift round f; returns the round's cost, its
    chosen sites and its DP counters."""
    chosen: set[int] = set()
    counters = DpCounters()
    for cell in cells_for_shift(grid, f):
        strips = strips_of_cell(cell, coverers)
        cap_eff = cap
        res = solve_cell(strips, sites, cap_eff)
        if escalate:
            pool_max = max((len(st.site_pool) for st in strips), default=1)
            while isinstance(res, CellInfeasible) and cap_eff < pool_max:
                cap_eff = min(2 * cap_eff, pool_max)
                res = solve_cell(strips, sites, cap_eff)
        if isinstance(res, CellInfeasible):
            raise CapInfeasibleError(f, cell.index, res.strip_index, cap_eff)
        chosen |= res.site_indices
        counters.merge(res.counters)
    # Sites selected by two cells are instantiated once; dropping the copy
    # only lowers the round's cost.
    return _round_cost(chosen, sites), frozenset(chosen), counters


def solve(instance: Instance, config: PtasConfig,
          sites: list[CandidateSite] | None = None) -> Solution:
    """Run all shift rounds and return the cheapest feasible schedule.

    `sites` may be supplied to reuse a candidate list (it must come from
    `generate_candidate_sites`, optionally pruned); by default candidates
    are generated and dominated ones pruned.  Rounds are solved one after
    another in this process; ties go to the lowest round.
    """
    if instance.n == 0:
        raise ValueError("nothing to cover")
    if sites is None:
        sites = prune_dominated(generate_candidate_sites(instance))
    m = config.rounds
    grid = bounding_box(instance, m)
    escalate = config.cap == "auto"
    cap = auto_cap(m, instance.k) if escalate else config.cap

    coverers = coverers_by_target(sites)
    results = [_solve_round(grid, f, sites, coverers, cap, escalate)
               for f in range(m)]
    per_round = tuple(cost for cost, _, _ in results)
    best_f = min(range(m), key=per_round.__getitem__)
    best_cost, best_sites, _ = results[best_f]

    counters = DpCounters()
    for _, _, c in results:
        counters.merge(c)

    placements = tuple(
        Placement(sites[i].position, sites[i].origin_station, sites[i].weight)
        for i in sorted(best_sites))
    return Solution(placements=placements,
                    total_cost=best_cost,
                    shift_round_used=best_f,
                    per_round_costs=per_round,
                    m=m,
                    cap_used=cap,
                    counters={"subsets_enumerated": counters.subsets_enumerated})


def verify_solution(instance: Instance, placements) -> bool:
    """Independent feasibility re-check: every target within r of a placement.

    Uses no candidate site: each target is tested against the placements in
    the buckets around it.  Accepts Placement objects, Points, or (x, y)
    pairs.
    """
    reach = instance.r * (1.0 + COVER_TOL)
    pts = []
    for p in placements:
        if isinstance(p, Placement):
            pts.append(p.position)
        elif isinstance(p, Point):
            pts.append(p)
        else:
            pts.append(Point(float(p[0]), float(p[1])))
    index = NearGrid(pts, reach)
    return all(any(dist(t, pts[i]) <= reach for i in index.near(t))
               for t in instance.targets)


@dataclass(frozen=True)
class ShiftAuditReport:
    m: int
    average: float
    minimum: float
    optimum: float
    bound: float            # (1 + 4/m) * optimum
    average_within_bound: bool
    minimum_below_average: bool
    margin: float           # bound - average

    @property
    def ok(self) -> bool:
        return self.average_within_bound and self.minimum_below_average


def shift_average_audit(per_round_costs, opt: float) -> ShiftAuditReport:
    """Check the averaging argument behind the shifting guarantee.

    The mean round cost must stay below (1 + 4/m) times the optimum, and the
    selected (minimum) round can only do better than the mean.
    """
    costs = list(per_round_costs)
    if not costs:
        raise ValueError("no round costs")
    m = len(costs)
    avg = sum(costs) / m
    mn = min(costs)
    bound = (1.0 + 4.0 / m) * opt
    tol = 1e-9 * max(1.0, abs(bound))
    return ShiftAuditReport(m=m, average=avg, minimum=mn, optimum=opt,
                            bound=bound,
                            average_within_bound=avg <= bound + tol,
                            minimum_below_average=mn <= avg + tol,
                            margin=bound - avg)
