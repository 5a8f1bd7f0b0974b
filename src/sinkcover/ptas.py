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

import numpy as np

from .geometry import COVER_TOL, Point, hypot, near_pairs
from .grid import Grid, bounding_box, cells_for_shift, strips_of_cell
from .sites import (CandidateSite, Instance, coverers_by_target,
                    generate_candidate_sites, prune_dominated)
from .strip_dp import StateBudgetError, solve_cell

# Most shift rounds a solve may run, from --m or from m = ceil(4 / epsilon):
# a 1 + 4/1024 guarantee, within 0.4% of the optimum.  The rounds run one
# after another, so an unbounded m (epsilon 1e-300 asks for about 4e300
# rounds) would run until killed.
MAX_ROUNDS = 1024


@dataclass(frozen=True)
class PtasConfig:
    """Solver knobs.  Exactly one of `epsilon` and `m` must be given;
    epsilon is converted to m = ceil(4 / epsilon).  Either way m is at most
    MAX_ROUNDS."""

    epsilon: float | None = None
    m: int | None = None

    def __post_init__(self) -> None:
        if (self.epsilon is None) == (self.m is None):
            raise ValueError("exactly one of epsilon and m must be given")
        if self.epsilon is not None:
            if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
                raise ValueError("epsilon must be positive and finite")
            # ceil(x) > N exactly when x > N; 4 / epsilon may be inf.
            if 4.0 / self.epsilon > MAX_ROUNDS:
                raise ValueError(
                    f"epsilon must be at least 4/{MAX_ROUNDS}: m = ceil(4 / epsilon) "
                    f"is at most MAX_ROUNDS = {MAX_ROUNDS}")
        elif not 1 <= self.m <= MAX_ROUNDS:
            raise ValueError(f"m must be between 1 and MAX_ROUNDS = {MAX_ROUNDS}")

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
    """A schedule, field for field as a solution file holds it.  `config`
    echoes how it was found; an exact solve has no shift round and no
    per-round costs."""

    total_cost: float
    shift_round: int | None
    per_round_costs: tuple[float, ...]
    placements: tuple[Placement, ...]
    config: dict


def _round_cost(site_ids, sites: list[CandidateSite]) -> float:
    return sum(sites[i].weight for i in sorted(site_ids))


def _solve_round(grid: Grid, targets: tuple[Point, ...], f: int,
                 sites: list[CandidateSite], coverers: dict[int, list[int]]
                 ) -> tuple[float, frozenset[int], int]:
    """Solve every cell of shift round f; returns the round's cost, its
    chosen sites and its footprint states stored."""
    chosen: set[int] = set()
    subsets = 0
    for cell in cells_for_shift(grid, targets, f):
        strips = strips_of_cell(cell, coverers)
        try:
            res = solve_cell(strips, sites)
        except StateBudgetError as e:
            raise StateBudgetError(f"shift {f}, cell {cell.index}: {e}") from None
        chosen |= res.site_indices
        subsets += res.counters.subsets_enumerated
    # Sites selected by two cells are instantiated once; dropping the copy
    # only lowers the round's cost.
    return _round_cost(chosen, sites), frozenset(chosen), subsets


def solve(instance: Instance, config: PtasConfig,
          sites: list[CandidateSite] | None = None) -> Solution:
    """Run all shift rounds and return the cheapest feasible schedule.

    `sites` may be supplied to reuse a candidate list (it must come from
    `prune_dominated`, or list the rows of `generate_candidate_sites`); by
    default candidates are generated and dominated ones pruned.  Rounds are solved one after
    another in this process; ties go to the lowest round.
    """
    if instance.n == 0:
        raise ValueError("nothing to cover")
    if sites is None:
        sites = prune_dominated(generate_candidate_sites(instance))
    m = config.rounds
    grid = bounding_box(instance, m)
    coverers = coverers_by_target(sites)
    results = [_solve_round(grid, instance.targets, f, sites, coverers)
               for f in range(m)]
    per_round = tuple(cost for cost, _, _ in results)
    best_f = min(range(m), key=per_round.__getitem__)
    best_cost, best_sites, _ = results[best_f]

    placements = tuple(
        Placement(sites[i].position, sites[i].origin_station, sites[i].weight)
        for i in sorted(best_sites))
    subsets = sum(n for _, _, n in results)
    return Solution(total_cost=best_cost, shift_round=best_f,
                    per_round_costs=per_round, placements=placements,
                    config={"epsilon": config.epsilon, "m": m,
                            "counters": {"subsets_enumerated": subsets}})


def verify_solution(instance: Instance, placements) -> bool:
    """Independent feasibility re-check: every target within r of a placement.

    Uses no candidate site: each target is tested against the placements
    `near_pairs` finds around it.  A missed neighbour could only reject a
    feasible answer, never pass an infeasible one.  Accepts Placement
    objects, Points, or (x, y) pairs.
    """
    reach = instance.r * (1.0 + COVER_TOL)
    pts = [p.position if isinstance(p, Placement) else
           p if isinstance(p, Point) else Point(float(p[0]), float(p[1]))
           for p in placements]
    px, py = np.array([p.x for p in pts]), np.array([p.y for p in pts])
    tx = np.array([t.x for t in instance.targets])
    ty = np.array([t.y for t in instance.targets])
    t, p = near_pairs(tx, ty, px, py, reach)
    inside = hypot(tx[t] - px[p], ty[t] - py[p]) <= reach
    return len(np.unique(t[inside])) == instance.n


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
