"""Shifted-grid approximation: solve every shift round cell by cell, then
give each component of the targets its cheapest round.

With m shift rounds the cheapest round costs at most (1 + 4/m) times the
optimum over the candidate-site universe: averaging over rounds, each
optimal site is double-counted by a cell boundary in only a few rounds, so
some round must be close to the optimum.  Targets joined by a common site
form components, and a round's cost is the sum of its costs on them, so
taking each component's cheapest round costs no more (Hochbaum and Maass,
J. ACM 32, 1985):
Σ_C min_f cost_f(C) <= min_f Σ_C cost_f(C) <= (1 + 4/m) OPT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import COVER_TOL, Point, near_pairs, within
from .grid import (bounding_box, cell_keys, cells_for_shift, round_keys,
                   strips_of_cell)
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
        return math.ceil(4.0 / self.epsilon)


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


def _round_cost(site_ids, weight: list[float]) -> float:
    return sum(map(weight.__getitem__, sorted(site_ids)))


def _components(target_count: int, sites: list[CandidateSite]
                ) -> tuple[list[list[int]], list[int]]:
    """Join two targets when one site covers both.  Returns the components'
    targets, ascending, numbered in order of their lowest target, and each
    target's component."""
    parent = list(range(target_count))

    def find(t: int) -> int:
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for s in sites:
        if len(s.covered) > 1:
            it = iter(s.covered)
            root = find(next(it))
            for t in it:
                other = find(t)
                if other != root:
                    parent[other] = root
    label: dict[int, int] = {}
    members: list[list[int]] = []
    of_target = []
    for t in range(target_count):
        c = label.setdefault(find(t), len(members))
        if c == len(members):
            members.append([])
        members[c].append(t)
        of_target.append(c)
    return members, of_target


def solve(instance: Instance, config: PtasConfig,
          sites: list[CandidateSite] | None = None) -> Solution:
    """Solve every shift round, then give each component its cheapest round.

    `sites` may be supplied to reuse a candidate list (it must come from
    `prune_dominated`, or list the rows of `generate_candidate_sites`); by
    default candidates are generated and dominated ones pruned.

    Round f's cost is that of the union of its cells' optimal covers.  No
    site covers targets of two components, so the union splits by component,
    and a component that fits inside one cell of a round costs its own
    optimum there.  Round f keys every target's cell (`cell_keys`), and a
    component fits it when each of its targets has the keys of the
    component's lowest target.  Such a component is solved once, in the
    first round it fits, and reused in the later rounds it fits.  Round f
    covers only the components spanning its cells and those fitting for the
    first time.  It keys their targets once (`round_keys`) and groups them
    by (component, cell).  A target alone in its group takes its cheapest
    coverer, lowest index on ties, with no DP run: inside the cell each of
    its coverers covers it alone.  The DP would pick the same site, unless
    its float sums round two coverer weights to one total; the pick here is
    then the lighter one.  The strip DP runs over the cells of the other
    targets.  The schedule takes each component's sites from its cheapest
    round, lowest on ties, when that costs strictly less than the cheapest
    round; else the cheapest round's sites, which is `shift_round`.  Rounds
    are solved one after another in this process.  The config echo counts
    the components, the (component, round) pairs that span cells, and the
    footprint states stored by the DP runs made.
    """
    if instance.n == 0:
        raise ValueError("nothing to cover")
    if sites is None:
        sites = prune_dominated(generate_candidate_sites(instance))
    m = config.rounds
    grid = bounding_box(instance, m)
    coverers = coverers_by_target(sites)
    weight = [s.weight for s in sites]
    members, target_comp = _components(instance.n, sites)
    comp = np.array(target_comp)
    lead = np.array([ts[0] for ts in members])[comp]   # its component's lowest
    xs = np.array([t.x for t in instance.targets])
    ys = np.array([t.y for t in instance.targets])

    # Solving every component in every round made sparse-400 solve time
    # 50% longer.
    solved: dict[int, frozenset[int]] = {}   # fitting component -> its optimum
    best: list[tuple[float, frozenset[int]] | None] = [None] * len(members)
    rounds: list[frozenset[int]] = []
    subsets = spanning = 0
    for f in range(m):
        kx, ky = cell_keys(grid, xs, ys, f)
        span = np.zeros(len(members), dtype=bool)
        span[comp[(kx != kx[lead]) | (ky != ky[lead])]] = True
        spanning += int(span.sum())
        fit = (~span).tolist()
        run = [c for c, ok in enumerate(fit) if not ok or c not in solved]
        among = [t for c in run for t in members[c]]
        ix, iy, strip = round_keys(grid, xs[among], ys[among], f)
        groups: dict[tuple[int, float, float], list] = {}
        for row in zip(among, ix, iy, strip):
            groups.setdefault((target_comp[row[0]], row[1], row[2]), []).append(row)
        # Running the DP on lone targets too made sparse-400 solve time 23%
        # longer.
        chosen = set()
        rest = []
        for group in groups.values():
            if len(group) > 1:
                rest += group
            elif coverers.get(t := group[0][0]):
                chosen.add(min(coverers[t], key=weight.__getitem__))
            else:
                raise ValueError(f"no candidate site covers target {t}")
        for cell in cells_for_shift(rest):
            try:
                res = solve_cell(strips_of_cell(cell, coverers), sites)
            except StateBudgetError as e:
                raise StateBudgetError(f"shift {f}, cell {cell.index}: {e}") from None
            chosen.update(res.site_indices)
            subsets += res.counters.subsets_enumerated
        parts: dict[int, set[int]] = {c: set() for c in run}
        for s in chosen:
            parts[target_comp[next(iter(sites[s].covered))]].add(s)
        for c in run:
            ids = frozenset(parts[c])
            if fit[c]:
                solved[c] = ids
            cost = _round_cost(ids, weight)
            if best[c] is None or cost < best[c][0]:
                best[c] = (cost, ids)
        rounds.append(frozenset(chosen).union(
            *(solved[c] for c, ok in enumerate(fit) if ok)))

    per_round = tuple(_round_cost(ids, weight) for ids in rounds)
    best_f = min(range(m), key=per_round.__getitem__)
    chosen_sites = frozenset().union(*(ids for _, ids in best))
    total = _round_cost(chosen_sites, weight)
    if not total < per_round[best_f]:
        total, chosen_sites = per_round[best_f], rounds[best_f]

    placements = tuple(
        Placement(sites[i].position, sites[i].origin_station, sites[i].weight)
        for i in sorted(chosen_sites))
    return Solution(total_cost=total, shift_round=best_f,
                    per_round_costs=per_round, placements=placements,
                    config={"epsilon": config.epsilon, "m": m,
                            "counters": {"subsets_enumerated": subsets,
                                         "components": len(members),
                                         "spanning": spanning}})


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
    inside = within(tx[t] - px[p], ty[t] - py[p], reach)
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
