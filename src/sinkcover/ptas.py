"""Shifted-grid approximation: solve each component of the targets
exactly in a cell of its own, and only those past the strip DP's state
budget in every shift round cell by cell, then give each component its
cheapest round.

With m shift rounds the cheapest round costs at most (1 + 4/m) times the
optimum over the candidate-site universe: averaging over rounds, each
optimal site is double-counted by a cell boundary in only a few rounds, so
some round must be close to the optimum.  Targets joined by a common site
form components, and a round's cost is the sum of its costs on them, so
taking each component's cheapest round costs no more (Hochbaum and Maass,
J. ACM 32, 1985):
Σ_C min_f cost_f(C) <= min_f Σ_C cost_f(C) <= (1 + 4/m) OPT.
A component laid out from its own least x in strips one unit wide, as
many as its width takes, has every coverer of its targets in the strip
pools, so the strip DP gives its optimum, no more than any round's cost
on it; counting it at its optimum in every round keeps the bound, and the
shifting only pays for the components the DP cannot hold in one cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import COVER_TOL, Point, near_pairs, within
from .grid import (Strip, anchored_keys, bounding_box, cells_for_shift, round_keys,
                   strips_of_cell)
from .sites import (CandidateTable, Instance, check_cost_range, generate_candidate_sites,
                    prune_dominated, run_heads)
from .strip_dp import StateBudgetError, solve_cell

# Most shift rounds a solve may run, from --m or from m = ceil(4 / epsilon):
# a 1 + 4/1024 guarantee, within 0.4% of the optimum.  The rounds run one
# after another, so an unbounded m (epsilon 1e-300 asks for about 4e300
# rounds) would run until killed.
MAX_ROUNDS = 1024


@dataclass(frozen=True)
class PtasConfig:
    """Solver knobs.  Exactly one of `epsilon` and `m` must be given: a
    positive finite epsilon (not a bool), converted to m = ceil(4 / epsilon),
    or an int m (not a bool).  Either way m is at most MAX_ROUNDS."""

    epsilon: float | None = None
    m: int | None = None

    def __post_init__(self) -> None:
        if (self.epsilon is None) == (self.m is None):
            raise ValueError("exactly one of epsilon and m must be given")
        if self.epsilon is not None:
            if isinstance(self.epsilon, bool) or not (
                    self.epsilon > 0 and math.isfinite(self.epsilon)):
                raise ValueError("epsilon must be positive and finite")
            # ceil(x) > N exactly when x > N; 4 / epsilon may be inf.
            if 4.0 / self.epsilon > MAX_ROUNDS:
                raise ValueError(
                    f"epsilon must be at least 4/{MAX_ROUNDS}: m = ceil(4 / epsilon) "
                    f"is at most MAX_ROUNDS = {MAX_ROUNDS}")
        elif isinstance(self.m, bool) or not isinstance(self.m, int):
            raise ValueError("m must be an int")
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


def placements_of(table: CandidateTable, rows) -> tuple[Placement, ...]:
    """The `Placement`s of the table's given rows, in ascending row order."""
    picked = np.array(sorted(rows), dtype=np.intp)
    return tuple(Placement(Point(x, y), o, w) for x, y, o, w in
                 zip(table.x[picked].tolist(), table.y[picked].tolist(),
                     table.origin[picked].tolist(), table.weight[picked].tolist()))


def _components(target_count: int, covered: list[int], ends: list[int]
                ) -> tuple[np.ndarray, int]:
    """Join two targets when one site covers both, by union-find over each
    site's targets, site s covering `covered[ends[s - 1]:ends[s]]`.
    Returns each target's component, components numbered in order of their
    lowest target, and their count."""
    parent = list(range(target_count))

    def find(t: int) -> int:
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    a = 0
    for b in ends:
        if b - a > 1:
            root = find(covered[a])
            for t in covered[a + 1:b]:
                other = find(t)
                if other != root:
                    parent[other] = root
        a = b
    label: dict[int, int] = {}
    comp = [label.setdefault(find(t), len(label)) for t in range(target_count)]
    return np.array(comp, dtype=np.intp), len(label)


def _layout(strips: list[Strip]) -> tuple[tuple[int, ...], ...]:
    """A cell's targets, strip by strip: all the strip DP reads of a cell
    besides the sites, so two cells with one layout fare alike."""
    return tuple(tuple(st.target_indices) for st in strips)


def solve(instance: Instance, config: PtasConfig,
          sites: CandidateTable | None = None) -> Solution:
    """Solve each component once in a cell of its own, those past the
    state budget in every shift round, then give each component its
    cheapest round.

    `sites` may be supplied to reuse candidates: the table
    `prune_dominated` or `generate_candidate_sites` returns; by default
    candidates are generated and dominated ones pruned.  The solve reads
    the table's columns once, as arrays: its (target, row) cover pairs
    (`pairs`) give each target's cheapest coverer and component and feed
    the cells, and only the chosen rows become `Placement`s.

    No site covers targets of two components, so a cover splits by
    component.  Each component is anchored: laid out in a cell whose
    strips start at its least target x (`anchored_keys`), as many as its
    width takes, where every coverer of its targets lies in the strip
    pools, so one strip DP run gives its optimum, which it costs in every
    round.  A one-target component takes its cheapest coverer, lowest row
    on ties, with no DP run.  A component whose cell needs more than the
    DP's state budget is left to the rounds; a round cell holding the same
    targets strip by strip fails alike, with no second DP run.

    Round f keys the targets of those components once (`round_keys`), and
    the strip DP runs over the cells that hold them.  Anchored cells,
    keyed by component, and round cells, keyed by cell index, are binned
    and numbered alike (`cells_for_shift`).  Round f's cost is that of its
    cells' covers plus the anchored optima.  The schedule takes each
    component's sites from its cheapest round, lowest on ties, when that
    costs strictly less than the cheapest round; else the cheapest round's
    sites, which is `shift_round`.  Rounds are solved one after another in
    this process.  The config echo counts the components, the anchored
    ones, the (component, round) pairs the rounds solve in more than one
    cell, and the footprint states stored by the DP runs made.
    """
    if instance.n == 0:
        raise ValueError("nothing to cover")
    if sites is None:
        sites = prune_dominated(generate_candidate_sites(instance))
    m = config.rounds
    grid = bounding_box(instance, m)
    pairs = sites.pairs()
    covered, row = pairs
    # Each target's cheapest coverer, the lowest row on ties: the least
    # place in the rows' stable order by weight.
    by_weight = sites.weight.argsort(kind="stable")
    place = np.empty(len(sites), dtype=np.intp)
    place[by_weight] = np.arange(len(sites))
    least = np.full(instance.n, len(sites))
    np.minimum.at(least, covered, place[row])
    if least.max() == len(sites):
        raise ValueError(f"no candidate site covers target {least.argmax()}")
    cheapest = by_weight[least]
    check_cost_range(instance.n, float(sites.weight[cheapest].max()))
    comp, comps = _components(instance.n, covered.tolist(),
                              (sites.hi - sites.lo).cumsum().tolist())
    xs = np.array([t.x for t in instance.targets])
    ys = np.array([t.y for t in instance.targets])
    strip = anchored_keys(grid, xs, comp, comps)
    solved = np.bincount(comp, minlength=comps) == 1    # the anchored components
    anchored = set(cheapest[solved[comp]].tolist())
    subsets = 0
    over: dict[tuple, StateBudgetError] = {}   # layouts past the budget
    boxed = (~solved[comp]).nonzero()[0]        # the targets of anchored cells
    for c in cells_for_shift(comp[boxed], np.zeros(len(boxed)), strip[boxed], boxed,
                             pairs, sites.weight, instance.n):
        strips = strips_of_cell(c)
        try:
            res = solve_cell(strips)
        except StateBudgetError as e:
            over[_layout(strips)] = e
            continue
        solved[c.index[0]] = True
        anchored.update(res.site_indices)
        subsets += res.counters.subsets_enumerated

    weight = sites.weight.tolist()
    among = (~solved[comp]).nonzero()[0]
    among_comp = comp[among]
    best: dict[int, tuple[float, frozenset[int]]] = {}   # its cheapest round
    rounds = [anchored] * m     # each round's sites
    spanning = 0
    # With no anchored cell past the budget, every round is the anchored
    # optima; keying empty rounds made a dense-14 solve 1.5 times as long.
    for f in range(m if over else 0):
        ix, iy, strip_f = round_keys(grid, xs[among], ys[among], f)
        order = np.lexsort((iy, ix, among_comp))
        group = run_heads(among_comp[order], ix[order], iy[order]).nonzero()[0]
        spanning += int((np.bincount(among_comp[order[group]]) > 1).sum())
        chosen = set()
        for c in cells_for_shift(ix, iy, strip_f, among, pairs, sites.weight, instance.n):
            strips = strips_of_cell(c)
            try:
                if _layout(strips) in over:
                    raise over[_layout(strips)]
                res = solve_cell(strips)
            except StateBudgetError as e:
                raise StateBudgetError(f"shift {f}, cell {c.index}: {e}") from None
            chosen.update(res.site_indices)
            subsets += res.counters.subsets_enumerated
        # Each site's component is its first target's.
        ids = list(chosen)
        parts: dict[int, list[int]] = {}
        for s, c in zip(ids, comp[sites.members[sites.lo[ids]]].tolist()):
            parts.setdefault(c, []).append(s)
        for c, ids in parts.items():
            cost = _round_cost(ids, weight)
            if c not in best or cost < best[c][0]:
                best[c] = (cost, frozenset(ids))
        rounds[f] = anchored.union(chosen)

    per_round = tuple(_round_cost(ids, weight) for ids in rounds)
    best_f = min(range(m), key=per_round.__getitem__)
    chosen_sites = anchored.union(*(ids for _, ids in best.values()))
    total = _round_cost(chosen_sites, weight)
    if not total < per_round[best_f]:
        total, chosen_sites = per_round[best_f], rounds[best_f]

    return Solution(total_cost=total, shift_round=best_f,
                    per_round_costs=per_round,
                    placements=placements_of(sites, chosen_sites),
                    config={"epsilon": config.epsilon, "m": m,
                            "counters": {"subsets_enumerated": subsets,
                                         "components": comps,
                                         "anchored": int(solved.sum()),
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
    return bool(np.bincount(t[inside], minlength=instance.n).all())


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
