"""Shifted-grid approximation: solve each small component of the targets
exactly in a cell of its own, the others in every shift round cell by
cell, then give each component its cheapest round.

With m shift rounds the cheapest round costs at most (1 + 4/m) times the
optimum over the candidate-site universe: averaging over rounds, each
optimal site is double-counted by a cell boundary in only a few rounds, so
some round must be close to the optimum.  Targets joined by a common site
form components, and a round's cost is the sum of its costs on them, so
taking each component's cheapest round costs no more (Hochbaum and Maass,
J. ACM 32, 1985):
Σ_C min_f cost_f(C) <= min_f Σ_C cost_f(C) <= (1 + 4/m) OPT.
A component narrower than a cell side on both axes fits one cell laid out
from its own corner, where the strip DP gives its optimum, no more than
any round's cost on it; so counting it at its optimum in every round keeps
the bound and the shifting only pays for the components that some cell
boundary must cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import COVER_TOL, Point, near_pairs, within
from .grid import (Cell, anchored_keys, bounding_box, cells_for_shift,
                   round_keys, strips_of_cell)
from .sites import (CandidateSite, CandidateTable, Instance,
                    generate_candidate_sites, prune_dominated)
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


def _columns(sites: CandidateTable
             ) -> tuple[list[float], list[list[int]], dict[int, list[int]]]:
    """Each site's weight and ascending covered targets, read off the
    table's columns, and each covered target's ascending coverers."""
    flat, ends = (a.tolist() for a in sites.entries())
    covers = [flat[a:b] for a, b in zip([0] + ends[:-1], ends)]
    coverers: dict[int, list[int]] = {}
    for j, cov in enumerate(covers):
        for t in cov:
            coverers.setdefault(t, []).append(j)
    return sites.weight.tolist(), covers, coverers


def _components(target_count: int, covers: list[list[int]]
                ) -> tuple[list[list[int]], list[int]]:
    """Join two targets when one site covers both (`covers[s]` holds site
    s's targets).  Returns the components' targets, ascending, numbered in
    order of their lowest target, and each target's component."""
    parent = list(range(target_count))

    def find(t: int) -> int:
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for cov in covers:
        if len(cov) > 1:
            root = find(cov[0])
            for t in cov[1:]:
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


def _layout(cell: Cell) -> tuple[tuple[int, ...], ...]:
    """A cell's targets, strip by strip: all the strip DP reads of a cell
    besides the sites, so two cells with one layout fare alike."""
    return tuple(map(tuple, (ts for _, ts in cell.strips)))


def solve(instance: Instance, config: PtasConfig,
          sites: CandidateTable | list[CandidateSite] | None = None) -> Solution:
    """Solve each small component once in a cell of its own, the rest in
    every shift round, then give each component its cheapest round.

    `sites` may be supplied to reuse candidates: the table
    `prune_dominated` returns, or a list of its sites or of the rows of
    `generate_candidate_sites`; by default candidates are generated and
    dominated ones pruned.  The solve reads the table's columns: site
    weights and covered targets, each target's coverers and the components
    come from them, and only the chosen rows become `Placement`s.

    No site covers targets of two components, so a cover splits by
    component.  A component whose bounding box is under one cell side on
    both axes is anchored: laid out in a cell whose strips start at its
    least target x (`anchored_keys`), where every coverer of its targets
    lies in the strip pools, so one strip DP run gives its optimum, which
    it costs in every round.  A one-target component takes its cheapest
    coverer, lowest index on ties, with no DP run.  A component whose cell
    needs more than the DP's state budget joins the components too wide
    for a cell, which span cells in every round; a round cell holding the
    same targets strip by strip fails alike, with no second DP run.

    Round f keys the targets of those components once (`round_keys`) and
    groups them by (component, cell).  A target alone in its group takes
    its cheapest coverer the same way: inside the cell each of its
    coverers covers it alone.  The DP would pick the same site, unless its
    float sums round two coverer weights to one total; the pick here is
    then the lighter one.  The strip DP runs over the cells of the other
    targets.  Round f's cost is that of its cells' covers plus the anchored
    optima.  The schedule takes each component's sites from its cheapest
    round, lowest on ties, when that costs strictly less than the cheapest
    round; else the cheapest round's sites, which is `shift_round`.  Rounds
    are solved one after another in this process.  The config echo counts
    the components, the anchored ones, the (component, round) pairs the
    rounds solve in more than one cell, and the footprint states stored by
    the DP runs made.
    """
    if instance.n == 0:
        raise ValueError("nothing to cover")
    if sites is None:
        sites = prune_dominated(generate_candidate_sites(instance))
    elif not isinstance(sites, CandidateTable):
        sites = CandidateTable.from_sites(sites)
    m = config.rounds
    grid = bounding_box(instance, m)
    weight, covers, coverers = _columns(sites)
    members, target_comp = _components(instance.n, covers)
    xs = np.array([t.x for t in instance.targets])
    ys = np.array([t.y for t in instance.targets])
    fits, strip = anchored_keys(grid, xs, ys, np.array(target_comp), len(members))

    def cheapest(t: int) -> int:
        if not coverers.get(t):
            raise ValueError(f"no candidate site covers target {t}")
        return min(coverers[t], key=weight.__getitem__)

    optimum: dict[int, frozenset[int]] = {}   # anchored component -> its sites
    rows = []
    for c, ts in enumerate(members):
        if fits[c] and len(ts) == 1:
            optimum[c] = frozenset((cheapest(ts[0]),))
        elif fits[c]:
            rows += [(t, c, 0.0, strip[t]) for t in ts]
    subsets = 0
    over: dict[tuple, StateBudgetError] = {}   # layouts past the budget
    for cell in cells_for_shift(rows):
        try:
            res = solve_cell(strips_of_cell(cell, coverers), weight, covers)
        except StateBudgetError as e:
            over[_layout(cell)] = e
            continue
        optimum[cell.index[0]] = frozenset(res.site_indices)
        subsets += res.counters.subsets_enumerated

    anchored = frozenset().union(*optimum.values())
    among = [t for c, ts in enumerate(members) if c not in optimum for t in ts]
    best: dict[int, tuple[float, frozenset[int]]] = {}   # its cheapest round
    rounds = [anchored] * m     # each round's sites
    spanning = 0
    # With no component left, every round is the anchored optima; keying
    # empty rounds made a dense-14 solve about 1.5 times as long.
    for f in range(m if among else 0):
        ix, iy, strip_f = round_keys(grid, xs[among], ys[among], f)
        groups: dict[tuple[int, float, float], list] = {}
        for row in zip(among, ix, iy, strip_f):
            groups.setdefault((target_comp[row[0]], row[1], row[2]), []).append(row)
        # Running the DP on lone targets too made sparse-400 solve time 23%
        # longer.
        chosen = set()
        rest = []
        for group in groups.values():
            if len(group) > 1:
                rest += group
            else:
                chosen.add(cheapest(group[0][0]))
        for cell in cells_for_shift(rest):
            try:
                if over and _layout(cell) in over:
                    raise over[_layout(cell)]
                res = solve_cell(strips_of_cell(cell, coverers), weight, covers)
            except StateBudgetError as e:
                raise StateBudgetError(f"shift {f}, cell {cell.index}: {e}") from None
            chosen.update(res.site_indices)
            subsets += res.counters.subsets_enumerated
        cells: dict[int, int] = {}   # component -> its cells this round
        for c, _, _ in groups:
            cells[c] = cells.get(c, 0) + 1
        spanning += sum(n > 1 for n in cells.values())
        parts: dict[int, set[int]] = {c: set() for c in cells}
        for s in chosen:
            parts[target_comp[covers[s][0]]].add(s)
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

    picked = sorted(chosen_sites)
    chosen_rows = np.array(picked, dtype=np.intp)
    placements = tuple(
        Placement(Point(x, y), o, weight[i]) for i, x, y, o in
        zip(picked, sites.x[chosen_rows].tolist(), sites.y[chosen_rows].tolist(),
            sites.origin[chosen_rows].tolist()))
    return Solution(total_cost=total, shift_round=best_f,
                    per_round_costs=per_round, placements=placements,
                    config={"epsilon": config.epsilon, "m": m,
                            "counters": {"subsets_enumerated": subsets,
                                         "components": len(members),
                                         "anchored": len(optimum),
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
