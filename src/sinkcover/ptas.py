"""Shifted-grid approximation: solve each component of the targets
exactly in a cell of its own, and each one past the strip DP's state
budget alone in every shift round, cell by cell, then give each
component its cheapest round.

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
shifting, as the bound holds per component, only pays for the components
the DP cannot hold in one cell, each one shifted alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import COVER_TOL, near_pairs, within
from .grid import (Strip, anchored_keys, bounding_box, cells_for_shift, round_keys,
                   strips_of_cell)
from .sites import (CandidateTable, Instance, check_cost_range, generate_candidate_sites,
                    prune_dominated)
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
class Placements:
    """A schedule's sensors as four parallel columns: sensor i sits at
    (x[i], y[i]), moved there from station `station[i]` over `weight[i]`.
    The columns are tuples of Python scalars, each as a solution file
    gives it, so a written file shows every value as json writes it."""

    x: tuple[float, ...]
    y: tuple[float, ...]
    station: tuple[int, ...]
    weight: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class Solution:
    """A schedule, field for field as a solution file holds it, its
    sensors as `Placements` columns.  `config` echoes how it was found; an
    exact solve has no shift round and no per-round costs."""

    total_cost: float
    shift_round: int | None
    per_round_costs: tuple[float, ...]
    placements: Placements
    config: dict


def _round_cost(site_ids, weight: list[float]) -> float:
    return sum(map(weight.__getitem__, sorted(site_ids)))


def placements_of(table: CandidateTable, rows) -> Placements:
    """The table's given rows as `Placements`, in ascending row order."""
    picked = np.fromiter(rows, dtype=np.intp, count=len(rows))
    picked.sort()
    return Placements(*(tuple(column[picked].tolist()) for column in
                        (table.x, table.y, table.origin, table.weight)))


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
    """Solve each component once in a cell of its own, each one past the
    state budget alone in every shift round, then give each component its
    cheapest round.

    `sites` may be supplied to reuse candidates: the table
    `prune_dominated` or `generate_candidate_sites` returns; by default
    candidates are generated and dominated ones pruned.  The solve reads
    the table's columns once, as arrays: its (target, row) cover pairs
    (`pairs`) give each target's cheapest coverer and component and feed
    the cells, and the chosen rows are cut from it as `Placements`.

    No site covers targets of two components, so a cover splits by
    component.  Each component is anchored: laid out in a cell whose
    strips start at its least target x (`anchored_keys`), as many as its
    width takes, where every coverer of its targets lies in the strip
    pools, so one strip DP run gives its optimum, which it costs in every
    round.  A one-target component takes its cheapest coverer, lowest row
    on ties, with no DP run.  A component whose cell needs more than the
    DP's state budget is left to the rounds; a round cell holding the same
    targets strip by strip fails alike, with no second DP run.

    Each component left to the rounds is solved alone in each round f:
    `round_keys` keys its targets, and the strip DP runs over the cells
    holding them, binned and numbered as the anchored cells are
    (`cells_for_shift`), keyed by cell index, not by component.  It keeps
    its cheapest round's cover, lowest on ties.  Round f costs the
    anchored optima plus those components' round-f covers.  The schedule
    takes each one's cheapest round when that costs strictly less than
    the cheapest round; else the cheapest round's sites, `shift_round`.
    Rounds are solved one after another in this process.  The config echo
    counts the components, the anchored ones, the (component, round)
    pairs cut into more than one cell, and the DP runs' footprint states.
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
    xs, ys = instance.targets.T.copy()
    strip = anchored_keys(grid, xs, comp, comps)
    size = np.bincount(comp, minlength=comps)
    solved = size == 1      # the anchored components
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
    chosen_sites = set(anchored)    # and each other component's cheapest round
    rounds = [set() for _ in range(m)]  # each round's covers of the other components
    spanning = 0
    by_comp = comp.argsort(kind="stable")
    ends = size.cumsum()
    for k in (~solved).nonzero()[0].tolist():
        among = by_comp[ends[k] - size[k]:ends[k]]
        covers = []     # its cover in each round
        for f in range(m):
            ix, iy, strip_f = round_keys(grid, xs[among], ys[among], f)
            cells = cells_for_shift(ix, iy, strip_f, among, pairs, sites.weight, instance.n)
            spanning += len(cells) > 1
            cover = set()
            for c in cells:
                strips = strips_of_cell(c)
                try:
                    if _layout(strips) in over:
                        raise over[_layout(strips)]
                    res = solve_cell(strips)
                except StateBudgetError as e:
                    raise StateBudgetError(f"shift {f}, cell {c.index}: {e}") from None
                cover.update(res.site_indices)
                subsets += res.counters.subsets_enumerated
            rounds[f].update(cover)
            covers.append(cover)
        # Its cheapest round, the lowest on ties.
        chosen_sites.update(min(covers, key=lambda ids: _round_cost(ids, weight)))

    total = _round_cost(chosen_sites, weight)
    # With every component anchored, every round is the anchored optima.
    per_round = (tuple(_round_cost(anchored.union(ids), weight) for ids in rounds)
                 if over else (total,) * m)
    best_f = min(range(m), key=per_round.__getitem__)
    if not total < per_round[best_f]:
        total, chosen_sites = per_round[best_f], anchored.union(rounds[best_f])

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
    feasible answer, never pass an infeasible one.  Takes `Placements`, or
    the sensors' positions as a sequence of (x, y) pairs.
    """
    reach = instance.r * (1.0 + COVER_TOL)
    if isinstance(placements, Placements):
        px, py = np.array(placements.x, dtype=float), np.array(placements.y, dtype=float)
    else:
        px, py = np.array(placements, dtype=float).reshape(-1, 2).T
    tx, ty = instance.targets.T.copy()
    t, p = near_pairs(tx, ty, px, py, reach)
    inside = within(tx[t] - px[p], ty[t] - py[p], reach)
    return bool(np.bincount(t[inside], minlength=instance.n).all())


@dataclass(frozen=True)
class ShiftAuditReport:
    m: int
    average: float
    minimum: float
    bound: float            # (1 + 4/m) * optimum
    ok: bool                # average <= bound + 1e-9 * max(1, |bound|)


def shift_average_audit(per_round_costs, opt: float) -> ShiftAuditReport:
    """Check the averaging argument behind the shifting guarantee: the mean
    round cost must stay below (1 + 4/m) times the optimum.  The selected
    (minimum) round can only do better than the mean.
    """
    costs = list(per_round_costs)
    if not costs:
        raise ValueError("no round costs")
    m = len(costs)
    avg = sum(costs) / m
    bound = (1.0 + 4.0 / m) * opt
    return ShiftAuditReport(m=m, average=avg, minimum=min(costs), bound=bound,
                            ok=avg <= bound + 1e-9 * max(1.0, abs(bound)))
