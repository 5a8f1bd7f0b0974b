"""The solver's layout rebuilt one target at a time, and every cell of
every shift round solved by the strip DP.

`anchored_cells` lays out each component in a cell of its own, strips
measured from its least target x with `//` on Python floats, as many as
its width takes.  `every_cell_costs` solves each such cell, and every
cell of every round over all targets, then splits the round covers by
component: the solver runs the rounds only over the components whose
anchored cell is over the state budget.  `solve` must report its round
costs bit for bit, and its per-component choice must cost what the
cheapest round of each component here sums to.
"""

from conftest import bin_points, layout
from reference_grid import numbered_strips

from sinkcover.grid import bounding_box
from sinkcover.strip_dp import StateBudgetError, solve_cell


def components(target_count, sites):
    """Targets joined when one site covers both, by union-find: a list of
    target sets."""
    parent = list(range(target_count))

    def root(t):
        while parent[t] != t:
            t = parent[t]
        return t

    for s in sites:
        first, *rest = sorted(s.covered) or [None]
        for t in rest:
            a, b = root(first), root(t)
            if a != b:
                parent[max(a, b)] = min(a, b)
    out = {}
    for t in range(target_count):
        out.setdefault(root(t), set()).add(t)
    return list(out.values())


def anchored_cells(instance, m, sites):
    """(component, its anchored cell) for each component: the cell lists
    the component's targets by strip floor((x - x0) / unit) from its
    least target x, x0, as (strip number, ascending targets) pairs of its
    non-empty strips."""
    unit = bounding_box(instance, m).strip
    out = []
    xs = instance.targets[:, 0].tolist()
    for group in components(instance.n, sites):
        x0 = min(xs[t] for t in group)
        strips = {}
        for t in sorted(group):
            strips.setdefault(int((xs[t] - x0) // unit), []).append(t)
        out.append((group, sorted(strips.items())))
    return out


def over_budget(cell, sites):
    """Whether the strip DP needs more than its state budget for `cell`,
    an anchored cell as `anchored_cells` lays it out."""
    try:
        solve_cell(numbered_strips(cell, sites))
    except StateBudgetError:
        return True
    return False


def every_cell_costs(instance, m, sites):
    """(round costs, per-component cost): each round's anchored optima plus
    its union of cell covers of the other components, and the cost of
    taking every component's sites from its cheapest round, the lowest on
    ties.  A component whose anchored cell is over the state budget is
    left to the rounds."""
    grid = bounding_box(instance, m)
    fixed = set()
    groups = []
    for group, cell in anchored_cells(instance, m, sites):
        if over_budget(cell, sites):
            groups.append(group)
        else:
            fixed.update(solve_cell(numbered_strips(cell, sites)).site_indices)
    group_of = {t: c for c, group in enumerate(groups) for t in group}
    best = [None] * len(groups)
    costs = []
    for f in range(m):
        own = [[] for _ in groups]
        for cell in bin_points(grid, instance.targets, f):
            for i in solve_cell(numbered_strips(layout(cell), sites)).site_indices:
                c = group_of.get(min(sites[i].covered))
                if c is not None:
                    own[c].append(i)
        chosen = fixed.union(*own)
        costs.append(sum(sites[i].weight for i in sorted(chosen)))
        for c, ids in enumerate(own):
            cost = sum(sites[i].weight for i in sorted(ids))
            if best[c] is None or cost < best[c][0]:
                best[c] = (cost, ids)
    picked = sorted(fixed.union(*(ids for _, ids in best)))
    return tuple(costs), sum(sites[i].weight for i in picked)
