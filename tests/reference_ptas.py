"""The solver's layout rebuilt one target at a time, and every cell of
every shift round solved by the strip DP.

`anchored_cells` lays out each component whose bounding box is under one
cell side on both axes in a cell of its own, strips measured from its
least target x with `//` on Python floats.  `every_cell_costs` solves each
such cell, and every cell of every round over all targets, then splits
the round covers by component: the solver runs the rounds only over the
components left over, and takes lone targets' cheapest coverers without a
DP run.  `solve` must report its round costs bit for bit, and its
per-component choice must cost what the cheapest round of each component
here sums to.
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
    """(component, its anchored cell or None) for each component: the cell
    lists the component's targets by strip floor((x - x0) / unit) from its
    least target x, x0, clamped to m strips, when the component's bounding
    box is under one cell side on both axes, as (strip number, ascending
    targets) pairs of its non-empty strips."""
    grid = bounding_box(instance, m)
    out = []
    for group in components(instance.n, sites):
        pts = {t: instance.targets[t] for t in group}
        x0 = min(p.x for p in pts.values())
        y0 = min(p.y for p in pts.values())
        cell = None
        if (max(p.x for p in pts.values()) - x0 < grid.cell_side
                and max(p.y for p in pts.values()) - y0 < grid.cell_side):
            strips = {}
            for t in sorted(group):
                j = min(max(int((pts[t].x - x0) // grid.strip), 0), m - 1)
                strips.setdefault(j, []).append(t)
            cell = sorted(strips.items())
        out.append((group, cell))
    return out


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
        try:
            if cell is not None:
                fixed.update(solve_cell(numbered_strips(cell, sites)).site_indices)
                continue
        except StateBudgetError:
            pass
        groups.append(group)
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
