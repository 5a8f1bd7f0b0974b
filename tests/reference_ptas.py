"""Every cell of every shift round, solved by the strip DP.

The solver runs the DP only over the components that span a round's cells
or fit one for the first time, and reuses the rest; this loop solves all
targets in every round.  `solve` must report its round costs bit for bit,
and its per-component choice must cost what the cheapest round of each
component here sums to.
"""

from conftest import bin_points

from sinkcover.grid import bounding_box, strips_of_cell
from sinkcover.sites import coverers_by_target
from sinkcover.strip_dp import solve_cell


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


def every_cell_costs(instance, m, sites):
    """(round costs, per-component cost): each round's union of cell covers,
    and the cost of taking every component's sites from its cheapest round,
    the lowest on ties."""
    grid = bounding_box(instance, m)
    coverers = coverers_by_target(sites)
    groups = components(instance.n, sites)
    group_of = {t: c for c, group in enumerate(groups) for t in group}
    best = [None] * len(groups)
    costs = []
    for f in range(m):
        chosen = set()
        for cell in bin_points(grid, instance.targets, f):
            chosen.update(solve_cell(strips_of_cell(cell, coverers), sites).site_indices)
        costs.append(sum(sites[i].weight for i in sorted(chosen)))
        own = [[] for _ in groups]
        for i in sorted(chosen):
            own[group_of[min(sites[i].covered)]].append(i)
        for c, ids in enumerate(own):
            cost = sum(sites[i].weight for i in ids)
            if best[c] is None or cost < best[c][0]:
                best[c] = (cost, ids)
    picked = sorted(i for _, ids in best for i in ids)
    return tuple(costs), sum(sites[i].weight for i in picked)
