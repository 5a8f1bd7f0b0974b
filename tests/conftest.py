import numpy as np
from hypothesis import settings

from sinkcover.grid import bounding_box, cells_for_shift, round_keys, strips_of_cell
from sinkcover.sites import Instance, coverers_by_target

settings.register_profile("ci", derandomize=True, max_examples=60)
settings.load_profile("ci")


def bin_points(grid, points, f, among=None):
    """Round f's cells of a point list, as the solver bins its targets:
    `round_keys` keys the points, by default all, and `cells_for_shift`
    bins them; a cell names each point by its index in `points`."""
    among = range(len(points)) if among is None else among
    xs = np.array([points[i].x for i in among], dtype=float)
    ys = np.array([points[i].y for i in among], dtype=float)
    return cells_for_shift(zip(among, *round_keys(grid, xs, ys, f)))


def site_columns(sites):
    """The site weights and covered targets `solve_cell` reads, from a
    list of sites."""
    return [s.weight for s in sites], [s.covered for s in sites]


def footprint_state_bound(strips):
    """Most footprint states the strip DP can store for one cell, given
    its non-empty strips.

    The footprint after strip i is a subset of the pool shared with strip
    i+1, the next non-empty one, and the table keeps one per coverage of
    T_i and T_{i+1}, so strip i stores at most
    min(2^(|T_i| + |T_{i+1}|), 2^|shared pool|) of them.
    """
    total = 0
    for i, st in enumerate(strips):
        nxt = strips[i + 1] if i + 1 < len(strips) else None
        shared = set(st.site_pool) & set(nxt.site_pool) if nxt else set()
        targets = len(st.target_indices) + (len(nxt.target_indices) if nxt else 0)
        total += 1 << min(targets, len(shared))
    return total


def solve_state_bound(instance, solution, sites):
    """`footprint_state_bound` summed over the cells a solve that used
    `sites` hands the strip DP: the anchored cell of each component that
    has one, and each cell of each shift round holding targets of one of
    the other components."""
    from reference_ptas import anchored_cells

    m = len(solution.per_round_costs)
    grid = bounding_box(instance, m)
    coverers = coverers_by_target(sites)
    total = 0
    for group, cell in anchored_cells(instance, m, sites):
        cells = [cell] if cell is not None else [
            c for f in range(m) for c in bin_points(grid, instance.targets, f, sorted(group))]
        total += sum(footprint_state_bound(strips_of_cell(c, coverers)) for c in cells)
    return total


def straddle_instance(m, j, delta, eps, two_r_lines=True, offset=0.0):
    """Targets A, C and B on y = 5 that one site covers, with A = L - delta
    just below a vertical line L, B = A + 2(1 + eps) and C midway, plus
    target (0, 0) and station (0, -3) at r = 1; every point is translated
    by (offset, offset).

    With `two_r_lines`, L = 2j - pad is line j of round 0 of a tiling in
    units of exactly 2r, whose anchor sits the pad 1e-9 of a cell below the
    least target coordinate: there A, C and B span three strips once B
    passes L + 2.  Else L is line j of round 0 of `bounding_box`'s tiling
    at m, the one the solver uses.
    """
    if two_r_lines:
        line = 2.0 * j - 2e-9 * m
    else:
        g = bounding_box(Instance.from_coords([(0.0, 0.0)], [(0.0, -3.0)], 1.0), m)
        line = g.corner(0).x + (m + j) * g.strip
    a = line - delta
    b = a + 2.0 * (1.0 + eps)
    targets = [(0.0, 0.0), (a, 5.0), ((a + b) / 2, 5.0), (b, 5.0)]
    return Instance.from_coords([(x + offset, y + offset) for x, y in targets],
                                [(offset, offset - 3.0)], 1.0)
