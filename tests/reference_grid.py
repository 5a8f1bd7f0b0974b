"""The per-point binning loop the solver's array keys replaced.

`reference_cells` bins (x, y) points one at a time with
`math.floor`, in Python floats, exactly as the solver once did: a point
lands in cell floor((p - corner) / side) on both axes, and in strip
floor((x - lo) / unit) of it, clamped to the cell's m strips.  It lists
every strip of a cell, empty or not, so a test can compare cells, strip
numbers and members with `grid.round_keys` plus `grid.cells_for_shift`.
`numbered_strips` numbers a cell's targets and sites for the strip DP one
at a time, as `grid.cells_for_shift` numbers them in arrays.
"""

import math

from sinkcover.grid import CellSites, Strip


def reference_cells(grid, points, f, among=None):
    """Cells of shift round f holding any of `points`, in index order: a
    list of (cell index, one tuple of point indices per strip).  Only the
    points whose indices `among` lists are binned (by default, all)."""
    if not (0 <= f <= grid.m - 1):
        raise ValueError(f"shift round must be in [0, {grid.m - 1}], got {f}")
    m, side, width = grid.m, grid.cell_side, grid.strip
    off = grid.corner(f)
    bins = {}
    for i in range(len(points)) if among is None else among:
        x, y = points[i]
        ix = math.floor((x - off.x) / side)
        iy = math.floor((y - off.y) / side)
        strips = bins.get((ix, iy))
        if strips is None:
            strips = bins[(ix, iy)] = [[] for _ in range(m)]
        x0 = off.x + ix * side
        strips[min(max(int((x - x0) // width), 0), m - 1)].append(i)
    return [(key, tuple(map(tuple, bins[key]))) for key in sorted(bins)]


def numbered_strips(layout, sites):
    """The strips `solve_cell` takes for a cell whose non-empty strips are
    `layout`, (strip number, ascending targets) pairs in strip order, over
    the candidate sites `sites`, numbered one target and one site at a
    time from a plain per-target coverers dict: the cell's targets strip
    by strip, and the sites covering any of them in ascending index
    order."""
    by_target = {}
    for g, s in enumerate(sites):
        for t in s.covered:
            by_target.setdefault(t, []).append(g)
    bit = {t: k for k, t in enumerate(t for _, ts in layout for t in ts)}
    pools = [sorted({g for t in ts for g in by_target.get(t, ())}) for _, ts in layout]
    rows = sorted({g for pool in pools for g in pool})
    number = {g: i for i, g in enumerate(rows)}
    cell = CellSites(rows, [sites[g].weight for g in rows],
                     [sum(1 << bit[t] for t in sites[g].covered if t in bit) for g in rows])
    return [Strip(j, list(ts), sum(1 << number[g] for g in pool), cell)
            for (j, ts), pool in zip(layout, pools)]
