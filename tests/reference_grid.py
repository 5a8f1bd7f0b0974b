"""The per-point binning loop the solver's array keys replaced.

`reference_cells` bins a point list one point at a time with
`math.floor`, in Python floats, exactly as the solver once did: a point
lands in cell floor((p - corner) / side) on both axes, and in strip
floor((x - lo) / unit) of it, clamped to the cell's m strips.  It lists
every strip of a cell, empty or not, so a test can compare cells, strip
numbers and members with `grid.round_keys` plus `grid.cells_for_shift`.
"""

import math


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
        p = points[i]
        ix = math.floor((p.x - off.x) / side)
        iy = math.floor((p.y - off.y) / side)
        strips = bins.get((ix, iy))
        if strips is None:
            strips = bins[(ix, iy)] = [[] for _ in range(m)]
        x0 = off.x + ix * side
        strips[min(max(int((p.x - x0) // width), 0), m - 1)].append(i)
    return [(key, tuple(map(tuple, bins[key]))) for key in sorted(bins)]
