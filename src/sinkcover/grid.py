"""Spatial decomposition: bounding box, shifted square cells, vertical strips.

Cells have side 2*m*r and are solved independently.  Each cell splits into m
vertical strips of width 2r; a radius-r disk spans at most two adjacent
strips, which is the independence property the per-cell solver relies on.
Shift round f translates the whole tiling by (2*f*r, 2*f*r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Point
from .sites import Instance


@dataclass(frozen=True)
class Grid:
    """Anchored tiling for an instance.

    `origin` is the lower-left corner of the bounding box in the instance's
    own coordinates; it is placed one cell below and left of the smallest
    target coordinates, so every target sits at least one full cell inside
    the box for every shift round.
    """

    origin: Point
    extent: float
    m: int
    r: float
    targets: tuple[Point, ...]

    @property
    def cell_side(self) -> float:
        return 2.0 * self.m * self.r


@dataclass(frozen=True)
class Cell:
    index: tuple[int, int]
    lower_left: Point
    side: float
    r: float
    target_indices: tuple[int, ...]
    target_positions: tuple[Point, ...]


@dataclass(frozen=True)
class Strip:
    index: int                      # 1-based position within the cell
    x_range: tuple[float, float]    # half-open [lo, hi)
    target_indices: tuple[int, ...]
    site_pool: tuple[int, ...]      # sites covering at least one strip target


def bounding_box(instance: Instance, m: int) -> Grid:
    """Build the grid anchor for an instance.

    Conceptually the instance is translated so the minimum target coordinate
    maps to (2mr, 2mr); we keep original coordinates and move the anchor
    instead.  The extent covers all targets plus one cell of margin.
    """
    if instance.n == 0:
        raise ValueError("nothing to cover")
    if m < 1:
        raise ValueError("shifting parameter m must be at least 1")
    cell = 2.0 * m * instance.r
    min_x = min(t.x for t in instance.targets)
    min_y = min(t.y for t in instance.targets)
    max_x = max(t.x for t in instance.targets)
    max_y = max(t.y for t in instance.targets)
    span = max(max_x - min_x, max_y - min_y)
    # The tiny pad keeps the minimum-coordinate target strictly inside its
    # cell; without it, float rounding of (min - cell) can flip the target
    # across the corner it sits on.
    pad = 1e-9 * cell
    return Grid(origin=Point(min_x - cell - pad, min_y - cell - pad),
                extent=span + 2.0 * (cell + pad),
                m=m, r=instance.r, targets=instance.targets)


def cells_for_shift(grid: Grid, f: int) -> list[Cell]:
    """Cells of shift round f, restricted to cells containing targets.

    The tiling of round f is anchored at origin + (2fr, 2fr).  Cell
    membership is half-open: [lo, lo + side) in both axes, so every target
    lands in exactly one cell.
    """
    if not (0 <= f <= grid.m - 1):
        raise ValueError(f"shift round must be in [0, {grid.m - 1}], got {f}")
    side = grid.cell_side
    off_x = grid.origin.x + 2.0 * f * grid.r
    off_y = grid.origin.y + 2.0 * f * grid.r
    bins: dict[tuple[int, int], list[int]] = {}
    for i, t in enumerate(grid.targets):
        ix = math.floor((t.x - off_x) / side)
        iy = math.floor((t.y - off_y) / side)
        bins.setdefault((ix, iy), []).append(i)
    cells = []
    for (ix, iy) in sorted(bins):
        idxs = tuple(bins[(ix, iy)])
        cells.append(Cell(index=(ix, iy),
                          lower_left=Point(off_x + ix * side, off_y + iy * side),
                          side=side, r=grid.r,
                          target_indices=idxs,
                          target_positions=tuple(grid.targets[i] for i in idxs)))
    return cells


def strips_of_cell(cell: Cell, coverers: dict[int, list[int]]) -> list[Strip]:
    """Split a cell into its m vertical strips and compute per-strip pools.

    `coverers` maps a target index to the indices of the sites covering it
    (`sites.coverers_by_target`); one index serves every cell of every
    round.  Strip i's pool holds the indices of all sites covering at least
    one target inside strip i.  Strips without targets get empty pools.
    """
    width = 2.0 * cell.r
    m = round(cell.side / width)
    x0 = cell.lower_left.x
    strip_targets: list[list[int]] = [[] for _ in range(m)]
    pools: list[set[int]] = [set() for _ in range(m)]
    for gi, pos in zip(cell.target_indices, cell.target_positions):
        s = min(max(int((pos.x - x0) // width), 0), m - 1)
        strip_targets[s].append(gi)
        pools[s].update(coverers.get(gi, ()))

    return [Strip(index=i + 1,
                  x_range=(x0 + i * width, x0 + (i + 1) * width),
                  target_indices=tuple(strip_targets[i]),
                  site_pool=tuple(sorted(pools[i])))
            for i in range(m)]
