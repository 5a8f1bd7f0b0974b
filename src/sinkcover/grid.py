"""Spatial decomposition: bounding box, shifted square cells, vertical strips.

The tiling unit `Grid.strip` is 2r(1 + 2*COVER_TOL), strictly wider than
the 2r(1 + COVER_TOL) span of any target set one site covers.  Cells of m
units a side are solved independently, each split into m vertical strips
one unit wide, so a site serves targets of at most two adjacent strips.
Shift round f translates the tiling by f units on both axes.

The margin holds in floats.  A cell's targets are all measured from one
float x0, and each offset `p.x - x0`, a correctly rounded difference below
the cell side, errs by at most half an ulp of the side (about 1e-12 r at
m = 1024).  Two targets one site covers differ by at most
2r(1 + COVER_TOL)(1 + 2**-51) at any magnitude, as the site-to-target
differences of the coverage test are correctly rounded too.  The margin,
2r*COVER_TOL = 2e-9 r, dwarfs both errors.

This module is the only code that knows where round f's cells and strips
lie.  `cells_for_shift` bins a point list in one pass: a cell is its index
plus one tuple of point indices per strip.  `cell_keys` gives the cell of
each point of an array by the same arithmetic, so the solver can tell
which target clusters fit inside one cell of a round; `render` draws the
same tiling's lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import COVER_TOL, Point
from .sites import Instance


@dataclass(frozen=True)
class Grid:
    """Anchored tiling for an instance.

    `origin`, round 0's corner, lies one cell side (plus a tiny pad) below
    and left of the smallest target coordinates, so the corner of every
    shift round lies below and left of every target.
    """

    origin: Point
    m: int
    r: float

    @property
    def strip(self) -> float:
        """The tiling unit: a strip's width and one round's shift."""
        return 2.0 * self.r * (1.0 + 2.0 * COVER_TOL)

    @property
    def cell_side(self) -> float:
        return self.m * self.strip

    def corner(self, f: int) -> Point:
        """Lower-left corner of round f's tiling: origin + f units."""
        return Point(self.origin.x + f * self.strip,
                     self.origin.y + f * self.strip)


@dataclass(frozen=True)
class Cell:
    index: tuple[int, int]
    strips: tuple[tuple[int, ...], ...]   # point indices of each of the m strips


@dataclass(frozen=True)
class Strip:
    target_indices: tuple[int, ...]
    site_pool: tuple[int, ...]      # sites covering at least one strip target


def bounding_box(instance: Instance, m: int) -> Grid:
    """Build the grid anchor for an instance.

    Conceptually the instance is translated so the minimum target coordinate
    maps to one cell side on both axes; the anchor moves instead.
    """
    if instance.n == 0:
        raise ValueError("nothing to cover")
    if m < 1:
        raise ValueError("shifting parameter m must be at least 1")
    cell = Grid(Point(0.0, 0.0), m, instance.r).cell_side
    # The tiny pad keeps the minimum-coordinate target strictly inside its
    # cell; without it, float rounding of (min - cell) can flip the target
    # across the corner it sits on.
    pad = 1e-9 * cell
    return Grid(origin=Point(min(t.x for t in instance.targets) - cell - pad,
                             min(t.y for t in instance.targets) - cell - pad),
                m=m, r=instance.r)


def cell_keys(grid: Grid, xs: np.ndarray, ys: np.ndarray,
              f: int) -> tuple[np.ndarray, np.ndarray]:
    """Round f's cell index of each point (xs[i], ys[i]), one float array
    per axis: floor((x - corner) / side), the arithmetic `cells_for_shift`
    bins by, so a point's keys are the index of the cell it lands in."""
    off = grid.corner(f)
    return (np.floor((xs - off.x) / grid.cell_side),
            np.floor((ys - off.y) / grid.cell_side))


def cells_for_shift(grid: Grid, points: list[Point] | tuple[Point, ...],
                    f: int, among: list[int] | None = None) -> list[Cell]:
    """Cells of shift round f holding any of `points`, in index order.

    Only the points whose indices `among` lists are binned (by default,
    all); a cell names each point by its index in `points`.  Cell
    membership is half-open, [lo, lo + side) in both axes, so every point
    lands in exactly one cell; within it, a point lands in strip
    floor((x - lo) / unit), clamped to the cell's m strips.
    """
    if not (0 <= f <= grid.m - 1):
        raise ValueError(f"shift round must be in [0, {grid.m - 1}], got {f}")
    m, side, width = grid.m, grid.cell_side, grid.strip
    off = grid.corner(f)
    bins: dict[tuple[int, int], list[list[int]]] = {}
    for i in range(len(points)) if among is None else among:
        p = points[i]
        ix = math.floor((p.x - off.x) / side)
        iy = math.floor((p.y - off.y) / side)
        strips = bins.get((ix, iy))
        if strips is None:
            strips = bins[(ix, iy)] = [[] for _ in range(m)]
        x0 = off.x + ix * side
        strips[min(max(int((p.x - x0) // width), 0), m - 1)].append(i)
    return [Cell(key, tuple(map(tuple, bins[key]))) for key in sorted(bins)]


def strips_of_cell(cell: Cell, coverers: dict[int, list[int]]) -> list[Strip]:
    """The cell's m strips of targets, each with its site pool.

    `coverers` maps a target index to the indices of the sites covering it
    (`sites.coverers_by_target`); one index serves every cell of every
    round.  Strip i's pool holds the indices of all sites covering at least
    one target inside strip i.  Strips without targets get empty pools.
    """
    return [Strip(targets,
                  tuple(sorted({s for t in targets for s in coverers.get(t, ())})))
            for targets in cell.strips]
