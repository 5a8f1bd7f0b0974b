"""Spatial decomposition: bounding box, shifted square cells, vertical strips.

Cells have side 2*m*r and are solved independently.  Each cell splits into m
vertical strips of width 2r; a radius-r disk spans at most two adjacent
strips, which is the independence property the per-cell solver relies on.
Shift round f translates the whole tiling by (2*f*r, 2*f*r).

This module is the only code that knows where round f's cells and strips
lie.  `cells_for_shift` bins a point list in one pass: a cell is its index
plus one tuple of point indices per strip.  `cell_keys` gives the cell of
each point of an array by the same arithmetic, so the solver can tell
which target clusters fit inside one cell of a round.  The solver bins
targets, and `render` draws the lines of the same tiling from
`Grid.corner`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Point
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
    def cell_side(self) -> float:
        return 2.0 * self.m * self.r

    def corner(self, f: int) -> Point:
        """Lower-left corner of round f's tiling: origin + (2fr, 2fr)."""
        return Point(self.origin.x + 2.0 * f * self.r,
                     self.origin.y + 2.0 * f * self.r)


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
    maps to (2mr, 2mr); we keep original coordinates and move the anchor
    instead.
    """
    if instance.n == 0:
        raise ValueError("nothing to cover")
    if m < 1:
        raise ValueError("shifting parameter m must be at least 1")
    cell = 2.0 * m * instance.r
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
    floor((x - lo) / 2r), clamped to the cell's m strips.
    """
    if not (0 <= f <= grid.m - 1):
        raise ValueError(f"shift round must be in [0, {grid.m - 1}], got {f}")
    m, side, width = grid.m, grid.cell_side, 2.0 * grid.r
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
