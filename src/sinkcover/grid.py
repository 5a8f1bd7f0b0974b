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
2r*COVER_TOL = 2e-9 r, dwarfs both errors.  An anchored cell (below)
measures its targets from x0 = their least x, and takes them only when
the rounded offset of the largest x is below the side; rounding is
monotone, so every offset is, and the same bound holds.

This module is the only code that knows where cells and strips lie.
`round_keys` keys a point array for round f in one vectorised pass: each
point's cell and its strip in that cell; `cell_keys` is its cell half.
`anchored_keys` lays each group of points (the solver's components) out
in a cell of its own, strips starting at the group's least x, and tells
which groups are narrower than a cell side on both axes.  `cells_for_shift`
bins keyed targets into cells, each listing only its non-empty strips
with their numbers, and `strips_of_cell` gives those strips their site
pools.  `render` draws the rounds' lines.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

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


class Cell(NamedTuple):
    index: tuple[int, int]
    # (strip number from 0, ascending point indices) of each non-empty
    # strip, in strip order
    strips: list[tuple[int, list[int]]]


class Strip(NamedTuple):
    number: int                     # the strip's place in its cell, from 0
    target_indices: Sequence[int]
    site_pool: Sequence[int]        # ascending sites covering a strip target


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
    per axis: floor((x - corner) / side), so a point's keys are the index
    of the cell it lands in.  Cell membership is half-open, [lo, lo + side)
    in both axes, so every point lands in exactly one cell."""
    if not (0 <= f <= grid.m - 1):
        raise ValueError(f"shift round must be in [0, {grid.m - 1}], got {f}")
    off = grid.corner(f)
    return (np.floor((xs - off.x) / grid.cell_side),
            np.floor((ys - off.y) / grid.cell_side))


def round_keys(grid: Grid, xs: np.ndarray, ys: np.ndarray, f: int
               ) -> tuple[list[float], list[float], list[int]]:
    """Round f's keys of each point (xs[i], ys[i]): its cell index, as
    `cell_keys` gives it, and its strip in that cell, floor((x - lo) / unit)
    for the cell's left edge lo, clamped to the cell's m strips.  The cell
    keys stay floats, which hold any index exactly; `int` of one is the
    index."""
    ix, iy = cell_keys(grid, xs, ys, f)
    lo = grid.corner(f).x + ix * grid.cell_side
    strip = np.minimum(np.maximum((xs - lo) // grid.strip, 0), grid.m - 1).astype(np.intp)
    return ix.tolist(), iy.tolist(), strip.tolist()


def anchored_keys(grid: Grid, xs: np.ndarray, ys: np.ndarray, group: np.ndarray,
                  groups: int) -> tuple[list[bool], list[int]]:
    """Each group of points laid out in a cell of its own, whose strips
    start at the group's least x, x0: for each group, whether its bounding
    box is under one cell side on both axes, and for each point (xs[i],
    ys[i]) of group `group[i]`, its strip floor((x - x0) / unit), clamped
    to the cell's m strips as `round_keys` clamps.  The strips of a group
    that does not fit mean nothing."""
    lo_x, lo_y = np.full((2, groups), np.inf)
    hi_x, hi_y = np.full((2, groups), -np.inf)
    np.minimum.at(lo_x, group, xs)
    np.minimum.at(lo_y, group, ys)
    np.maximum.at(hi_x, group, xs)
    np.maximum.at(hi_y, group, ys)
    fits = (hi_x - lo_x < grid.cell_side) & (hi_y - lo_y < grid.cell_side)
    # x - x0 >= 0 exactly, as x0 is the least x of the group.
    strip = np.minimum((xs - lo_x[group]) // grid.strip, grid.m - 1).astype(np.intp)
    return fits.tolist(), strip.tolist()


def cells_for_shift(keyed: Iterable[tuple[int, float, float, int]]) -> list[Cell]:
    """Bin keyed targets, (target, cell x, cell y, strip) rows as
    `round_keys` keys them, into cells, in index order.  A cell lists its
    non-empty strips in strip order, each with its targets ascending.
    Rows keyed (target, group, 0, strip) from `anchored_keys` bin into one
    cell per group."""
    bins: dict[tuple[float, float], dict[int, list[int]]] = {}
    for t, kx, ky, j in keyed:
        bins.setdefault((kx, ky), {}).setdefault(j, []).append(t)
    return [Cell((int(kx), int(ky)),
                 [(j, sorted(ts)) for j, ts in sorted(bins[kx, ky].items())])
            for kx, ky in sorted(bins)]


def strips_of_cell(cell: Cell, coverers: dict[int, list[int]]) -> list[Strip]:
    """The cell's non-empty strips, each with its site pool.

    `coverers` maps a target index to the ascending indices of the sites
    covering it, as `sites.coverers` gives it; one index serves every cell
    of every round.  A strip's pool holds the ascending indices of all
    sites covering at least one of its targets.
    """
    return [Strip(j, ts, sorted({s for t in ts for s in coverers.get(t, ())}))
            for j, ts in cell.strips]
