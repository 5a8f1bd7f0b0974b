"""Spatial decomposition: bounding box, shifted square cells, vertical strips.

The tiling unit `Grid.strip` is 2r(1 + 2*COVER_TOL), strictly wider than
the 2r(1 + COVER_TOL) span of any target set one site covers.  Cells of m
units a side are solved independently, each split into m vertical strips
one unit wide, so a site serves targets of at most two adjacent strips.
Shift round f translates the tiling by f units on both axes.  An anchored
cell holds one group of targets (below), in as many strips as its width w
takes.

The margin holds in floats.  A cell's targets are all measured from one
float x0, and each offset `p.x - x0`, a correctly rounded difference below
the cell's width, errs by at most half an ulp of that width: about 1e-12 r
for a round cell at m = 1024, and below 2**-53 w for an anchored one.  Two
targets one site covers differ by at most 2r(1 + COVER_TOL)(1 + 2**-51) at
any magnitude, as the site-to-target differences of the coverage test are
correctly rounded too.  The margin, 2r*COVER_TOL = 2e-9 r, dwarfs both
errors while the two offsets' errors sum below it, that is for widths up
to about 10**7 r; a wider group could see one site's targets on three
strips.  An anchored cell measures its targets from x0 = their least x,
so every offset is at least 0.

This module is the only code that knows where cells and strips lie.
`round_keys` keys a point array for round f in one vectorised pass: each
point's cell and its strip in that cell; `cell_keys` is its cell half.
`anchored_keys` lays each group of points (the solver's components) out
in a cell of its own, strips starting at the group's least x, however
wide the group.  `cells_for_shift` bins targets keyed either way into
cells in a few numpy sorts and numbers each cell for the strip DP: its
targets bit by bit, strip by strip, and its sites (`CellSites`) in
ascending row order, with each site's cover and each strip's pool as
masks of those bits.  A cell holds only its non-empty strips, each with
its number, and `strips_of_cell` hands them to the strip DP.
`svg_render.render_svg` draws the rounds' lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import COVER_TOL, Point
from .sites import Instance, run_heads


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


class CellSites(NamedTuple):
    """A cell's sites, numbered in ascending row order: site i is table row
    `rows[i]`, weighs `weight[i]` and covers the cell's targets whose bits
    `cover[i]` sets, the cell's targets being numbered strip by strip."""

    rows: list[int]
    weight: list[float]
    cover: list[int]


class Strip(NamedTuple):
    number: int                     # the strip's place in its cell, from 0
    target_indices: list[int]       # ascending
    pool_mask: int                  # the cell sites covering a strip target, as bits
    sites: CellSites                # the cell's

    @property
    def site_pool(self) -> list[int]:
        """The rows of the pool's sites, ascending."""
        return [r for i, r in enumerate(self.sites.rows) if self.pool_mask >> i & 1]


class Cell(NamedTuple):
    index: tuple[int, int]
    strips: list[Strip]             # the non-empty ones, in strip order


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
    x, y = instance.targets.min(axis=0).tolist()
    return Grid(origin=Point(x - cell - pad, y - cell - pad), m=m, r=instance.r)


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
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Round f's keys of each point (xs[i], ys[i]): its cell index, as
    `cell_keys` gives it, and its strip in that cell, floor((x - lo) / unit)
    for the cell's left edge lo, clamped to the cell's m strips.  The cell
    keys stay floats, which hold any index exactly; `int` of one is the
    index."""
    ix, iy = cell_keys(grid, xs, ys, f)
    lo = grid.corner(f).x + ix * grid.cell_side
    strip = np.minimum(np.maximum((xs - lo) // grid.strip, 0), grid.m - 1).astype(np.intp)
    return ix, iy, strip


def anchored_keys(grid: Grid, xs: np.ndarray, group: np.ndarray,
                  groups: int) -> np.ndarray:
    """Each group of points laid out in a cell of its own, whose strips
    start at the group's least x, x0: the strip floor((x - x0) / unit) of
    each point xs[i] of group `group[i]`, as many strips as the group's
    width takes."""
    lo = np.full(groups, np.inf)
    np.minimum.at(lo, group, xs)
    # x - x0 >= 0 exactly, as x0 is the least x of the group.
    return ((xs - lo[group]) // grid.strip).astype(np.intp)


def cells_for_shift(kx: np.ndarray, ky: np.ndarray, strip: np.ndarray,
                    target: np.ndarray, pairs: tuple[np.ndarray, np.ndarray],
                    weight: np.ndarray, target_count: int) -> list[Cell]:
    """Bin keyed targets into cells, numbered for the strip DP.

    Target `target[i]` lies in the cell keyed (kx[i], ky[i]), in its strip
    `strip[i]`: round f's keys from `round_keys`, or a group's from
    `anchored_keys` keyed (group, 0).  `pairs` are the (target, row) cover
    pairs of the sites, row by row as `CandidateTable.pairs` gives them,
    `weight` each row's weight, and every target is below `target_count`.
    Cells come in key order, each with its non-empty strips in strip order
    and their targets ascending, so the cell's targets are numbered strip
    by strip.  A strip's pool holds every row covering one of its targets;
    a cell's sites are the rows of its pools, numbered ascending, each with
    its weight and the cell targets it covers.

    One sort of the targets by (cell, strip, target) gives the cells and
    strips.  The cover pairs come row by row, so one stable sort of the
    binned targets' pairs by cell puts them in (cell, row) order, each cell
    site's pairs in one run.  One pass over those pairs ors each site's
    cover and each strip's pool into Python ints, of any width.
    """
    if not len(target):
        return []
    order = np.lexsort((target, strip, ky, kx))
    kx, ky, strip, target = kx[order], ky[order], strip[order], target[order]
    cell_head = run_heads(kx, ky)
    strip_head = cell_head | run_heads(strip)
    first, strip_first = cell_head.nonzero()[0], strip_head.nonzero()[0]
    cell_of = cell_head.cumsum() - 1
    bit = np.arange(len(target)) - first[cell_of]   # each target's bit in its cell

    # The cover pairs of the binned targets, each by its target's place.
    covered, row = pairs
    at = np.full(target_count, -1)
    at[target] = np.arange(len(target))
    place = at[covered]
    keep = place >= 0
    place, row = place[keep], row[keep]
    by_site = cell_of[place].argsort(kind="stable")
    place, row = place[by_site], row[by_site]
    pair_cell = cell_of[place]
    site_head = run_heads(pair_cell, row)
    site = site_head.cumsum() - 1
    site_first = site_head.nonzero()[0]
    site_at = np.searchsorted(pair_cell[site_first], np.arange(len(first) + 1))
    # Or-ing per pair in Python, not in 64-bit numpy words, saves about
    # 10 us per dense-14 op and costs about 15 ms per n = 100000 solve.
    cover = [0] * len(site_first)
    pools = [0] * len(strip_first)
    for s, b, j, i in zip(site.tolist(), bit[place].tolist(),
                          (strip_head.cumsum() - 1)[place].tolist(),
                          (site - site_at[pair_cell]).tolist()):
        cover[s] |= 1 << b
        pools[j] |= 1 << i
    site_row = row[site_first]
    rows, weights, site_at = site_row.tolist(), weight[site_row].tolist(), site_at.tolist()
    cell_sites = [CellSites(rows[a:b], weights[a:b], cover[a:b])
                  for a, b in zip(site_at, site_at[1:])]
    target = target.tolist()
    bounds = strip_first.tolist() + [len(target)]
    strips = [Strip(j, target[a:b], pool, cell_sites[c]) for j, a, b, pool, c in
              zip(strip[strip_first].tolist(), bounds, bounds[1:], pools,
                  cell_of[strip_first].tolist())]
    strip_at = cell_head[strip_first].nonzero()[0].tolist() + [len(strip_first)]
    return [Cell((int(x), int(y)), strips[a:b])
            for x, y, a, b in zip(kx[first].tolist(), ky[first].tolist(), strip_at, strip_at[1:])]


def strips_of_cell(cell: Cell) -> list[Strip]:
    """The cell's non-empty strips, in strip order, each with its targets,
    its pool and the cell's sites."""
    return cell.strips
