"""Sensor-density census over the solver's strips and small squares."""

import math
from dataclasses import dataclass

from conftest import bin_points

from sinkcover.geometry import Point
from sinkcover.grid import bounding_box
from sinkcover.sites import Instance


@dataclass(frozen=True)
class CensusReport:
    max_per_strip: int
    max_per_square: int
    strip_counts: dict[tuple[int, int, int], int]
    square_counts: dict[tuple[int, int], int]


def strip_sensor_census(instance: Instance, positions: list[Point] | tuple[Point, ...],
                        m: int, shift: int = 0) -> CensusReport:
    """Count placed sensors per strip and per small square.

    The sensors are binned as the solver bins its targets (`round_keys`,
    then `cells_for_shift`): the strips are the one-unit (`Grid.strip`) slices
    of the shift-`shift` cells for the given m, keyed (cell x, cell y,
    strip) with strips numbered from 1, and only strips holding a sensor
    are listed.
    Squares have side sqrt(1/2) after normalizing the instance so r = 1
    (i.e. side sqrt(1/2) * r in original units), anchored at the grid
    origin.  The maxima measure the paper's density lemma (an optimum has
    O(m) sensors per strip), which the strip DP does not enforce.
    """
    g = bounding_box(instance, m)
    strip_counts: dict[tuple[int, int, int], int] = {}
    for cell in bin_points(g, positions, shift):
        for j, members in cell.strips:
            strip_counts[(*cell.index, j + 1)] = len(members)

    sq = math.sqrt(0.5) * g.r
    square_counts: dict[tuple[int, int], int] = {}
    for p in positions:
        key = (math.floor((p.x - g.origin.x) / sq),
               math.floor((p.y - g.origin.y) / sq))
        square_counts[key] = square_counts.get(key, 0) + 1

    return CensusReport(
        max_per_strip=max(strip_counts.values(), default=0),
        max_per_square=max(square_counts.values(), default=0),
        strip_counts=strip_counts,
        square_counts=square_counts)
