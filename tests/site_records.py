"""Candidate sites as records, for tests that build sites by hand or read a
table one site at a time.

The library keeps sites as `CandidateTable` columns, and the solver and
the oracles read them as `(weights, covers)` lists.  A `CandidateSite` here
is one row of a table: `site_records` reads a table's rows, `site_table`
builds a table from records, and `site_columns` gives records as the lists
the oracles and `solve_cell` take.  `points` gives an instance's coordinate
array as the `Point`s the per-point reference code reads.
"""

from dataclasses import dataclass

import numpy as np

from sinkcover.geometry import Point
from sinkcover.sites import CandidateTable, generate_candidate_sites, prune_dominated


@dataclass(frozen=True)
class CandidateSite:
    """A discrete sensor placement.

    `covered` is the set of target indices within the sensing radius,
    `weight` the distance from the nearest station and `origin_station`
    the index of a station attaining it (lowest index on ties).
    """

    position: Point
    covered: frozenset[int]
    weight: float
    origin_station: int


def site_records(table):
    """The table's rows as `CandidateSite`s, in order."""
    weights, covers = table.columns()
    return [CandidateSite(Point(x, y), frozenset(cov), w, o)
            for x, y, w, o, cov in zip(table.x.tolist(), table.y.tolist(), weights,
                                       table.origin.tolist(), covers)]


def pruned_sites(instance):
    """The instance's pruned candidate sites, as records."""
    return site_records(prune_dominated(generate_candidate_sites(instance)))


def site_table(sites):
    """The `CandidateTable` whose rows are `sites`, in order."""
    covered = [sorted(s.covered) for s in sites]
    size = np.array([len(c) for c in covered], dtype=np.intp)
    hi = size.cumsum()
    return CandidateTable(np.array([s.position.x for s in sites], dtype=float),
                          np.array([s.position.y for s in sites], dtype=float),
                          np.array([s.weight for s in sites], dtype=float),
                          np.array([s.origin_station for s in sites], dtype=np.intp),
                          hi - size, hi,
                          np.array([t for c in covered for t in c], dtype=np.intp))


def points(coords):
    """The rows of an (n, 2) coordinate array as `Point`s."""
    return [Point(x, y) for x, y in coords.tolist()]


def site_columns(sites):
    """The `(weights, covers)` lists of a list of sites, each cover
    ascending."""
    return [s.weight for s in sites], [sorted(s.covered) for s in sites]
