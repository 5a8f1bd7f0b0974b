"""The bucket-grid front end against the all-pairs reference in
`reference_sites.py`: same site lists and same pruned lists, order included."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference_sites import all_pairs_candidate_sites, all_pairs_prune

from sinkcover.geometry import NearGrid, Point
from sinkcover.sites import (CandidateSite, Instance, generate_candidate_sites,
                             prune_dominated)

LAYOUTS = ("uniform", "one_box", "clustered", "collinear", "coincident", "two_r")


@st.composite
def instances(draw):
    layout = draw(st.sampled_from(LAYOUTS))
    r = draw(st.sampled_from([1.0, 0.5, 2.5]))
    offset = draw(st.sampled_from([0.0, 1e6, -1e6]))
    n = draw(st.integers(1, 24))

    def coord(lo, hi):
        return draw(st.floats(lo * r, hi * r))

    if layout == "uniform":
        targets = [(coord(-4, 4), coord(-4, 4)) for _ in range(n)]
    elif layout == "one_box":
        # Every pair of targets lies within one 2r x 2r box.
        targets = [(coord(0, 2), coord(0, 2)) for _ in range(n)]
    elif layout == "clustered":
        centers = [(coord(0, 12), coord(0, 12)) for _ in range(draw(st.integers(1, 3)))]
        targets = []
        for _ in range(n):
            cx, cy = draw(st.sampled_from(centers))
            targets.append((cx + coord(-1, 1), cy + coord(-1, 1)))
    elif layout == "collinear":
        dx, dy = draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (1.0, 1.0)]))
        b = coord(-2, 2)
        targets = [(s * dx, b + s * dy) for s in (coord(0, 10) for _ in range(n))]
    elif layout == "coincident":
        pool = [(coord(0, 4), coord(0, 4)) for _ in range(draw(st.integers(1, 3)))]
        targets = [draw(st.sampled_from(pool)) for _ in range(n)]
    else:
        # Lattice of pitch 2r, each target nudged by a factor 1 or 1 +- 1e-9:
        # pairs exactly 2r apart, just inside and just outside.
        targets = []
        for _ in range(n):
            f = draw(st.sampled_from([1.0, 1.0 + 1e-9, 1.0 - 1e-9]))
            targets.append((2.0 * r * draw(st.integers(0, 4)) * f,
                            2.0 * r * draw(st.integers(0, 4))))
    stations = [(coord(-4, 8), coord(-4, 8)) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        stations.append(stations[0])            # coincident stations
    if draw(st.booleans()):
        stations.append(draw(st.sampled_from(targets)))   # station on a target
    return Instance.from_coords([(x + offset, y + offset) for x, y in targets],
                                [(x + offset, y + offset) for x, y in stations], r)


def _same(got, want):
    assert got == want
    # repr tells 0.0 from -0.0, which == does not.
    assert repr(got) == repr(want)


@given(instances())
def test_generate_matches_all_pairs(inst):
    _same(generate_candidate_sites(inst), all_pairs_candidate_sites(inst))


@given(instances(), st.randoms(use_true_random=False))
def test_prune_matches_all_pairs(inst, rnd):
    sites = all_pairs_candidate_sites(inst)
    _same(prune_dominated(sites), all_pairs_prune(sites))
    rnd.shuffle(sites)
    _same(prune_dominated(sites), all_pairs_prune(sites))


@st.composite
def site_lists(draw):
    """Hand-made sites in any order: empty and nested coverage, tied weights
    and tied (including equal) positions."""
    pos = st.sampled_from([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (-0.0, 0.0)])
    return [CandidateSite(Point(*draw(pos)),
                          frozenset(draw(st.sets(st.integers(0, 4), max_size=3))),
                          draw(st.sampled_from([0.0, 1.0, 2.0])), 0)
            for _ in range(draw(st.integers(0, 10)))]


@given(site_lists())
def test_prune_matches_all_pairs_on_hand_made_sites(sites):
    _same(prune_dominated(sites), all_pairs_prune(sites))


def _site(cov, w, pos):
    return CandidateSite(Point(*pos), frozenset(cov), w, 0)


def test_prune_empty_coverage():
    empty = _site((), 1.0, (0, 0))
    cheaper_empty = _site((), 0.5, (3, 3))
    cover = _site({0}, 1.0, (1, 0))
    # Every site covers the empty set, so an empty site falls to any site
    # that is no heavier, and survives only when it is the lightest.
    assert prune_dominated([empty, cover]) == [cover]
    assert prune_dominated([cover, cheaper_empty]) == [cover, cheaper_empty]
    assert prune_dominated([cheaper_empty, empty, cover]) == [cheaper_empty, cover]
    assert prune_dominated([empty]) == [empty]


def test_prune_unsorted_chain():
    a = _site({0}, 3.0, (0, 0))
    b = _site({0, 1}, 2.0, (1, 0))
    c = _site({0, 1, 2}, 1.0, (2, 0))
    d = _site({3}, 5.0, (3, 0))
    for order in ([a, b, c, d], [d, c, b, a], [b, d, a, c]):
        assert prune_dominated(order) == [s for s in order if s in (c, d)]


@pytest.mark.parametrize("offset", [0.0, 1e6, -1e6])
@pytest.mark.parametrize("gap", [2.0, 2.0 * (1 + 1e-9), 2.0 * (1 - 1e-9)])
def test_generate_pairs_near_two_r(offset, gap):
    rng = random.Random(7)
    targets = [(offset + i * gap, offset + rng.choice([0.0, gap])) for i in range(6)]
    inst = Instance.from_coords(targets, [(offset - 1.0, offset)], 1.0)
    _same(generate_candidate_sites(inst), all_pairs_candidate_sites(inst))


def test_near_grid_far_query_with_tiny_radius():
    # The bucket quotient of a far query would overflow; it has no neighbour.
    index = NearGrid([Point(0.0, 0.0)], 1e-300)
    assert index.near(Point(1e10, 0.0)) == []
    assert index.near(Point(0.0, 0.0)) == [0]


def test_generate_signed_zeros_follow_pair_order():
    # Pairs (0, 1) and (1, 2) touch at (1, -0.0).  Pair (0, 2), whose midpoint
    # underflows to -0.0, meets at (-1, -0.0) and (1, 0.0) in argument order
    # (0, 2) and at (-1, 0.0) and (1, -0.0) in order (2, 0).  Merged positions
    # keep the first Point seen, so both orders show in the output.
    inst = Instance.from_coords([(0.0, -0.0), (2.0, -0.0), (0.0, -5e-324)],
                                [(5.0, 5.0)], 1.0)
    _same(generate_candidate_sites(inst), all_pairs_candidate_sites(inst))
