"""The bucket-grid front end against the all-pairs reference in
`reference_sites.py`: same site lists and same pruned lists, order included."""

import contextlib
import dataclasses
import math
import random
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference_sites import (all_pairs_candidate_sites, all_pairs_prune,
                             math_hypot_candidate_table)
from site_records import CandidateSite, site_records, site_table

from sinkcover import sites as sites_module
from sinkcover.geometry import COVER_TOL, Point, near_pairs
from sinkcover.instances_io import gen_uniform
from sinkcover.ptas import verify_solution
from sinkcover.sites import (CandidateTable, Instance, generate_candidate_sites,
                             prune_dominated)

LAYOUTS = ("uniform", "one_box", "clustered", "collinear", "coincident", "two_r")


@st.composite
def instances(draw):
    layout = draw(st.sampled_from(LAYOUTS))
    r = draw(st.sampled_from([1.0, 0.5, 2.5]))
    offset = draw(st.sampled_from([0.0, 1e6, -1e6, 1e15, -1e15]))
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
    stations = [(coord(-4, 8), coord(-4, 8)) for _ in range(draw(st.integers(1, 12)))]
    for _ in range(draw(st.integers(0, 2))):
        # A duplicate station, before or after its twin.
        stations.insert(draw(st.integers(0, len(stations))), draw(st.sampled_from(stations)))
    if draw(st.booleans()):
        stations.append(draw(st.sampled_from(targets)))   # station on a target
    if draw(st.booleans()):
        # Two stations mirrored through a target: the site on that target is
        # exactly as far from both, and the lower index must win.  The target
        # is moved to a multiple of 1/8 so that the mirror images are exact.
        k = draw(st.integers(0, n - 1))
        tx, ty = (round(v * 8.0) / 8.0 for v in targets[k])
        targets[k] = (tx, ty)
        a, b = (r * draw(st.integers(-4, 4)) / 8.0 for _ in range(2))
        for sign in (1.0, -1.0):
            stations.insert(draw(st.integers(0, len(stations))),
                            (tx + sign * a, ty + sign * b))
    return Instance.from_coords([(x + offset, y + offset) for x, y in targets],
                                [(x + offset, y + offset) for x, y in stations], r)


def _same(table, want):
    """Assert that the table's sites are the list `want`, and return them
    as records."""
    # repr tells 0.0 from -0.0, which == does not; the repr of a covered
    # set depends on the order its targets were added, so only positions
    # and weights are compared by repr.  Comparing site by site reports the
    # first difference; a diff of two whole-list reprs takes pytest minutes.
    got = site_records(table)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert ((g, repr(g.position), repr(g.weight))
                == (w, repr(w.position), repr(w.weight))), f"site {i}"
    return got


@given(instances())
def test_generate_matches_all_pairs(inst):
    table, want = generate_candidate_sites(inst), all_pairs_candidate_sites(inst)
    _same(table, want)
    pruned = _same(prune_dominated(table), all_pairs_prune(want))
    # Every target keeps a coverer: the site on it covers it, and a pruned
    # site's targets are all covered by the site that dominates it.
    assert frozenset().union(*(s.covered for s in pruned)) == frozenset(range(inst.n))


@given(instances(), st.randoms(use_true_random=False))
def test_prune_matches_all_pairs(inst, rnd):
    sites = all_pairs_candidate_sites(inst)
    _same(prune_dominated(site_table(sites)), all_pairs_prune(sites))
    rnd.shuffle(sites)
    _same(prune_dominated(site_table(sites)), all_pairs_prune(sites))


@st.composite
def site_lists(draw):
    """Hand-made sites in any order: empty and nested coverage, tied weights
    and tied (including equal) positions.  The covered sets are drawn from
    one of five shapes: up to 3 of 5 targets, up to 8 of 12, a common
    prefix of up to 7 targets with or without one last target after it,
    targets equal mod 64 (which share a signature bit in pruning), or
    always empty."""
    pos = st.sampled_from([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (-0.0, 0.0)])
    shape = draw(st.sampled_from(["few", "wide", "prefix", "aliased", "empty"]))
    if shape == "few":
        sets = st.sets(st.integers(0, 4), max_size=3)
    elif shape == "aliased":
        sets = st.sets(st.sampled_from([0, 1, 2, 64, 65, 66, 128]), max_size=4)
    elif shape == "wide":
        sets = st.sets(st.integers(0, 11), max_size=8)
    elif shape == "prefix":
        prefix = draw(st.sets(st.integers(0, 9), max_size=7))
        after = st.integers(max(prefix, default=-1) + 1, 11)
        sets = st.one_of(st.just(prefix), after.map(lambda t: prefix | {t}))
    else:
        sets = st.just(frozenset())
    return [CandidateSite(Point(*draw(pos)), frozenset(draw(sets)),
                          draw(st.sampled_from([0.0, 1.0, 2.0])), 0)
            for _ in range(draw(st.integers(0, 10)))]


@given(site_lists())
def test_prune_matches_all_pairs_on_hand_made_sites(sites):
    _same(prune_dominated(site_table(sites)), all_pairs_prune(sites))


@given(site_lists())
def test_prune_matches_all_pairs_when_every_row_hashes_alike(sites):
    # Every row on one hash value: the grouping must still split the rows
    # by covered set, member for member.
    with mock.patch.object(sites_module, "_row_hashes",
                           lambda table: np.zeros(len(table), dtype=np.uint64)):
        _same(prune_dominated(site_table(sites)), all_pairs_prune(sites))


def test_prune_matches_all_pairs_on_a_draw_when_every_row_hashes_alike():
    inst = gen_uniform(40, 3, 1.0, 8.0, 7)
    want = all_pairs_prune(all_pairs_candidate_sites(inst))
    with mock.patch.object(sites_module, "_row_hashes",
                           lambda table: np.zeros(len(table), dtype=np.uint64)):
        _same(prune_dominated(generate_candidate_sites(inst)), want)


def _one_position_hash():
    return mock.patch.object(sites_module, "_position_hashes",
                             lambda x, y: np.zeros(len(x), dtype=np.uint64))


@given(instances())
def test_generate_is_unchanged_when_every_position_hashes_alike(inst):
    # Every position on one hash value: the merge must still group the
    # positions coordinate for coordinate.
    want = generate_candidate_sites(inst)
    with _one_position_hash():
        table = generate_candidate_sites(inst)
    for field in dataclasses.fields(CandidateTable):
        a, b = getattr(table, field.name), getattr(want, field.name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), field.name


@pytest.mark.parametrize("collide", [False, True])
@pytest.mark.parametrize("station, target", [((0.0, -0.0), (-0.0, 0.0)),
                                             ((-0.0, 0.0), (0.0, -0.0))])
def test_position_merge_keeps_the_first_of_equal_positions(station, target, collide):
    # The station is seen before the target on it, so the merged position
    # keeps the station's signed zeros, with or without a hash collision.
    inst = Instance.from_coords([target], [station], 1.0)
    with _one_position_hash() if collide else contextlib.nullcontext():
        table = generate_candidate_sites(inst)
    at = ((table.x == 0.0) & (table.y == 0.0)).nonzero()[0]
    assert len(at) == 1
    assert np.signbit([table.x[at[0]], table.y[at[0]]]).tolist() == \
        np.signbit(station).tolist()


def test_generation_memory_is_bounded_by_its_table():
    # Generation works in memory proportional to the positions: no stations
    # x positions matrix and no full-length list of Python floats.
    inst = gen_uniform(20000, 10, 1.0, 447.2, 3)
    tracemalloc.start()
    try:
        table = generate_candidate_sites(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(getattr(table, f.name).nbytes for f in dataclasses.fields(table))
    assert peak <= 4 * size, (peak, size)


def _site(cov, w, pos):
    return CandidateSite(Point(*pos), frozenset(cov), w, 0)


def _prune(sites):
    return site_records(prune_dominated(site_table(sites)))


def test_prune_empty_coverage():
    empty = _site((), 1.0, (0, 0))
    cheaper_empty = _site((), 0.5, (3, 3))
    cover = _site({0}, 1.0, (1, 0))
    # Every site covers the empty set, so an empty site falls to any site
    # that is no heavier, and survives only when it is the lightest.
    assert _prune([empty, cover]) == [cover]
    assert _prune([cover, cheaper_empty]) == [cover, cheaper_empty]
    assert _prune([cheaper_empty, empty, cover]) == [cheaper_empty, cover]
    assert _prune([empty]) == [empty]


def test_prune_unsorted_chain():
    a = _site({0}, 3.0, (0, 0))
    b = _site({0, 1}, 2.0, (1, 0))
    c = _site({0, 1, 2}, 1.0, (2, 0))
    d = _site({3}, 5.0, (3, 0))
    for order in ([a, b, c, d], [d, c, b, a], [b, d, a, c]):
        assert _prune(order) == [s for s in order if s in (c, d)]


@pytest.mark.parametrize("offset", [0.0, 1e6, -1e6])
@pytest.mark.parametrize("gap", [2.0, 2.0 * (1 + 1e-9), 2.0 * (1 - 1e-9)])
def test_generate_pairs_near_two_r(offset, gap):
    rng = random.Random(7)
    targets = [(offset + i * gap, offset + rng.choice([0.0, gap])) for i in range(6)]
    inst = Instance.from_coords(targets, [(offset - 1.0, offset)], 1.0)
    _same(generate_candidate_sites(inst), all_pairs_candidate_sites(inst))


def test_near_grid_far_query_with_tiny_radius():
    # The bucket quotient of a far query would overflow; clamped to just
    # beyond the points, it stays finite and may gain a candidate, which the
    # exact test rejects.
    origin = np.array([0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q, p = near_pairs(np.array([1e10, 0.0]), origin, origin, origin, 1e-300)
    assert (0, 0) in zip(q.tolist(), p.tolist()) and set(p.tolist()) == {0}
    inst = Instance.from_coords([(1e10, 0.0)], [(0.0, 0.0)], 1e-300)
    assert not verify_solution(inst, [(0.0, 0.0)])
    assert verify_solution(inst, [(1e10, 0.0)])


def test_generate_signed_zeros_follow_pair_order():
    # Pairs (0, 1) and (1, 2) touch at (1, -0.0).  Pair (0, 2), whose midpoint
    # underflows to -0.0, meets at (-1, -0.0) and (1, 0.0) in argument order
    # (0, 2) and at (-1, 0.0) and (1, -0.0) in order (2, 0).  Merged positions
    # keep the first Point seen, so both orders show in the output.
    inst = Instance.from_coords([(0.0, -0.0), (2.0, -0.0), (0.0, -5e-324)],
                                [(5.0, 5.0)], 1.0)
    _same(generate_candidate_sites(inst), all_pairs_candidate_sites(inst))
    # Stations are seen before targets: the station's 0.0 wins the merge.
    inst = Instance.from_coords([(-0.0, 0.0)], [(0.0, 0.0)], 1.0)
    assert repr(site_records(generate_candidate_sites(inst))[0].position) == \
        "Point(x=0.0, y=0.0)"
    _same(generate_candidate_sites(inst), all_pairs_candidate_sites(inst))


def test_generate_station_at_subnormal_distance():
    # r / 2.2e-311 overflows, so the projection scales the unit vector.
    inst = Instance.from_coords([(0.0, 0.0)], [(0.0, 2.225073858507e-311)], 1.0)
    sites = _same(generate_candidate_sites(inst), all_pairs_candidate_sites(inst))
    assert Point(0.0, 1.0) in {s.position for s in sites}


def test_distances_come_from_math_hypot():
    # np.hypot rounds this pair one ulp above math.hypot, and r puts the
    # coverage radius r * (1 + COVER_TOL) exactly on math.hypot's value, so
    # both the site's weight and its coverage of target 0 tell them apart.
    dx, dy, r = 0.6250357184174307, 0.5527275679799395, 0.8343724661745839
    d = math.hypot(dx, dy)
    assert np.hypot(dx, dy) > d == r * (1.0 + COVER_TOL)
    inst = Instance.from_coords([(0.0, 0.0), (dx, dy)], [(0.0, 0.0)], r)
    sites = _same(generate_candidate_sites(inst), all_pairs_candidate_sites(inst))
    on_target = next(s for s in sites if s.position == Point(dx, dy))
    assert on_target.covered == {0, 1} and on_target.weight == d


@pytest.mark.parametrize("dx, dy", [(0.6250357184174307, 0.5527275679799395),
                                    (0.9569762997641529, 0.856342988465876)])
def test_nearest_station_settled_by_math_hypot(dx, dy):
    # Seen from the target at the origin, station 0 lies on the x axis, where
    # both hypots agree, and station 1 at (dx, dy), where np.hypot is one ulp
    # above math.hypot in the first case and one below in the second.  By
    # math.hypot station 1 is nearer in the first case and ties in the
    # second, where the lower index wins; np.hypot ranks them the other way.
    d = math.hypot(dx, dy)
    far = max(d, float(np.hypot(dx, dy)))
    assert np.hypot(dx, dy) != d and math.hypot(far, 0.0) == far
    inst = Instance.from_coords([(0.0, 0.0)], [(-far, 0.0), (-dx, -dy)], 1.0)
    sites = _same(generate_candidate_sites(inst), all_pairs_candidate_sites(inst))
    on_target = next(s for s in sites if s.position == Point(0.0, 0.0))
    assert on_target.origin_station == (1 if d < far else 0) and on_target.weight == d


@pytest.mark.parametrize("n, k, extent, seed", [(400, 10, 63.25, 1), (400, 10, 63.25, 2),
                                                (60, 2, 8.0, 1), (60, 2, 8.0, 2)])
def test_generate_matches_math_hypot_reference_at_workload_scale(n, k, extent, seed):
    # The all-pairs reference is too slow at n = 400; this one decides every
    # coverage test and nearest station with math.hypot.
    inst = gen_uniform(n, k, 1.0, extent, seed)
    got, want = generate_candidate_sites(inst), math_hypot_candidate_table(inst)
    for name in ("x", "y", "weight", "origin", "lo", "hi", "members"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert repr(g.tolist()) == repr(w.tolist()), name


def test_nearest_station_tie_between_mirrored_stations():
    # Stations 1 and 2 mirror each other through the target, so their
    # squared distances from it are equal and the lower index must win.
    inst = Instance.from_coords([(0.375, 0.625)],
                                [(9.0, 9.0), (0.625, 0.125), (0.125, 1.125)], 1.0)
    sites = _same(generate_candidate_sites(inst), all_pairs_candidate_sites(inst))
    on_target = next(s for s in sites if s.position == Point(0.375, 0.625))
    assert on_target.origin_station == 1


@pytest.mark.parametrize("stations", [[(3e-160, 0.0), (0.0, 2e-160)],
                                      [(0.0, 5e-151), (4e-151, 0.0), (0.0, 5e-324)],
                                      [(2.6e-162, 0.0), (1.7e-162, 1.7e-162)]])
def test_nearest_station_with_underflowing_squares(stations):
    # Every squared distance from the target is below 1e-300, and most are
    # subnormal or zero.  In the last case the squares round to 1 and 2
    # subnormal ulps, so they rank station 0 first, while station 1 is
    # nearer.
    inst = Instance.from_coords([(0.0, 0.0)], stations, 1.0)
    _same(generate_candidate_sites(inst), all_pairs_candidate_sites(inst))


@pytest.mark.parametrize("near", [True, False])
def test_nearest_station_with_overflowing_squares(near):
    # Near 1e154, dx * dx overflows to inf for the far stations; the near
    # one, when present, is the only finite square.
    stations = [(-1e154, 0.0), (0.0, -1e154)] + ([(1.2e154, 1.1e154)] if near else [])
    inst = Instance.from_coords([(1e154, 1e154), (1.1e154, 1e154)], stations, 1e153)
    sites = _same(generate_candidate_sites(inst), all_pairs_candidate_sites(inst))
    assert {s.origin_station for s in sites} == ({2} if near else {0, 1})


@given(instances())
def test_generate_matches_all_pairs_far_from_the_origin(inst):
    # A shift by 1e9 rounds every coordinate to a coarser grid, so the
    # mirrored stations of `instances` become near ties.
    shift = Instance(inst.targets + 1e9, inst.stations + 1e9, inst.r)
    _same(generate_candidate_sites(shift), all_pairs_candidate_sites(shift))
