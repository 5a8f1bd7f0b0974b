import math
import random

import numpy as np
import pytest
from conftest import bin_keyed, bin_points, layout, straddle_instance
from hypothesis import example, given
from hypothesis import strategies as st
from reference_grid import reference_cells

from sinkcover.geometry import COVER_TOL, Point
from sinkcover.grid import Grid, anchored_keys, bounding_box, cell_keys, strips_of_cell
from sinkcover.sites import Instance, coverers, generate_candidate_sites


def _uniform_instance(seed, n=8, k=2, extent=10.0, r=1.0):
    rng = random.Random(seed)
    return Instance.from_coords(
        [(rng.uniform(0, extent), rng.uniform(0, extent)) for _ in range(n)],
        [(rng.uniform(0, extent), rng.uniform(0, extent)) for _ in range(k)], r)


def test_bounding_box_translation():
    inst = Instance.from_coords([(0, 0), (10, 10)], [(5, 5)], 1.0)
    g = bounding_box(inst, 2)
    # The unit is 2r(1 + 2 COVER_TOL), wider than any set one site covers.
    assert g.strip == 2.0 * (1.0 + 2.0 * COVER_TOL)
    assert g.strip > 2.0 * (1.0 + COVER_TOL)
    # Anchor one cell below the minimum coordinate: target min maps to m units.
    assert g.origin.x == pytest.approx(-2 * g.strip, abs=1e-6)
    assert g.origin.y == pytest.approx(-2 * g.strip, abs=1e-6)
    # Round 0's tiling starts at the anchor; the cell side is m units.
    assert g.corner(0) == g.origin
    assert g.cell_side == 2 * g.strip


def test_bounding_box_single_target_single_cell():
    inst = Instance.from_coords([(3, 7)], [(0, 0)], 1.0)
    g = bounding_box(inst, 3)
    assert len(bin_points(g, inst.targets, 0)) == 1


def test_bounding_box_identity_when_already_offset():
    # Targets whose minimum coordinate is already at 2mr: the conceptual
    # translation is the identity, so the anchor sits at the coordinate
    # origin (up to the anti-wobble pad).
    inst = Instance.from_coords([(4.0, 4.0), (6.0, 5.0)], [(0, 0)], 1.0)
    g = bounding_box(inst, 2)
    assert g.origin.x == pytest.approx(0.0, abs=1e-6)
    assert g.origin.y == pytest.approx(0.0, abs=1e-6)


def test_bounding_box_empty_errors():
    inst = Instance.from_coords([], [(0, 0)], 1.0)
    with pytest.raises(ValueError, match="nothing to cover"):
        bounding_box(inst, 2)


def test_shift_moves_boundaries_by_f_units():
    inst = Instance.from_coords([(0, 0), (9, 9)], [(5, 5)], 1.0)
    g = bounding_box(inst, 2)
    side = g.cell_side
    for f in range(2):
        # Boundaries of round f sit at origin + f units plus cell multiples.
        off_x = g.origin.x + f * g.strip
        off_y = g.origin.y + f * g.strip
        assert g.corner(f) == Point(off_x, off_y)
        for c in bin_points(g, inst.targets, f):
            lo_x, lo_y = off_x + c.index[0] * side, off_y + c.index[1] * side
            for i in (i for s in c.strips for i in s.target_indices):
                x, y = inst.targets[i].tolist()
                assert lo_x <= x < lo_x + side and lo_y <= y < lo_y + side


def test_cells_partition_targets_every_round():
    for seed in range(10):
        inst = _uniform_instance(seed)
        for m in (1, 2, 4):
            g = bounding_box(inst, m)
            for f in range(m):
                cells = bin_points(g, inst.targets, f)
                assert len({c.index for c in cells}) == len(cells)
                seen = [i for c in cells for s in c.strips for i in s.target_indices]
                assert sorted(seen) == list(range(inst.n))


def test_shift_round_bounds_checked():
    inst = _uniform_instance(0)
    g = bounding_box(inst, 2)
    with pytest.raises(ValueError):
        bin_points(g, inst.targets, 2)
    with pytest.raises(ValueError):
        bin_points(g, inst.targets, -1)


def test_shift_boundary_positions_cycle():
    # Over rounds f = 0..m-1 the vertical boundary offsets modulo the cell
    # side hit every multiple of the unit exactly once.
    inst = _uniform_instance(1)
    m = 4
    g = bounding_box(inst, m)
    side = g.cell_side
    offsets = set()
    for f in range(m):
        cell = bin_points(g, inst.targets, f)[0]
        lower_left_x = g.corner(f).x + cell.index[0] * side
        offsets.add(round((lower_left_x - g.origin.x) % side, 9))
    assert offsets == {round(g.strip * f, 9) for f in range(m)}


def test_strip_count_and_width():
    inst = _uniform_instance(2, n=30)
    sites = generate_candidate_sites(inst)
    width = 2.0 * inst.r
    for m in (2, 3):
        g = bounding_box(inst, m)
        for f in range(m):
            for cell in bin_points(g, inst.targets, f, sites=sites):
                # A cell lists its non-empty strips, numbered within its m.
                numbers = [s.number for s in cell.strips]
                assert numbers == sorted(set(numbers)) and set(numbers) <= set(range(m))
                assert all(s.target_indices for s in cell.strips)
                assert len(strips_of_cell(cell)) == len(cell.strips)
                x0 = g.corner(f).x + cell.index[0] * g.cell_side
                # Strip j is the half-open slice [x0 + j*2r, x0 + (j+1)*2r).
                for s in cell.strips:
                    j = s.number
                    for i in s.target_indices:
                        assert x0 + j * width <= inst.targets[i, 0] < x0 + (j + 1) * width


def test_cell_keys_name_the_cell_each_point_is_binned_into():
    # Random targets plus points put on round f's cell lines, where the
    # float quotient may fall on either side of an integer.
    for seed in range(4):
        inst = _uniform_instance(seed, n=40, extent=20.0)
        for m in (1, 2, 3):
            g = bounding_box(inst, m)
            lines = [(g.corner(f).x + j * g.cell_side, g.corner(f).y + j * g.cell_side)
                     for f in range(m) for j in range(1, 4)]
            pts = inst.targets.tolist() + lines
            xs, ys = np.array(pts).T
            for f in range(m):
                ix, iy = cell_keys(g, xs, ys, f)
                binned = {i: cell.index for cell in bin_points(g, pts, f)
                          for s in cell.strips for i in s.target_indices}
                assert binned == {i: (ix[i], iy[i]) for i in range(len(pts))}
                # Binning a subset keeps each point's cell, strip and index.
                expected = []
                for cell in bin_points(g, pts, f):
                    strips = [(s.number, [i for i in s.target_indices if i % 3 == 0])
                              for s in cell.strips]
                    strips = [(j, st) for j, st in strips if st]
                    if strips:
                        expected.append((cell.index, strips))
                among = list(range(0, len(pts), 3))
                assert [(c.index, layout(c)) for c in bin_points(g, pts, f, among)] == expected


def test_strips_partition_cell_targets():
    for seed in range(8):
        inst = _uniform_instance(seed, n=10)
        sites = generate_candidate_sites(inst)
        by_target = coverers(sites.columns()[1])
        g = bounding_box(inst, 3)
        for f in range(3):
            cells = bin_points(g, inst.targets, f, sites=sites)
            # The strips hold the cell's targets as the per-point loop bins
            # them, and each strip the coverers of its targets.
            assert [(c.index, [(s.number, s.target_indices) for s in strips_of_cell(c)])
                    for c in cells] == _reference_view(reference_cells(g, inst.targets, f))
            for cell in cells:
                strips = strips_of_cell(cell)
                got = [t for s in strips for t in s.target_indices]
                assert got and len(got) == len(set(got))
                for s in strips:
                    pool = {i for t in s.target_indices for i in by_target[t]}
                    assert list(s.site_pool) == sorted(pool)


def test_site_spanning_two_strips_in_both_pools():
    # The second and third targets straddle the strip boundary at
    # min_x + 2r; their shared coverers must appear in both pools.
    inst = Instance.from_coords([(0.0, 0.0), (1.9, 0.0), (2.1, 0.0)], [(0, 0)], 1.0)
    sites = generate_candidate_sites(inst)
    covers = sites.columns()[1]
    g = bounding_box(inst, 2)
    (cell,) = bin_points(g, inst.targets, 0, sites=sites)
    s1, s2 = strips_of_cell(cell)
    assert 1 in s1.target_indices and 2 in s2.target_indices
    both = [i for i, cov in enumerate(covers) if {1, 2} <= set(cov)]
    assert both
    for i in both:
        assert i in s1.site_pool and i in s2.site_pool


def test_no_pool_shared_across_nonadjacent_strips():
    for seed in range(6):
        inst = _uniform_instance(seed, n=10, extent=6.0)
        sites = generate_candidate_sites(inst)
        g = bounding_box(inst, 4)
        for cell in bin_points(g, inst.targets, 0, sites=sites):
            strips = strips_of_cell(cell)
            for a in strips:
                for b in strips:
                    if b.number >= a.number + 2:
                        assert not set(a.site_pool) & set(b.site_pool)


def _translated(inst, offset):
    return Instance(inst.targets + offset, inst.stations + offset, inst.r)


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e9])
def test_no_site_in_the_pools_of_strips_two_apart(offset):
    # The unit is wider than any covered set, so in every cell of every
    # round the pools of strips two or more apart are disjoint (so no site
    # lies in three pools), for uniform draws and for targets that one
    # site covers straddling a strip line, far from the origin too.
    rng = random.Random(18)
    cases = [(_uniform_instance(seed, n=12, extent=6.0), m)
             for seed in range(6) for m in (1, 2, 3, 4)]
    for _ in range(60):
        m = rng.choice([2, 3, 4, 8])
        cases.append((straddle_instance(
            m, rng.randint(1, 2 * m + 1), rng.uniform(1e-12, 1e-9),
            rng.uniform(1e-12, 1e-9), rng.random() < 0.5), m))
    for inst, m in cases:
        inst = _translated(inst, offset)
        sites = generate_candidate_sites(inst)
        g = bounding_box(inst, m)
        for f in range(m):
            for cell in bin_points(g, inst.targets, f, sites=sites):
                pools = {s.number: set(s.site_pool) for s in strips_of_cell(cell)}
                for i in pools:
                    for j in pools:
                        if j >= i + 2:
                            assert not pools[i] & pools[j]


def test_strip_independence_randomized():
    # No radius-r disk covers targets two or more width-2r strips apart:
    # lighter version of the acceptance sweep.
    rng = random.Random(13)
    r = 1.0
    for _ in range(10_000):
        cx, cy = rng.uniform(-50, 50), rng.uniform(-50, 50)
        ts = []
        for _ in range(2):
            ang = rng.uniform(0, 2 * math.pi)
            rad = r * math.sqrt(rng.uniform(0, 1))
            ts.append((cx + rad * math.cos(ang), cy + rad * math.sin(ang)))
        anchor = rng.uniform(-10, 0)
        strip_of = [math.floor((t[0] - anchor) / (2 * r)) for t in ts]
        assert abs(strip_of[0] - strip_of[1]) <= 1


def _reference_view(cells):
    """`reference_cells` output as the program lists cells: each cell's
    non-empty strips with their numbers, members ascending."""
    return [(key, [(j, sorted(ts)) for j, ts in enumerate(strips) if ts])
            for key, strips in cells]


@st.composite
def binning_cases(draw):
    """Points of a random spread and offset, some put exactly on round f's
    cell and strip lines or one ulp to either side, with a subset to bin
    in random order."""
    m = draw(st.sampled_from([1, 2, 3, 4, 8, 1024]))
    r = draw(st.sampled_from([1.0, 0.37, 1e-12]))
    offset = draw(st.sampled_from([0.0, 1e6, 1e9]))
    spread = draw(st.sampled_from([8.0, 1e3, 1e12]))
    coord = st.floats(0.0, spread, allow_nan=False, allow_infinity=False)
    pts = [(offset + draw(coord), offset + draw(coord))
           for _ in range(draw(st.integers(1, 10)))]
    g = bounding_box(Instance.from_coords(pts, [(offset, offset)], r), m)
    f = draw(st.integers(0, m - 1))
    corner = g.corner(f)
    for _ in range(draw(st.integers(0, 8))):
        k = draw(st.integers(0, int(spread / g.cell_side) + 2))
        j = draw(st.integers(0, m))
        x = corner.x + k * g.cell_side + j * g.strip
        y = corner.y + draw(st.integers(0, int(spread / g.cell_side) + 2)) * g.cell_side
        nudge = draw(st.sampled_from([0, -1, 1]))
        if nudge:
            x = math.nextafter(x, nudge * math.inf)
        pts.append((x, y))
    among = draw(st.permutations(range(len(pts))))
    among = among[:draw(st.integers(1, len(among)))]
    return g, pts, f, among


@given(binning_cases())
def test_round_keys_bin_as_the_per_point_loop(case):
    # The array keys give every point the cell, strip number and cell
    # members the per-point float loop gives it, on cell and strip lines,
    # far from the origin and for cell keys past 2^63.
    g, pts, f, among = case
    cells = bin_points(g, pts, f, among)
    assert [(c.index, layout(c)) for c in cells] == \
        _reference_view(reference_cells(g, pts, f, among))
    assert all(type(v) is int for c in cells for v in c.index)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 1024])
def test_cell_keys_past_two_to_the_63_stay_exact(m):
    # With r = 1e-12 the cells of points 1e12 apart are numbered past 2^63:
    # keys must not pass through int64.
    pts = [(0.0, 0.0), (1e12, 3.0), (1e12 + 2e-12 * m, 1e12)]
    g = bounding_box(Instance.from_coords(pts, [(0.0, 0.0)], 1e-12), m)
    for f in range(m):
        cells = bin_points(g, pts, f)
        assert max(c.index[0] for c in cells) > 2 ** 63
        assert [(c.index, layout(c)) for c in cells] == \
            _reference_view(reference_cells(g, pts, f))


def test_cells_for_shift_lists_members_ascending_whatever_the_row_order():
    cells = bin_keyed([1.0, 1.0, 0.0, 1.0], [0.0] * 4, [2, 2, 0, 0], [7, 3, 5, 1])
    assert [(c.index, layout(c)) for c in cells] == [((0, 0), [(0, [5])]),
                                                     ((1, 0), [(0, [1]), (2, [3, 7])])]
    assert bin_keyed([], [], [], []) == []


def _ulps_of(v):
    return st.sampled_from([v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)])


@st.composite
def anchored_cases(draw):
    """A tiling and groups of x coordinates far from the origin or not,
    each with points on its own strip lines x0 + j units from its first
    point x0, up to three cell sides past it, or one ulp to either side."""
    m = draw(st.sampled_from([1, 2, 3, 4, 8]))
    g = Grid(Point(0.0, 0.0), m, draw(st.sampled_from([1.0, 0.37, 1e-12])))
    offset = draw(st.sampled_from([0.0, 1e6, 1e9]))
    xs, group = [], []
    for c in range(draw(st.integers(1, 4))):
        x0 = offset + draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 100.0))
        xs.append(x0)
        group.append(c)
        for _ in range(draw(st.integers(0, 5))):
            xs.append(draw(_ulps_of(x0 + draw(st.integers(0, 3 * m)) * g.strip)))
            group.append(c)
    return g, xs, group


_M2 = Grid(Point(0.0, 0.0), 2, 1.0)


@given(anchored_cases())
@example((_M2, [0.0, _M2.cell_side, 0.0, math.nextafter(_M2.cell_side, 0.0)], [0, 0, 1, 1]))
def test_anchored_keys_match_the_per_point_loop(case):
    # Each point's strip counts whole units from its group's least x, as
    # many strips as the group's width takes, past a cell side too.
    g, xs, group = case
    strips = anchored_keys(g, np.array(xs), np.array(group), max(group) + 1)
    least = {c: min(x for x, k in zip(xs, group) if k == c) for c in set(group)}
    assert strips.tolist() == [int((x - least[c]) // g.strip) for x, c in zip(xs, group)]
