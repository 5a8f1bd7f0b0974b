"""The interval sweep of the discretization audit against the full-grid
sweep in `reference_oracle`: equal reports and equal grid sites."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_oracle import full_grid_refine_audit, full_grid_sites

from sinkcover import oracle
from sinkcover.oracle import grid_refine_audit
from sinkcover.sites import Instance


def _site_rows(sites):
    # repr tells 0.0 from -0.0 and shows every bit of a coordinate.
    return [(repr(s.position), s.covered, s.weight, s.origin_station)
            for s in sites]


def _assert_matches_reference(inst, step):
    sites, points = oracle._grid_sites(inst, step)
    ref_sites, ref_points = full_grid_sites(inst, step)
    assert points == ref_points
    assert _site_rows(sites) == _site_rows(ref_sites)
    assert grid_refine_audit(inst, 0.5, step) == full_grid_refine_audit(
        inst, 0.5, step)


unit = st.floats(min_value=0.0, max_value=1.0)
LAYOUTS = ("uniform", "collinear", "coincident", "two_r_apart")


@st.composite
def station(draw, targets, r, step):
    """A station near the targets, 10 r to 1e6 r from them, or on or midway
    between two rows of the audit's grid, near or far along x."""
    tx, ty = targets[draw(st.integers(0, len(targets) - 1))]
    kind = draw(st.sampled_from(("near", "far", "row", "midrow")))
    if kind == "near":
        return (tx + 3.0 * r * draw(unit) - 2.0 * r,
                ty + 3.0 * r * draw(unit) - 2.0 * r)
    d = r * 10.0 ** draw(st.floats(min_value=1.0, max_value=6.0))
    if kind == "far":
        a = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
        return tx + d * math.cos(a), ty + d * math.sin(a)
    # The grid's rows, as the sweep lays them out.
    tys = [y for _, y in targets]
    ys = np.arange(min(tys) - r, max(tys) + r + step / 2, step)
    j = draw(st.integers(0, len(ys) - 1))
    y = ys[j] if kind == "row" or j + 1 == len(ys) else (ys[j] + ys[j + 1]) / 2
    x = tx + draw(st.sampled_from([-d, d, 3.0 * r * draw(unit) - 1.5 * r]))
    return x, float(y)


@st.composite
def audit_cases(draw):
    r = draw(st.sampled_from([1.0, 0.3, 2.5]))
    # At pitch 2.5r some targets have no grid row or column within reach.
    step = r / draw(st.sampled_from([200, 37, 3, 0.4]))
    # Keep r/200 grids near 640k points so the full-grid reference stays quick.
    extent = 2.0 * r * draw(unit)
    layout = draw(st.sampled_from(LAYOUTS))
    n = draw(st.integers(1, 6))
    if layout == "uniform":
        targets = [(extent * draw(unit), extent * draw(unit)) for _ in range(n)]
    elif layout == "collinear":
        ax, ay = extent * draw(unit), extent * draw(unit)
        targets = [(ax * u, ay * u) for u in draw(st.lists(unit, min_size=n,
                                                           max_size=n))]
    elif layout == "coincident":
        base = [(extent * draw(unit), extent * draw(unit))
                for _ in range(draw(st.integers(1, 3)))]
        targets = [base[draw(st.integers(0, len(base) - 1))] for _ in range(n)]
    else:
        targets = [(0.0, 0.0), (2.0 * r, 0.0), (0.0, 2.0 * r), (2.0 * r, 2.0 * r)]
        targets = targets[:draw(st.integers(2, 4))]
    off = draw(st.sampled_from([0.0, 1e6, -1e6]))
    targets = [(x + off, y + off) for x, y in targets]
    stations = [draw(station(targets, r, step))
                for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        stations[0] = targets[draw(st.integers(0, len(targets) - 1))]
    return Instance.from_coords(targets, stations, r), step


@settings(max_examples=60, deadline=None)
@given(audit_cases())
@example((Instance.from_coords([(0.0, 0.0)], [(3.0, 0.0)], 1.0), 0.25))
def test_windowed_sweep_matches_full_grid(case):
    _assert_matches_reference(*case)


def test_grid_points_at_exactly_r_are_kept():
    # At pitch 0.25 the points (+-1, 0) and (0, +-1) lie at exactly r from
    # the target; the cheapest one for a station at (3, 0) is (1, 0).
    inst = Instance.from_coords([(0.0, 0.0)], [(3.0, 0.0)], 1.0)
    sites, points = oracle._grid_sites(inst, 0.25)
    assert points == 49   # lattice points of the radius-4 disk
    assert _site_rows(sites) == [("Point(x=1.0, y=0.0)", frozenset({0}), 2.0, 0)]


def test_weight_tie_goes_to_least_x():
    # (0.75, 0.5) and (0.5, 0.75) are equally far from the station, and no
    # covering point is nearer; the tie goes to the lesser x.
    inst = Instance.from_coords([(0.0, 0.0)], [(10.0, 10.0)], 1.0)
    sites, _ = oracle._grid_sites(inst, 0.25)
    assert repr(sites[0].position) == "Point(x=0.5, y=0.75)"
    _assert_matches_reference(inst, 0.25)


def test_runs_break_at_each_x_line():
    # The line x = 0 is covered on all nine rows, so its interval ends at
    # the flat grid index where the line x = 0.25 begins; every run of {0}
    # must still end with its own line.
    inst = Instance.from_coords([(0.0, 0.0)], [(0.3, 0.1)], 1.0)
    sites, points = oracle._grid_sites(inst, 0.25)
    assert points == 49
    assert [repr(s.position) for s in sites] == ["Point(x=0.25, y=0.0)"]
    _assert_matches_reference(inst, 0.25)


def test_set_with_two_runs_on_one_line():
    # Target B at (0.9, 0) splits the line x = 0 into {A}, {A, B}, {A}; the
    # cheapest point of {A} for a station at (0, 5) is (0, 1), in the later
    # run of that line.
    inst = Instance.from_coords([(0.0, 0.0), (0.9, 0.0)], [(0.0, 5.0)], 1.0)
    sites, _ = oracle._grid_sites(inst, 0.125)
    only_a = [s for s in sites if s.covered == frozenset({0})]
    assert [(repr(s.position), s.weight) for s in only_a] == [
        ("Point(x=0.0, y=1.0)", 4.0)]
    _assert_matches_reference(inst, 0.125)


def test_tie_within_a_run_goes_to_least_y():
    # On the line x = 0.875 the points y = -0.25 and y = 0.125 are equally
    # far from the station and cheaper than any other covering point.
    inst = Instance.from_coords([(0.0, 0.0)], [(3.0, -0.0625)], 1.0)
    sites, _ = oracle._grid_sites(inst, 0.375)
    assert repr(sites[0].position) == "Point(x=0.875, y=-0.25)"
    _assert_matches_reference(inst, 0.375)


def test_far_station_ties_reach_past_the_nearest_rows():
    # 1e6 r along the target's row, the rows y = -0.01, -0.004, 0.002 and
    # 0.008 of the line x = 0.998 all round to one distance, so the window
    # must reach past the two rows nearest the station, and the least y wins.
    inst = Instance.from_coords([(0.0, 0.0)], [(1e6, 0.0)], 1.0)
    sites, _ = oracle._grid_sites(inst, 0.006)
    assert [(repr(s.position), s.weight) for s in sites] == [
        ("Point(x=0.9980000000000018, y=-0.00999999999999912)", 999999.002)]
    _assert_matches_reference(inst, 0.006)
