"""The discretization audit: its interval sweep against the full-grid sweep
in `reference_oracle` (equal covered sets, least weights and point counts),
and its per-set dominance check against the global check there."""

import math
import random

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_oracle import full_grid_global_audit, full_grid_sites
from site_records import pruned_sites, site_columns

from sinkcover import oracle
from sinkcover.oracle import exact_min_cost_cover, grid_refine_audit
from sinkcover.sites import Instance, generate_candidate_sites, prune_dominated


def _sweep_rows(inst, step):
    # repr shows every bit of a weight.
    sets, least, points = oracle._grid_sets(inst, step)
    return [(s, repr(w)) for s, w in zip(sets.tolist(), least.tolist())], points


def _reference_rows(inst, step):
    sites, points = full_grid_sites(inst, step)
    return sorted((sum(1 << t for t in s.covered), repr(s.weight))
                  for s in sites), points


def _assert_matches_reference(inst, step):
    rows, points = _sweep_rows(inst, step)
    assert (rows, points) == _reference_rows(inst, step)
    columns = prune_dominated(generate_candidate_sites(inst)).columns()
    rep = grid_refine_audit(inst, *columns, step)
    assert (rep.grid_candidate_points, rep.distinct_cover_sets) == (points, len(rows))
    assert rep.undominated == 0, rep


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
def test_sweep_matches_full_grid(case):
    _assert_matches_reference(*case)


@settings(max_examples=40, deadline=None)
@given(audit_cases(), st.integers(0, 2**32 - 1))
def test_passing_dominance_audit_implies_the_global_check(case, seed):
    # Candidates dropped at random make some draws fail the dominance
    # audit; every draw that passes it must pass the global check too.
    inst, step = case
    rng = random.Random(seed)
    columns = site_columns([s for s in pruned_sites(inst) if rng.random() >= 0.1])
    if grid_refine_audit(inst, *columns, step).undominated == 0:
        opt = exact_min_cost_cover(inst.n, *columns).cost
        assert full_grid_global_audit(inst, opt, step).ok_lower


def test_dominance_flags_more_dropped_candidates_than_the_global_check():
    # With a seeded 10% of the pruned candidates dropped, the per-set check
    # flags every draw the global check flags, and more.
    by_dominance, by_global = set(), set()
    for i in range(30):
        rng = random.Random(f"drop-10/{i}")
        pts = [(rng.uniform(0, 4.0), rng.uniform(0, 4.0)) for _ in range(10)]
        inst = Instance.from_coords(pts[:8], pts[8:], 1.0)
        columns = site_columns([s for s in pruned_sites(inst) if rng.random() >= 0.1])
        if grid_refine_audit(inst, *columns, 1.0 / 50).undominated:
            by_dominance.add(i)
        try:
            opt = exact_min_cost_cover(inst.n, *columns).cost
        except ValueError:      # the drop left a target with no coverer
            opt = math.inf
        if not full_grid_global_audit(inst, opt, 1.0 / 50).ok_lower:
            by_global.add(i)
    assert by_global < by_dominance, (sorted(by_global), sorted(by_dominance))


def test_grid_points_at_exactly_r_are_kept():
    # At pitch 0.25 the points (+-1, 0) and (0, +-1) lie at exactly r from
    # the target; the cheapest one for a station at (3, 0) is (1, 0).
    inst = Instance.from_coords([(0.0, 0.0)], [(3.0, 0.0)], 1.0)
    assert _sweep_rows(inst, 0.25) == ([(1, "2.0")], 49)


def test_runs_break_at_each_x_line():
    # The line x = 0 is covered on all nine rows, so its interval ends at
    # the flat grid index where the line x = 0.25 begins; every run of {0}
    # must still end with its own line.  The cheapest point is (0.25, 0).
    inst = Instance.from_coords([(0.0, 0.0)], [(0.3, 0.1)], 1.0)
    rows, points = _sweep_rows(inst, 0.25)
    assert points == 49
    assert rows == [(1, repr(float(np.hypot(0.25 - 0.3, 0.0 - 0.1))))]
    _assert_matches_reference(inst, 0.25)


def test_set_with_two_runs_on_one_line():
    # Target B at (0.9, 0) splits the line x = 0 into {A}, {A, B}, {A}; the
    # cheapest point of {A} for a station at (0, 5) is (0, 1), in the later
    # run of that line.
    inst = Instance.from_coords([(0.0, 0.0), (0.9, 0.0)], [(0.0, 5.0)], 1.0)
    rows, _ = _sweep_rows(inst, 0.125)
    assert dict(rows)[1] == "4.0"
    _assert_matches_reference(inst, 0.125)


@st.composite
def searches(draw):
    """Ranges [lo, hi) in an axis of `size` indices, a test per element that
    is false, then true on its range and arbitrary outside it, and guesses
    anywhere: in the range, negative, past `size` or far off."""
    size = draw(st.integers(1, 40))
    ends = st.integers(0, size) | st.just(0) | st.just(size)
    rows, ranges, guesses = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        lo, hi = sorted((draw(ends), draw(ends)))
        flip = draw(st.integers(lo, hi))
        row = [draw(st.booleans()) for _ in range(size)]
        row[lo:hi] = [j >= flip for j in range(lo, hi)]
        rows.append(row)
        ranges.append((lo, hi))
        guesses.append(draw(st.integers(lo - 2, hi + 2)
                            | st.integers(-3 * size, 3 * size)
                            | st.integers(-10**12, 10**12)))
    return np.array(rows), ranges, guesses


@settings(max_examples=300, deadline=None)
@given(searches())
def test_first_true_equals_a_linear_scan_for_any_guess(case):
    table, ranges, guesses = case
    lo, hi = (np.array(a) for a in zip(*ranges))
    elems = np.arange(len(table))

    def test(j):
        # Each element is asked inside its range, or at the placeholder 0.
        assert (((lo <= j) & (j < hi)) | (j == 0)).all()
        return table[elems, j]

    got = oracle._first_true(test, lo, hi, np.array(guesses))
    scan = [next((j for j in range(a, b) if row[j]), b)
            for row, (a, b) in zip(table.tolist(), ranges)]
    assert got.tolist() == scan


def test_first_true_settles_a_good_guess_in_four_tests():
    # Two tests prove each answer lies within one of its guess, and two
    # more settle it; a range of 10**6 would take 20 rounds of bisection.
    answer = np.array([0, 1, 500_000, 999_999, 10**6])
    calls = []

    def test(j):
        calls.append(j)
        return j >= answer

    for off in (-1, 0, 1):
        calls.clear()
        got = oracle._first_true(test, np.zeros(5, np.int64),
                                 np.full(5, 10**6), answer + off)
        assert got.tolist() == answer.tolist() and len(calls) <= 4
