import math
import random

import numpy as np
import pytest
from reference_geometry import covered_targets
from site_records import CandidateSite, points, pruned_sites, site_records, site_table

from sinkcover.geometry import Point
from sinkcover.oracle import exact_min_cost_cover
from sinkcover.sites import (CandidateTable, Instance, _circle_pair_points,
                             generate_candidate_sites, prune_dominated, site_weight)


def test_site_weight_minimum():
    w, i = site_weight(Point(0, 0), [(3, 4), (1, 1)])
    assert w == pytest.approx(math.sqrt(2)) and i == 1


def test_site_weight_zero_at_station():
    assert site_weight(Point(2, 2), [(2, 2)]) == (0.0, 0)


def test_site_weight_tie_lowest_index():
    w, i = site_weight(Point(0, 0), [(1, 0), (-1, 0)])
    assert w == 1.0 and i == 0


def test_site_weight_requires_stations():
    with pytest.raises(ValueError):
        site_weight(Point(0, 0), [])


def test_instance_requires_station():
    with pytest.raises(ValueError, match="at least one station"):
        Instance(targets=np.zeros((1, 2)), stations=np.empty((0, 2)), r=1.0)


@pytest.mark.parametrize("targets", [
    (), [[0.0, 0.0]], np.zeros(2), np.zeros((1, 3)), np.zeros((1, 2, 1)),
    np.zeros((1, 2), dtype=np.int64), np.zeros((1, 2), dtype=np.float32)])
def test_instance_refuses_what_is_not_an_n_by_2_float64_array(targets):
    with pytest.raises(ValueError, match=r"targets must be an \(n, 2\) float64 array"):
        Instance(targets=targets, stations=np.zeros((1, 2)), r=1.0)
    with pytest.raises(ValueError, match=r"stations must be an \(n, 2\) float64 array"):
        Instance(targets=np.zeros((1, 2)), stations=targets, r=1.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_instance_refuses_non_finite_coordinates(bad):
    points = np.array([[0.0, 1.0], [2.0, bad], [bad, 3.0]])
    with pytest.raises(ValueError, match=rf"^non-finite point \(2.0, {bad}\)$"):
        Instance(targets=points, stations=np.zeros((1, 2)), r=1.0)
    with pytest.raises(ValueError, match=rf"^non-finite point \(2.0, {bad}\)$"):
        Instance(targets=np.zeros((1, 2)), stations=points, r=1.0)
    with pytest.raises(ValueError, match="non-finite point"):
        Instance.from_coords([(0, 0), (bad, 0)], [(0, 0)], 1.0)


def test_instance_marks_its_arrays_read_only():
    targets, stations = np.array([[0.0, 1.0]]), np.array([[2.0, 3.0]])
    inst = Instance(targets=targets, stations=stations, r=1.0)
    for a in (inst.targets, inst.stations):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 5.0
    assert inst.targets.tolist() == [[0.0, 1.0]] and inst.stations.tolist() == [[2.0, 3.0]]


def test_instance_equality_compares_radius_and_coordinates():
    inst = Instance.from_coords([(0.0, 1.0), (2, 3)], [(4, 5)], 1.0)
    assert inst == Instance.from_coords([(-0.0, 1), (2.0, 3.0)], [(4.0, 5.0)], 1)
    assert inst != Instance.from_coords([(0.0, 1.0), (2, 3)], [(4, 5)], 1.5)
    assert inst != Instance.from_coords([(0.0, 1.0), (2, 3)], [(4, 6)], 1.0)
    assert inst != Instance.from_coords([(0.0, 1.0)], [(4, 5)], 1.0)
    assert inst != Instance.from_coords([(0.0, 1.0), (2, 3), (2, 3)], [(4, 5)], 1.0)
    assert inst != [(0.0, 1.0), (2, 3)]
    assert Instance.from_coords([], [(0, 0)], 1.0).targets.shape == (0, 2)


def test_instance_requires_positive_radius():
    with pytest.raises(ValueError):
        Instance.from_coords([(0, 0)], [(1, 1)], -1.0)


def test_generate_best_site_is_circle_projection():
    inst = Instance.from_coords([(0, 0)], [(5, 0)], 1.0)
    sites = pruned_sites(inst)
    assert len(sites) == 1
    best = sites[0]
    assert best.position == Point(1.0, 0.0)
    assert best.covered == {0}
    assert best.weight == pytest.approx(4.0)


def test_tangent_circle_pair_gives_its_signed_midpoint():
    # Circles exactly 2r apart meet at one point, their midpoint, which keeps
    # the sign of -0.0.  Without the tangent case the pair's first point,
    # mx - h * uy = -0.0 - 0.0 * -1.0, would be +0.0.
    xs, ys = _circle_pair_points(np.array([-0.0, -0.0]), np.array([2.0, 0.0]), 1.0)
    assert xs.tolist() == [0.0] and ys.tolist() == [1.0]
    assert math.copysign(1.0, xs[0]) == -1.0


def test_generate_station_inside_detection_circle():
    inst = Instance.from_coords([(0, 0)], [(0.5, 0)], 1.0)
    sites = site_records(generate_candidate_sites(inst))
    station_site = [s for s in sites if s.position == Point(0.5, 0.0)]
    assert len(station_site) == 1
    assert station_site[0].covered == {0}
    assert station_site[0].weight == 0.0


def test_generate_count_without_intersections():
    # Targets spread far apart: no detection circles intersect, so the only
    # candidate classes are stations, targets and per-pair projections.
    coords = [(0, 0), (10, 0), (0, 10), (10, 10)]
    inst = Instance.from_coords(coords, [(5, 5), (20, 20)], 1.0)
    sites = generate_candidate_sites(inst)
    n, k = inst.n, inst.k
    assert len(sites) <= n + k + n * k


def test_generate_count_quadratic_bound():
    rng = random.Random(0)
    for seed in range(10):
        n, k = 6, 2
        inst = Instance.from_coords(
            [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(n)],
            [(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(k)], 1.0)
        sites = generate_candidate_sites(inst)
        assert len(sites) <= 2 * math.comb(n, 2) + n + k + n * k


def test_generate_recompute_invariant():
    rng = random.Random(42)
    inst = Instance.from_coords(
        [(rng.uniform(0, 6), rng.uniform(0, 6)) for _ in range(8)],
        [(rng.uniform(0, 6), rng.uniform(0, 6)) for _ in range(2)], 1.0)
    for s in site_records(generate_candidate_sites(inst)):
        assert s.covered == covered_targets(s.position, points(inst.targets), inst.r)
        w, i = site_weight(s.position, inst.stations.tolist())
        assert s.weight == w and s.origin_station == i


def test_generate_sorted_deterministic():
    inst = Instance.from_coords([(0, 0), (1.5, 0.2)], [(3, 3)], 1.0)
    a = site_records(generate_candidate_sites(inst))
    b = site_records(generate_candidate_sites(inst))
    assert a == b
    keys = [(s.weight, s.position.x, s.position.y) for s in a]
    assert keys == sorted(keys)


def _site(cov, w, pos=(0.0, 0.0)):
    return CandidateSite(Point(*pos), frozenset(cov), w, 0)


def _prune(sites):
    return site_records(prune_dominated(site_table(sites)))


def test_prune_strict_domination():
    a = _site({0}, 4.0, (0, 0))
    b = _site({0, 1}, 3.0, (1, 0))
    assert _prune([a, b]) == [b]


def test_prune_incomparable_kept():
    a = _site({0}, 1.0, (0, 0))
    b = _site({1}, 1.0, (1, 0))
    assert _prune([a, b]) == [a, b]


def test_prune_tie_keeps_smaller_position():
    a = _site({0}, 2.0, (0, 0))
    b = _site({0}, 2.0, (5, 5))
    assert _prune([a, b]) == [a]
    assert _prune([b, a]) == [a]


def test_prune_returns_the_kept_rows_of_its_table():
    # Pruning selects rows: the kept table shares the raw table's members,
    # and its rows are raw rows, in row order.
    rng = random.Random(3)
    inst = Instance.from_coords(
        [(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(40)],
        [(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(3)], 1.0)
    table = generate_candidate_sites(inst)
    kept = prune_dominated(table)
    assert 0 < len(kept) < len(table)
    assert isinstance(kept, CandidateTable) and kept.members is table.members
    raw = site_records(table)
    rows = [raw.index(s) for s in site_records(kept)]
    assert rows == sorted(rows)


def test_prune_keeps_cover_for_every_target():
    rng = random.Random(1)
    for seed in range(20):
        inst = Instance.from_coords(
            [(rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(6)],
            [(rng.uniform(0, 5), rng.uniform(0, 5))], 1.0)
        pruned = pruned_sites(inst)
        covered = set()
        for s in pruned:
            covered |= s.covered
        assert covered == set(range(inst.n))


def test_prune_preserves_exact_optimum():
    rng = random.Random(2)
    for seed in range(25):
        n = rng.randint(1, 8)
        k = rng.randint(1, 2)
        inst = Instance.from_coords(
            [(rng.uniform(0, 6), rng.uniform(0, 6)) for _ in range(n)],
            [(rng.uniform(0, 6), rng.uniform(0, 6)) for _ in range(k)], 1.0)
        sites = generate_candidate_sites(inst)
        full = exact_min_cost_cover(inst.n, *sites.columns())
        slim = exact_min_cost_cover(inst.n, *prune_dominated(sites).columns())
        assert slim.cost == pytest.approx(full.cost, rel=1e-12, abs=1e-12)
