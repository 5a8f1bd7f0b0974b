import math
import random

import numpy as np
import pytest
from reference_geometry import covered_targets

from sinkcover import sites as sites_module
from sinkcover.geometry import Point
from sinkcover.oracle import exact_min_cost_cover
from sinkcover.sites import (CandidateSite, CandidateTable, Instance, _circle_pair_points,
                             generate_candidate_sites, prune_dominated, site_weight)


def test_site_weight_minimum():
    w, i = site_weight(Point(0, 0), [Point(3, 4), Point(1, 1)])
    assert w == pytest.approx(math.sqrt(2)) and i == 1


def test_site_weight_zero_at_station():
    assert site_weight(Point(2, 2), [Point(2, 2)]) == (0.0, 0)


def test_site_weight_tie_lowest_index():
    w, i = site_weight(Point(0, 0), [Point(1, 0), Point(-1, 0)])
    assert w == 1.0 and i == 0


def test_site_weight_requires_stations():
    with pytest.raises(ValueError):
        site_weight(Point(0, 0), [])


def test_instance_requires_station():
    with pytest.raises(ValueError):
        Instance(targets=(), stations=(), r=1.0)


def test_instance_requires_positive_radius():
    with pytest.raises(ValueError):
        Instance.from_coords([(0, 0)], [(1, 1)], -1.0)


def test_generate_best_site_is_circle_projection():
    inst = Instance.from_coords([(0, 0)], [(5, 0)], 1.0)
    sites = list(prune_dominated(generate_candidate_sites(inst)))
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
    sites = generate_candidate_sites(inst)
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
    for s in generate_candidate_sites(inst):
        assert s.covered == covered_targets(s.position, inst.targets, inst.r)
        w, i = site_weight(s.position, inst.stations)
        assert s.weight == w and s.origin_station == i


def test_generate_sorted_deterministic():
    inst = Instance.from_coords([(0, 0), (1.5, 0.2)], [(3, 3)], 1.0)
    a = generate_candidate_sites(inst)
    b = generate_candidate_sites(inst)
    assert list(a) == list(b)
    keys = [(s.weight, s.position.x, s.position.y) for s in a]
    assert keys == sorted(keys)


def _site(cov, w, pos=(0.0, 0.0)):
    return CandidateSite(Point(*pos), frozenset(cov), w, 0)


def _prune(sites):
    return list(prune_dominated(CandidateTable.from_sites(sites)))


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


def test_prune_builds_only_kept_sites(monkeypatch):
    built = []

    class Counted(CandidateSite):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(sites_module, "CandidateSite", Counted)
    rng = random.Random(3)
    inst = Instance.from_coords(
        [(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(40)],
        [(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(3)], 1.0)
    table = generate_candidate_sites(inst)
    kept = prune_dominated(table)
    assert 0 < len(kept) < len(table)
    assert isinstance(kept, CandidateTable) and kept.members is table.members
    assert built == []
    sites = list(kept)
    assert len(built) == len(kept) == len(sites)
    assert sites == [kept[i] for i in range(len(kept))]


def test_prune_keeps_cover_for_every_target():
    rng = random.Random(1)
    for seed in range(20):
        inst = Instance.from_coords(
            [(rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(6)],
            [(rng.uniform(0, 5), rng.uniform(0, 5))], 1.0)
        pruned = list(prune_dominated(generate_candidate_sites(inst)))
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
        pruned = list(prune_dominated(sites))
        full = exact_min_cost_cover(inst.n, list(sites))
        slim = exact_min_cost_cover(inst.n, pruned)
        assert slim.cost == pytest.approx(full.cost, rel=1e-12, abs=1e-12)
