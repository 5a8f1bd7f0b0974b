import math
import random
from itertools import combinations

import pytest

from sinkcover.geometry import Point
from sinkcover.instances_io import gen_counterexample, gen_uniform
from sinkcover.oracle import (exact_min_cost_cover, greedy_cover,
                              grid_refine_audit, strip_sensor_census)
from sinkcover.sites import (CandidateSite, Instance, generate_candidate_sites,
                             prune_dominated)


def _site(cov, w):
    return CandidateSite(Point(float(w), 0.0), frozenset(cov), float(w), 0)


def _sites(spec):
    return [CandidateSite(Point(float(i), 0.0), frozenset(cov), float(w), 0)
            for i, (cov, w) in enumerate(spec)]


def _exhaustive(target_count, sites):
    best = math.inf
    for size in range(0, len(sites) + 1):
        for combo in combinations(range(len(sites)), size):
            cov = set()
            for i in combo:
                cov |= sites[i].covered
            if cov >= set(range(target_count)):
                best = min(best, sum(sites[i].weight for i in combo))
    return best


def test_exact_single_site():
    res = exact_min_cost_cover(1, _sites([({0}, 4.0)]))
    assert res.cost == 4.0 and res.proven_optimal


def test_exact_prefers_shared_site():
    sites = _sites([({0}, 1.0), ({1}, 1.0), ({0, 1}, 1.5)])
    res = exact_min_cost_cover(2, sites)
    assert res.cost == pytest.approx(1.5)
    assert res.site_indices == {2}
    assert _exhaustive(2, sites) == pytest.approx(1.5)


def test_exact_counterexample_family():
    inst = gen_counterexample(3, 1.0, 0.01, 1.0)
    sites = prune_dominated(generate_candidate_sites(inst))
    res = exact_min_cost_cover(inst.n, sites)
    assert res.cost == pytest.approx(0.03, rel=1e-9)
    assert len(res.site_indices) == 3


def test_exact_infeasible_names_target():
    res = exact_min_cost_cover(2, _sites([({0}, 1.0)]))
    assert not res.feasible
    assert res.infeasible_target == 1


def test_exact_empty_universe():
    res = exact_min_cost_cover(0, [])
    assert res.cost == 0.0 and res.feasible


def test_exact_matches_exhaustive_randomized():
    rng = random.Random(17)
    for _ in range(30):
        t = rng.randint(1, 6)
        s = rng.randint(1, 12)
        spec = []
        for _ in range(s):
            cov = {i for i in range(t) if rng.random() < 0.5}
            spec.append((cov, rng.uniform(0, 5)))
        for i in range(t):
            spec.append(({i}, rng.uniform(0, 5)))
        sites = _sites(spec)
        res = exact_min_cost_cover(t, sites)
        assert res.cost == pytest.approx(_exhaustive(t, sites), rel=1e-12)


def test_exact_cost_stable_under_shuffle():
    rng = random.Random(23)
    inst = gen_uniform(8, 2, 1.0, 8.0, 5)
    sites = prune_dominated(generate_candidate_sites(inst))
    base = exact_min_cost_cover(inst.n, sites)
    for _ in range(5):
        perm = list(range(len(sites)))
        rng.shuffle(perm)
        shuffled = [sites[i] for i in perm]
        res = exact_min_cost_cover(inst.n, shuffled)
        assert res.cost == pytest.approx(base.cost, rel=1e-12, abs=1e-12)


def test_exact_cardinality_constraint():
    sites = _sites([({0}, 1.0), ({1}, 1.0), ({0, 1}, 3.0)])
    free = exact_min_cost_cover(2, sites)
    assert free.cost == pytest.approx(2.0)
    forced = exact_min_cost_cover(2, sites, max_sites=1)
    assert forced.cost == pytest.approx(3.0)
    impossible = exact_min_cost_cover(2, _sites([({0}, 1.0), ({1}, 1.0)]),
                                      max_sites=1)
    assert not impossible.feasible


def test_greedy_single_site_covers_all():
    sites = _sites([({0, 1}, 2.0)])
    res = greedy_cover(2, sites)
    assert res.site_indices == {0} and not res.proven_optimal


def test_greedy_picks_cheap_singletons():
    sites = _sites([({0}, 1.0), ({1}, 1.0), ({0, 1}, 2.5)])
    res = greedy_cover(2, sites)
    assert res.cost == pytest.approx(2.0)
    assert res.site_indices == {0, 1}


def test_greedy_never_beats_exact():
    for seed in range(15):
        inst = gen_uniform(seed % 8 + 1, 1 + seed % 2, 1.0, 8.0, seed)
        sites = prune_dominated(generate_candidate_sites(inst))
        g = greedy_cover(inst.n, sites)
        e = exact_min_cost_cover(inst.n, sites)
        assert g.cost >= e.cost - 1e-12


def test_grid_refine_single_target_converges():
    # One target, one station outside the detection circle: both optima
    # approach station distance minus r as the pitch shrinks.
    inst = Instance.from_coords([(0, 0)], [(4, 0)], 1.0)
    sites = prune_dominated(generate_candidate_sites(inst))
    opt = exact_min_cost_cover(inst.n, sites).cost
    assert opt == pytest.approx(3.0, rel=1e-12)
    gaps = []
    for step in (0.2, 0.1, 0.05):
        rep = grid_refine_audit(inst, opt, step)
        assert rep.ok_lower
        gaps.append(rep.gap)
    assert all(g >= -1e-9 for g in gaps)
    assert gaps[-1] <= gaps[0] + 1e-9    # refinement shrinks the gap
    assert gaps[-1] <= 0.05 * 2          # within O(step) of the discrete optimum


def test_grid_refine_randomized_bounds():
    for seed in range(6):
        inst = gen_uniform(seed % 4 + 1, 1 + seed % 2, 1.0, 5.0, seed)
        sites = prune_dominated(generate_candidate_sites(inst))
        opt = exact_min_cost_cover(inst.n, sites).cost
        rep = grid_refine_audit(inst, opt, 1.0 / 100)
        assert rep.ok_lower
        assert rep.discrete_opt <= rep.grid_opt + 0.04 * max(rep.grid_solution_size, 1)


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf, 0.0, -0.5])
def test_grid_refine_rejects_bad_step(step):
    inst = Instance.from_coords([(0, 0)], [(4, 0)], 1.0)
    with pytest.raises(ValueError, match="step must be positive and finite"):
        grid_refine_audit(inst, 3.0, step)


def test_census_single_sensor():
    inst = Instance.from_coords([(0, 0)], [(3, 0)], 1.0)
    rep = strip_sensor_census(inst, [Point(1.0, 0.0)], 2)
    assert rep.max_per_strip == 1
    assert rep.max_per_square == 1


def test_census_counterexample_cluster():
    inst = gen_counterexample(3, 1.0, 0.01, 1.0)
    sites = prune_dominated(generate_candidate_sites(inst))
    res = exact_min_cost_cover(inst.n, sites)
    pos = [sites[i].position for i in sorted(res.site_indices)]
    rep = strip_sensor_census(inst, pos, 4)
    assert 1 <= rep.max_per_strip <= 3
    assert sum(rep.strip_counts.values()) == 3


def test_census_density_on_verified_solves():
    # The density lemma behind the paper's running time: an optimum places
    # O(m) sensors in any 2r strip.  The solver enforces no such bound, so
    # the census measures it on the selected rounds, 5 to 30 targets in an
    # 8x8 box.
    from sinkcover.ptas import PtasConfig, solve, verify_solution
    worst = 0
    for seed in range(6):
        inst = gen_uniform(5 + 5 * seed, 2, 1.0, 8.0, seed + 300)
        sol = solve(inst, PtasConfig(m=4))
        assert verify_solution(inst, sol.placements)
        pos = [p.position for p in sol.placements]
        rep = strip_sensor_census(inst, pos, 4, shift=sol.shift_round_used)
        assert sum(rep.strip_counts.values()) == len(pos)
        worst = max(worst, rep.max_per_strip)
    print(f"  density lemma: at most {worst} sensors in one 2r strip (m=4)")
    assert worst >= 1


def test_census_clustered_stations():
    # Stations bunched together force co-resident sensors into one strip.
    inst = Instance.from_coords(
        [(0, 0), (0.1, 2.2)],
        [(0.0, 1.0), (0.05, 1.1)], 1.0)
    sites = prune_dominated(generate_candidate_sites(inst))
    res = exact_min_cost_cover(inst.n, sites)
    pos = [sites[i].position for i in sorted(res.site_indices)]
    rep = strip_sensor_census(inst, pos, 2)
    assert rep.max_per_strip >= 1
    assert sum(rep.strip_counts.values()) == len(pos)
