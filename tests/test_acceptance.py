"""Acceptance suite.

Every criterion is pinned at its stated tolerance and prints a single
PASS/FAIL line (visible with `pytest -s` or in captured output).  The whole
module runs in well under the five-minute budget on a laptop.
"""

import functools
import math
import random
from itertools import combinations

import pytest
from conftest import bin_points, site_columns, solve_state_bound
from reference_geometry import coverage_angle_halfwidth, s_prime_location
from reference_oracle import full_grid_global_audit

from sinkcover.geometry import Point, dist
from sinkcover.grid import bounding_box, strips_of_cell
from sinkcover.instances_io import gen_counterexample, gen_uniform
from sinkcover.oracle import exact_min_cost_cover, grid_refine_audit
from sinkcover.ptas import PtasConfig, shift_average_audit, solve, verify_solution
from sinkcover.sites import coverers_by_target, generate_candidate_sites, prune_dominated
from sinkcover.strip_dp import solve_cell

REL = 1e-9


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {label}] FAIL")
                raise
            print(f"[criterion {label}] PASS")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def guarantee_runs():
    """Shared run data for criteria 1 and 6: 200 seeded instances, each
    solved with m in {2, 4, 8} against the oracle optimum.  The whole batch
    must fit the five-minute budget."""
    import time
    start = time.perf_counter()
    runs = []
    for seed in range(200):
        n = seed % 10 + 1
        k = 1 + seed % 2
        inst = gen_uniform(n, k, 1.0, 10.0, seed)
        sites = list(prune_dominated(generate_candidate_sites(inst)))
        opt = exact_min_cost_cover(inst.n, sites).cost
        per_m = {}
        for m in (2, 4, 8):
            per_m[m] = solve(inst, PtasConfig(m=m), sites=sites)
        runs.append((seed, inst, opt, per_m))
    elapsed = time.perf_counter() - start
    print(f"  200 instances x m in {{2,4,8}} solved+oracled in {elapsed:.1f}s")
    assert elapsed < 300.0
    return runs


@criterion("1 approximation guarantee")
def test_criterion_1_approximation_guarantee(guarantee_runs):
    violations = []
    for seed, inst, opt, per_m in guarantee_runs:
        for m, sol in per_m.items():
            lo = opt * (1 - REL) - 1e-12
            hi = (1 + 4 / m) * opt * (1 + REL) + 1e-12
            if not (lo <= sol.total_cost <= hi):
                violations.append((seed, m, opt, sol.total_cost))
            if not verify_solution(inst, sol.placements):
                violations.append((seed, m, "infeasible", None))
    assert not violations, violations[:5]


@criterion("2 per-cell DP exactness")
def test_criterion_2_dp_exactness():
    mismatches = []
    m = 2
    for seed in range(100):
        rng = random.Random(10_000 + seed)
        n = rng.randint(1, 10)
        k = rng.randint(1, 2)
        inst = gen_uniform(n, k, 1.0, 3.8, 20_000 + seed)
        sites = list(prune_dominated(generate_candidate_sites(inst)))
        g = bounding_box(inst, m)
        cells = bin_points(g, inst.targets, 0)
        assert len(cells) == 1, f"seed {seed}: instance spans {len(cells)} cells"
        cell = cells[0]
        strips = strips_of_cell(cell, coverers_by_target(sites))
        res = solve_cell(strips, *site_columns(sites))
        opt = exact_min_cost_cover(inst.n, sites).cost
        if not math.isclose(res.cost, opt, rel_tol=REL, abs_tol=1e-12):
            mismatches.append((seed, res.cost, opt))
    assert not mismatches, mismatches[:5]


@criterion("3 counterexample reproduction")
def test_criterion_3_counterexample():
    alpha, beta, r = 1.0, 0.01, 1.0
    for k in range(2, 7):
        inst = gen_counterexample(k, alpha, beta, r)
        sites = list(prune_dominated(generate_candidate_sites(inst)))
        res = exact_min_cost_cover(inst.n, sites)
        assert res.proven_optimal
        assert len(res.site_indices) == k, f"k={k}: used {len(res.site_indices)}"
        assert math.isclose(res.cost, k * beta, rel_tol=REL, abs_tol=1e-12)
        # Every cover by fewer than k sites costs more.
        for size in range(1, k):
            for combo in combinations(sites, size):
                if len(frozenset().union(*(s.covered for s in combo))) == inst.n:
                    cost = sum(s.weight for s in combo)
                    assert cost > res.cost + 1e-9, f"k={k}: {size} sites cost {cost}"


@criterion("4 geometry identity checks")
def test_criterion_4_geometry_identities():
    # Closed form half-angle at the extremal configuration, any radius.
    for r in (1.0, 0.5, 2.5, 10.0):
        got = coverage_angle_halfwidth(r / 2, r / 4, r)
        assert abs(got - math.acos(13 / 20)) <= 1e-12

    # Replacement-point x-coordinate beats 2*delta on sampled valid triples.
    rng = random.Random(404)
    for _ in range(10_000):
        r = rng.uniform(0.05, 20.0)
        a = rng.uniform(1e-6, r / 2)
        delta = rng.uniform(1e-9, a / 4)
        p = s_prime_location(a, r, delta)
        assert p.x > 2 * delta

    # Angular coverage: every sampled point in the guaranteed wedge is
    # covered by the sensor disk or the station disk.
    rng = random.Random(405)
    violations = 0
    for a, a_prime, r in [(0.5, 0.25, 1.0), (0.2, 0.1, 1.0), (1.25, 0.5, 2.5)]:
        theta = coverage_angle_halfwidth(a, a_prime, r)
        sensor = Point(a, 0.0)
        reach = r * (1 + REL)
        for _ in range(10_000):
            rho = r + rng.uniform(0.0, 1.0) * a_prime
            phi = rng.uniform(-theta, theta)
            pt = Point(rho * math.cos(phi), rho * math.sin(phi))
            if dist(pt, sensor) > reach and rho > reach:
                violations += 1
    assert violations == 0


@criterion("5 discretization audit")
def test_criterion_5_discretization_audit():
    failures = []
    r = 1.0
    for seed in range(50):
        n = seed % 5 + 1
        k = 1 + seed % 2
        inst = gen_uniform(n, k, r, 5.0, 500 + seed)
        sites = list(prune_dominated(generate_candidate_sites(inst)))
        opt = exact_min_cost_cover(inst.n, sites).cost
        dom = grid_refine_audit(inst, sites, r / 200)
        if dom.undominated:
            failures.append((seed, "undominated grid sets", dom.worst_excess))
        rep = full_grid_global_audit(inst, opt, r / 200)
        if rep.grid_opt < rep.discrete_opt - 1e-9:
            failures.append((seed, "grid beat discrete", rep.gap))
        if rep.discrete_opt > rep.grid_opt + 0.02 * r * max(rep.grid_solution_size, 1):
            failures.append((seed, "discrete too far above grid", rep.gap))
    assert not failures, failures[:5]


@criterion("6 shift-average audit")
def test_criterion_6_shift_average(guarantee_runs):
    failures = []
    for seed, inst, opt, per_m in guarantee_runs:
        for m, sol in per_m.items():
            rep = shift_average_audit(sol.per_round_costs, opt)
            if not rep.ok:
                failures.append((seed, m, rep.average, rep.bound))
    assert not failures, failures[:5]


@criterion("7 strip independence")
def test_criterion_7_strip_independence():
    # A radius-r disk cannot cover targets in width-2r strips two or more
    # apart, for any strip anchor.
    rng = random.Random(777)
    r = 1.0
    for _ in range(100_000):
        cx, cy = rng.uniform(-100, 100), rng.uniform(-100, 100)
        pts = []
        for _ in range(2):
            ang = rng.uniform(0.0, 2 * math.pi)
            rad = r * math.sqrt(rng.uniform(0.0, 1.0))
            pts.append(cx + rad * math.cos(ang))
        anchor = rng.uniform(-200, 0)
        i = math.floor((pts[0] - anchor) / (2 * r))
        j = math.floor((pts[1] - anchor) / (2 * r))
        assert abs(i - j) <= 1, (cx, cy, pts, anchor)


@criterion("8 runtime scaling envelope")
def test_criterion_8_counter_envelope():
    # Stored footprint states against one per subset of each strip's and its
    # neighbour's targets, or of their shared pool if smaller (see
    # conftest.footprint_state_bound).
    worst_ratio = 0.0
    total_states = total_bound = 0
    for seed in range(12):
        n = 4 + seed % 7
        k = 1 + seed % 2
        inst = gen_uniform(n, k, 1.0, 8.0, 900 + seed)
        sites = list(prune_dominated(generate_candidate_sites(inst)))
        for m in (2, 4):
            sol = solve(inst, PtasConfig(m=m), sites=sites)
            states = sol.config["counters"]["subsets_enumerated"]
            bound = solve_state_bound(inst, sol, sites)
            assert states <= bound, (seed, m, states, bound)
            worst_ratio = max(worst_ratio, states / bound)
            total_states += states
            total_bound += bound
    print(f"  states/bound worst ratio: {worst_ratio:.3f}, "
          f"overall {total_states}/{total_bound}")
