import gc
import math
import random
from itertools import combinations

import pytest

from sinkcover.geometry import Point
from sinkcover.instances_io import gen_counterexample, gen_uniform
from census import strip_sensor_census
from reference_oracle import full_grid_global_audit, greedy_cover_rescan
from site_records import CandidateSite, pruned_sites, site_columns
from sinkcover.oracle import exact_min_cost_cover, greedy_cover, grid_refine_audit
from sinkcover.sites import Instance


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
    res = exact_min_cost_cover(1, [4.0], [[0]])
    assert res.cost == 4.0


def test_exact_prefers_shared_site():
    sites = _sites([({0}, 1.0), ({1}, 1.0), ({0, 1}, 1.5)])
    res = exact_min_cost_cover(2, *site_columns(sites))
    assert res.cost == pytest.approx(1.5)
    assert res.site_indices == {2}
    assert _exhaustive(2, sites) == pytest.approx(1.5)


def test_exact_tie_goes_to_least_site_tuple():
    # Both covers cost 2.0: {1, 2} is found first, then (0,) wins the tie
    # as the lesser tuple of site indices.
    sites = _sites([({0, 1}, 2.0), ({0}, 1.0), ({1}, 1.0)])
    res = exact_min_cost_cover(2, *site_columns(sites))
    assert res.cost == 2.0 and res.site_indices == {0}
    assert res.nodes_explored == 5


def test_exact_counterexample_family():
    inst = gen_counterexample(3, 1.0, 0.01, 1.0)
    sites = pruned_sites(inst)
    res = exact_min_cost_cover(inst.n, *site_columns(sites))
    assert res.cost == pytest.approx(0.03, rel=1e-9)
    assert len(res.site_indices) == 3


def test_exact_infeasible_names_target():
    with pytest.raises(ValueError, match="target 1"):
        exact_min_cost_cover(2, [1.0], [[0]])


def test_exact_empty_universe():
    res = exact_min_cost_cover(0, [], [])
    assert res.cost == 0.0


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
        res = exact_min_cost_cover(t, *site_columns(sites))
        assert res.cost == pytest.approx(_exhaustive(t, sites), rel=1e-12)


def test_exact_cost_stable_under_shuffle():
    rng = random.Random(23)
    inst = gen_uniform(8, 2, 1.0, 8.0, 5)
    sites = pruned_sites(inst)
    base = exact_min_cost_cover(inst.n, *site_columns(sites))
    for _ in range(5):
        perm = list(range(len(sites)))
        rng.shuffle(perm)
        shuffled = [sites[i] for i in perm]
        res = exact_min_cost_cover(inst.n, *site_columns(shuffled))
        assert res.cost == pytest.approx(base.cost, rel=1e-12, abs=1e-12)


def test_greedy_single_site_covers_all():
    sites = _sites([({0, 1}, 2.0)])
    res = greedy_cover(2, *site_columns(sites))
    assert res.site_indices == {0}


def test_greedy_infeasible_names_target():
    with pytest.raises(ValueError, match="target 1"):
        greedy_cover(3, [1.0, 2.0], [[0], [2]])


def test_greedy_picks_cheap_singletons():
    sites = _sites([({0}, 1.0), ({1}, 1.0), ({0, 1}, 2.5)])
    res = greedy_cover(2, *site_columns(sites))
    assert res.cost == pytest.approx(2.0)
    assert res.site_indices == {0, 1}


def _outcome(cover, *args):
    """A cover's result, or the text of the ValueError it raises."""
    try:
        return cover(*args)
    except ValueError as e:
        return str(e)


def test_greedy_picks_match_the_rescan():
    # The lazy heap picks what rescanning every site on each step picks,
    # lowest index on equal ratios; the integer weights make ties common.
    # Both refuse a draw that leaves a target uncovered, naming the same one.
    rng = random.Random(71)
    for n in (1, 5, 12, 40):
        for _ in range(20):
            spec = [(set(rng.sample(range(n), rng.randint(1, min(n, 4)))),
                     rng.choice([0, 1, 2, 3, 6]))
                    for _ in range(rng.randint(1, 3 * n))]
            sites = _sites(spec)
            assert (_outcome(greedy_cover, n, *site_columns(sites))
                    == _outcome(greedy_cover_rescan, n, sites))
    for seed in range(6):
        inst = gen_uniform(40 + 20 * seed, 3, 1.0, 12.0, seed + 900)
        sites = pruned_sites(inst)
        assert greedy_cover(inst.n, *site_columns(sites)) == \
            greedy_cover_rescan(inst.n, sites)


def test_greedy_never_beats_exact():
    for seed in range(15):
        inst = gen_uniform(seed % 8 + 1, 1 + seed % 2, 1.0, 8.0, seed)
        sites = pruned_sites(inst)
        g = greedy_cover(inst.n, *site_columns(sites))
        e = exact_min_cost_cover(inst.n, *site_columns(sites))
        assert g.cost >= e.cost - 1e-12


def test_grid_refine_single_target_converges():
    # One target, one station outside the detection circle: both optima
    # approach station distance minus r as the pitch shrinks.
    inst = Instance.from_coords([(0, 0)], [(4, 0)], 1.0)
    sites = pruned_sites(inst)
    opt = exact_min_cost_cover(inst.n, *site_columns(sites)).cost
    assert opt == pytest.approx(3.0, rel=1e-12)
    gaps = []
    for step in (0.2, 0.1, 0.05):
        assert grid_refine_audit(inst, *site_columns(sites), step).undominated == 0
        rep = full_grid_global_audit(inst, opt, step)
        assert rep.ok_lower
        gaps.append(rep.gap)
    assert all(g >= -1e-9 for g in gaps)
    assert gaps[-1] <= gaps[0] + 1e-9    # refinement shrinks the gap
    assert gaps[-1] <= 0.05 * 2          # within O(step) of the discrete optimum


def test_grid_refine_randomized_bounds():
    for seed in range(6):
        inst = gen_uniform(seed % 4 + 1, 1 + seed % 2, 1.0, 5.0, seed)
        sites = pruned_sites(inst)
        opt = exact_min_cost_cover(inst.n, *site_columns(sites)).cost
        assert grid_refine_audit(inst, *site_columns(sites), 1.0 / 100).undominated == 0
        rep = full_grid_global_audit(inst, opt, 1.0 / 100)
        assert rep.ok_lower
        assert rep.discrete_opt <= rep.grid_opt + 0.04 * max(rep.grid_solution_size, 1)


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf, 0.0, -0.5])
def test_grid_refine_rejects_bad_step(step):
    inst = Instance.from_coords([(0, 0)], [(4, 0)], 1.0)
    with pytest.raises(ValueError, match="step must be positive and finite"):
        grid_refine_audit(inst, *site_columns(pruned_sites(inst)), step)


def test_exact_and_grid_audit_leave_no_cyclic_garbage():
    # An audit-sized draw: 12 targets and 2 stations in a 6x6 box.  The
    # branch and bound is a module-level recursion over explicit state, so
    # both calls free everything by reference count.
    rng = random.Random("audit-12/1751/0")
    pts = [(rng.uniform(0, 6.0), rng.uniform(0, 6.0)) for _ in range(14)]
    inst = Instance.from_coords(pts[:12], pts[12:], 1.0)
    columns = site_columns(pruned_sites(inst))
    # Warm up first-call caches.
    exact_min_cost_cover(inst.n, *columns)
    grid_refine_audit(inst, *columns, 0.005)
    gc.collect()
    gc.disable()
    try:
        res = exact_min_cost_cover(inst.n, *columns)
        assert gc.collect() == 0
        rep = grid_refine_audit(inst, *columns, 0.005)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert res.nodes_explored == 158
    assert rep.undominated == 0


def test_census_single_sensor():
    inst = Instance.from_coords([(0, 0)], [(3, 0)], 1.0)
    rep = strip_sensor_census(inst, [(1.0, 0.0)], 2)
    assert rep.max_per_strip == 1
    assert rep.max_per_square == 1


def test_census_counterexample_cluster():
    inst = gen_counterexample(3, 1.0, 0.01, 1.0)
    sites = pruned_sites(inst)
    res = exact_min_cost_cover(inst.n, *site_columns(sites))
    pos = [(sites[i].position.x, sites[i].position.y) for i in sorted(res.site_indices)]
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
        pos = list(zip(sol.placements.x, sol.placements.y))
        rep = strip_sensor_census(inst, pos, 4, shift=sol.shift_round)
        assert sum(rep.strip_counts.values()) == len(pos)
        worst = max(worst, rep.max_per_strip)
    print(f"  density lemma: at most {worst} sensors in one 2r strip (m=4)")
    assert worst >= 1


def test_census_reports_the_strips_cells_for_shift_bins_sensors_into():
    # The census bins sensors with the solver's tiling: the strips that
    # cells_for_shift gives a sensor list are the census's strips, and each
    # sensor's strip is floor((x - corner.x) / 2r) counted within its cell.
    from conftest import bin_points

    from sinkcover.grid import bounding_box
    from sinkcover.ptas import PtasConfig, solve
    m = 4
    for seed in range(4):
        inst = gen_uniform(20, 2, 1.0, 8.0, seed + 310)
        sol = solve(inst, PtasConfig(m=m))
        f = sol.shift_round
        pos = list(zip(sol.placements.x, sol.placements.y))
        g = bounding_box(inst, m)
        binned = {(*cell.index, s.number + 1): len(s.target_indices)
                  for cell in bin_points(g, pos, f) for s in cell.strips}
        corner, side = g.corner(f), g.cell_side
        expected: dict = {}
        for x, y in pos:
            ix = math.floor((x - corner.x) / side)
            key = (ix, math.floor((y - corner.y) / side),
                   math.floor((x - corner.x) / (2.0 * g.r)) - ix * m + 1)
            expected[key] = expected.get(key, 0) + 1
        assert binned == expected
        assert strip_sensor_census(inst, pos, m, shift=f).strip_counts == binned


def test_census_clustered_stations():
    # Stations bunched together force co-resident sensors into one strip.
    inst = Instance.from_coords(
        [(0, 0), (0.1, 2.2)],
        [(0.0, 1.0), (0.05, 1.1)], 1.0)
    sites = pruned_sites(inst)
    res = exact_min_cost_cover(inst.n, *site_columns(sites))
    pos = [(sites[i].position.x, sites[i].position.y) for i in sorted(res.site_indices)]
    rep = strip_sensor_census(inst, pos, 2)
    assert rep.max_per_strip >= 1
    assert sum(rep.strip_counts.values()) == len(pos)
