import json
import math

import pytest
from conftest import solve_state_bound

from sinkcover.instances_io import SolutionFile, gen_uniform
from sinkcover.oracle import exact_min_cost_cover
from sinkcover import strip_dp
from sinkcover.ptas import (MAX_ROUNDS, PtasConfig, shift_average_audit, solve,
                            verify_solution)
from sinkcover.sites import Instance, generate_candidate_sites, prune_dominated
from sinkcover.strip_dp import StateBudgetError


def test_config_requires_exactly_one_quality_knob():
    with pytest.raises(ValueError):
        PtasConfig()
    with pytest.raises(ValueError):
        PtasConfig(epsilon=0.5, m=4)
    assert PtasConfig(epsilon=1.0).rounds == 4
    assert PtasConfig(epsilon=0.5).rounds == 8
    assert PtasConfig(epsilon=3.0).rounds == 2
    assert PtasConfig(m=3).rounds == 3


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
def test_config_rejects_epsilon_not_positive_and_finite(epsilon):
    with pytest.raises(ValueError, match="^epsilon must be positive and finite$"):
        PtasConfig(epsilon=epsilon)


def test_config_bounds_the_rounds():
    assert PtasConfig(m=MAX_ROUNDS).rounds == MAX_ROUNDS
    assert PtasConfig(epsilon=4 / MAX_ROUNDS).rounds == MAX_ROUNDS
    for m in (0, MAX_ROUNDS + 1, 10**9):
        with pytest.raises(ValueError, match=f"^m must be between 1 and MAX_ROUNDS = {MAX_ROUNDS}$"):
            PtasConfig(m=m)
    # 5e-324 makes 4 / epsilon overflow to inf.
    for epsilon in (4 / (MAX_ROUNDS + 1), 1e-300, 5e-324):
        with pytest.raises(ValueError, match=f"MAX_ROUNDS = {MAX_ROUNDS}$"):
            PtasConfig(epsilon=epsilon)


def test_solve_free_coverage_from_station():
    inst = Instance.from_coords([(0, 0)], [(0.5, 0)], 1.0)
    sol = solve(inst, PtasConfig(m=1))
    assert sol.total_cost == 0.0
    assert len(sol.per_round_costs) == 1


def test_station_at_subnormal_distance():
    # r / 2.2e-311 overflows; the projection of the station onto the
    # target's circle must still be a finite point, and the station covers
    # the target for free.
    inst = Instance.from_coords([(0.0, 0.0)], [(0.0, 2.225073858507e-311)], 1.0)
    sol = solve(inst, PtasConfig(m=2))
    assert sol.total_cost == 0.0
    assert verify_solution(inst, sol.placements)


def test_solve_requires_targets():
    inst = Instance.from_coords([], [(0, 0)], 1.0)
    with pytest.raises(ValueError):
        solve(inst, PtasConfig(m=1))


def _sandwich(inst, m):
    sites = prune_dominated(generate_candidate_sites(inst))
    opt = exact_min_cost_cover(inst.n, sites).cost
    sol = solve(inst, PtasConfig(m=m), sites=sites)
    return opt, sol


def test_sandwich_small_instances():
    for seed in range(12):
        inst = gen_uniform(seed % 10 + 1, 1 + seed % 2, 1.0, 10.0, seed)
        for m in (4, 8):
            opt, sol = _sandwich(inst, m)
            assert sol.total_cost >= opt * (1 - 1e-9) - 1e-12
            assert sol.total_cost <= (1 + 4 / m) * opt * (1 + 1e-9) + 1e-12


def test_solution_invariants():
    inst = gen_uniform(8, 2, 1.0, 10.0, 3)
    sol = solve(inst, PtasConfig(m=4))
    assert len(sol.per_round_costs) == 4
    assert sol.total_cost == min(sol.per_round_costs)
    assert sol.total_cost == pytest.approx(
        sum(p.weight for p in sol.placements), rel=1e-12, abs=1e-12)
    assert verify_solution(inst, sol.placements)


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_verify_solution_rejects_target_beyond_radius(offset):
    # One target exactly r from the only placement, one r * (1 + 2e-9) from
    # it: past the 1e-9 coverage tolerance.
    place = (offset, offset)
    at_r = Instance.from_coords([(offset + 1.0, offset)], [place], 1.0)
    beyond = Instance.from_coords([(offset, offset - (1.0 + 2e-9))], [place], 1.0)
    both = Instance.from_coords([(offset + 1.0, offset), (offset, offset - (1.0 + 2e-9))],
                                [place], 1.0)
    assert verify_solution(at_r, [place])
    assert not verify_solution(beyond, [place])
    assert not verify_solution(both, [place])
    assert verify_solution(both, [place, (offset, offset - 1.0)])


def test_verify_solution_rejects_no_placements():
    inst = Instance.from_coords([(0.0, 0.0)], [(0.0, 0.0)], 1.0)
    assert not verify_solution(inst, [])


def test_solution_deterministic_serialization():
    inst = gen_uniform(9, 2, 1.0, 10.0, 11)
    config = PtasConfig(m=4)
    a = solve(inst, config)
    b = solve(inst, config)
    ja = SolutionFile.from_solution(a, {"m": a.m}).to_json()
    jb = SolutionFile.from_solution(b, {"m": b.m}).to_json()
    assert ja == jb


def test_two_targets_without_joint_coverer_solve_to_optimum():
    inst = Instance.from_coords([(0.2, 0.1), (0.3, 1.8)], [(5.0, 5.0)], 0.5)
    sites = prune_dominated(generate_candidate_sites(inst))
    opt = exact_min_cost_cover(inst.n, sites).cost
    sol = solve(inst, PtasConfig(m=2), sites=sites)
    assert sol.total_cost == pytest.approx(opt, rel=1e-9)


def test_boundary_site_deduplicated_across_cells():
    # A single cheap site covers two targets that end up in different cells
    # for some round; the union must instantiate it once.
    inst = Instance.from_coords([(0.0, 0.0), (1.0, 0.0), (7.9, 0.0), (8.1, 0.0)],
                                [(8.0, 3.0)], 1.0)
    sites = prune_dominated(generate_candidate_sites(inst))
    opt = exact_min_cost_cover(inst.n, sites).cost
    sol = solve(inst, PtasConfig(m=2), sites=sites)
    positions = [(p.position.x, p.position.y) for p in sol.placements]
    assert len(positions) == len(set(positions))
    assert sol.total_cost <= (1 + 4 / 2) * opt * (1 + 1e-9)


def test_shift_average_audit_all_equal():
    rep = shift_average_audit([5.0, 5.0, 5.0], 5.0)
    assert rep.average == 5.0 and rep.minimum == 5.0
    assert rep.ok


def test_shift_average_audit_randomized():
    for seed in range(10):
        inst = gen_uniform(seed % 10 + 1, 1 + seed % 2, 1.0, 10.0, seed + 100)
        sites = prune_dominated(generate_candidate_sites(inst))
        opt = exact_min_cost_cover(inst.n, sites).cost
        for m in (2, 4):
            sol = solve(inst, PtasConfig(m=m), sites=sites)
            rep = shift_average_audit(sol.per_round_costs, opt)
            assert rep.ok, f"seed={seed} m={m}: {rep}"


def test_shift_average_margin_trend():
    # On a fixed family, the slack between the average bound and the realized
    # average shrinks as rounds increase (the bound tightens toward the
    # optimum).  Checked on the family mean to avoid single-instance noise.
    margins = {m: [] for m in (2, 4, 8)}
    for seed in range(8):
        inst = gen_uniform(seed % 6 + 3, 1, 1.0, 10.0, seed + 40)
        sites = prune_dominated(generate_candidate_sites(inst))
        opt = exact_min_cost_cover(inst.n, sites).cost
        for m in margins:
            sol = solve(inst, PtasConfig(m=m), sites=sites)
            rep = shift_average_audit(sol.per_round_costs, opt)
            margins[m].append(rep.margin)
    mean = {m: sum(v) / len(v) for m, v in margins.items()}
    assert mean[2] >= mean[4] - 1e-9
    assert mean[4] >= mean[8] - 1e-9


def test_counters_exposed():
    inst = gen_uniform(6, 1, 1.0, 8.0, 9)
    sites = prune_dominated(generate_candidate_sites(inst))
    sol = solve(inst, PtasConfig(m=2), sites=sites)
    assert sol.counters["subsets_enumerated"] > 0
    assert sol.counters["subsets_enumerated"] <= solve_state_bound(inst, sol, sites)


def test_dense_row_solves_to_optimum():
    # 30 targets in an 8x8 box: the whole instance fits one m=4 cell in
    # some round, so the selected round is exact.  The pinned optimum came
    # from exact_min_cost_cover on the pruned candidate sites (proven
    # optimal after 8.6M branch-and-bound nodes, about 18 s).
    inst = gen_uniform(30, 2, 1.0, 8.0, 2)
    sol = solve(inst, PtasConfig(m=4))
    assert verify_solution(inst, sol.placements)
    assert sol.total_cost == pytest.approx(19.122784217490857, rel=1e-9)


def test_solve_over_budget_raises_typed_error(monkeypatch):
    # The dense row above stores thousands of states in its largest cells.
    inst = gen_uniform(30, 2, 1.0, 8.0, 2)
    monkeypatch.setattr(strip_dp, "STATE_BUDGET", 1000)
    with pytest.raises(StateBudgetError,
                       match=r"^shift \d, cell \(\d+, \d+\): the cell needs more than 1000 DP states"):
        solve(inst, PtasConfig(m=4))
