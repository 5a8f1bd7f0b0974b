import gc
import json
import math
import random

import numpy as np
import pytest
from conftest import bin_points, layout, solve_state_bound, straddle_instance
from hypothesis import assume, example, given
from hypothesis import strategies as st
from reference_grid import numbered_strips
from reference_oracle import milp_min_cost_cover
from reference_ptas import anchored_cells, components, every_cell_costs, over_budget
from site_records import CandidateSite, site_columns, site_records, site_table

from sinkcover.geometry import COVER_TOL
from sinkcover.grid import bounding_box
from sinkcover.instances_io import gen_uniform, write_solution
from sinkcover.oracle import exact_min_cost_cover
from sinkcover import ptas, strip_dp
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


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf, True])
def test_config_rejects_epsilon_not_positive_and_finite(epsilon):
    with pytest.raises(ValueError, match="^epsilon must be positive and finite$"):
        PtasConfig(epsilon=epsilon)


def test_config_bounds_the_rounds():
    assert PtasConfig(m=MAX_ROUNDS).rounds == MAX_ROUNDS
    assert PtasConfig(epsilon=4 / MAX_ROUNDS).rounds == MAX_ROUNDS
    for m in (0, MAX_ROUNDS + 1, 10**9):
        with pytest.raises(ValueError, match=f"^m must be between 1 and MAX_ROUNDS = {MAX_ROUNDS}$"):
            PtasConfig(m=m)
    # A float m cannot run the rounds, and m=True would write "m": true,
    # which read_solution refuses.
    for m in (2.5, 4.0, True):
        with pytest.raises(ValueError, match="^m must be an int$"):
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
    table = prune_dominated(generate_candidate_sites(inst))
    opt = exact_min_cost_cover(inst.n, *table.columns()).cost
    sol = solve(inst, PtasConfig(m=m), sites=table)
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
    assert sol.total_cost <= min(sol.per_round_costs)
    assert sol.total_cost == pytest.approx(
        sum(sol.placements.weight), rel=1e-12, abs=1e-12)
    assert verify_solution(inst, sol.placements)


@pytest.mark.parametrize("n, k, extent, m", [
    (400, 10, 63.25, 4),    # sparse: hundreds of components
    (14, 2, 8.0, 4),        # dense: a few components
    (60, 3, 20.0, 2),       # one or two components wider than a cell
    (60, 3, 20.0, 3),
    (120, 4, 30.0, 8),
    (60, 3, 20.0, 1),       # four to eight wider than a cell
    (400, 10, 63.25, 2),    # seven to nine wider than a cell
])
def test_costs_equal_every_cell_reference(n, k, extent, m):
    # Anchored components solved once, and skipped one-target DP runs,
    # leave each round's cost bit for bit what laying out every component
    # by itself gives, over pruned sites and over the raw rows, where a
    # lone target has many coverers; the schedule costs that too.
    for seed in range(3):
        inst = gen_uniform(n, k, 1.0, extent, seed + 60)
        raw = generate_candidate_sites(inst)
        for table in (prune_dominated(raw), raw):
            sol = solve(inst, PtasConfig(m=m), sites=table)
            rounds, per_component = every_cell_costs(inst, m, site_records(table))
            assert sol.per_round_costs == rounds
            assert sol.total_cost == min(per_component, min(rounds))


@given(st.integers(1, 9), st.integers(1, 2), st.sampled_from([3.0, 6.0, 10.0, 16.0]),
       st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 4, 6]))
def test_solve_lies_between_the_optimum_and_its_cheapest_round(n, k, extent, seed, m):
    inst = gen_uniform(n, k, 1.0, extent, seed)
    table = prune_dominated(generate_candidate_sites(inst))
    opt = exact_min_cost_cover(inst.n, *table.columns()).cost
    sol = solve(inst, PtasConfig(m=m), sites=table)
    assert verify_solution(inst, sol.placements)
    assert sol.total_cost == sum(sol.placements.weight)
    assert opt * (1 - 1e-9) - 1e-12 <= sol.total_cost <= min(sol.per_round_costs)
    assert min(sol.per_round_costs) <= (1 + 4 / m) * opt * (1 + 1e-9) + 1e-12
    assert sol.per_round_costs[sol.shift_round] == min(sol.per_round_costs)
    counters = sol.config["counters"]
    if counters["anchored"] == counters["components"]:
        assert sol.total_cost == pytest.approx(opt, rel=1e-9, abs=0)


@given(st.sampled_from([2, 3, 4, 8]), st.integers(1, 12),
       st.floats(0.0, 1e-9, exclude_min=True, exclude_max=True),
       st.floats(0.0, 1e-9, exclude_min=True, exclude_max=True),
       st.booleans(), st.sampled_from([0.0, 1e6, 1e9]))
def test_targets_straddling_strip_lines_solve_within_the_bound(
        m, j, delta, eps, two_r_lines, offset):
    # On 2r lines, B passes the next line, so the three targets one site
    # covers would span three strips of a tiling in units of exactly 2r.
    b = straddle_instance(m, j, delta, eps, two_r_lines).targets[3, 0]
    assume(not two_r_lines or b > 2.0 * (j + 1) - 2e-9 * m)
    inst = straddle_instance(m, j, delta, eps, two_r_lines, offset)
    opt, sol = _sandwich(inst, m)
    assert verify_solution(inst, sol.placements)
    assert opt * (1 - 1e-9) - 1e-12 <= sol.total_cost
    assert sol.total_cost <= (1 + 4 / m) * opt * (1 + 1e-9) + 1e-12


@pytest.mark.parametrize("m", [2, 3, 4, 8])
@pytest.mark.parametrize("targets, stations", [
    ([(0.5, 0.2), (2.5, 1.9), (4.0, 0.3), (1.1, 3.3)], [(1.0, 1.0)] * 3),
    ([(0.0, 0.0), (3.0, 3.0), (3.0, 3.0)], [(1.0, 1.0), (1.0, 1.0)]),
    ([(0.7 * i, 1.4 * i) for i in range(7)], [(3.0, 0.0), (-1.0, 4.0)]),
    ([(1.3 * i, -5.0) for i in range(8)], [(4.0, -4.5)]),
    ([(2.0 * i, 0.0) for i in range(7)], [(6.0, -2.0)]),
    ([(0.0, 2.0 * i) for i in range(7)], [(1.5, 5.0), (-3.0, 0.0)]),
    ([(2.0 * i, 2.0 * k) for i in range(3) for k in range(3)], [(2.0, 2.0)]),
    ([(i * 3.0 ** 0.5, float(i)) for i in range(6)], [(0.0, 3.0)]),
    ([(1e6 + 2.0 * i, 1e6) for i in range(6)], [(1e6 + 5.0, 1e6 + 1.0)]),
], ids=["coincident-stations", "coincident-targets", "collinear-diagonal",
        "collinear-row", "chain-2r-row", "chain-2r-column", "lattice-2r",
        "chain-2r-slanted", "chain-2r-at-1e6"])
def test_degenerate_geometry_solves_within_the_bound(targets, stations, m):
    # Coincident stations or targets, collinear targets, and chains and a
    # lattice of targets exactly 2r apart get a verified cover within the
    # shifting bound.
    inst = Instance.from_coords(targets, stations, 1.0)
    opt, sol = _sandwich(inst, m)
    assert verify_solution(inst, sol.placements)
    assert opt * (1 - 1e-9) - 1e-12 <= sol.total_cost
    assert sol.total_cost <= (1 + 4 / m) * opt * (1 + 1e-9) + 1e-12


def _cells_of(inst, group, m, f):
    """The cells of round f holding the targets in `group`."""
    grid = bounding_box(inst, m)
    corner, side = grid.corner(f), grid.cell_side
    return {(math.floor((inst.targets[t, 0] - corner.x) / side),
             math.floor((inst.targets[t, 1] - corner.y) / side)) for t in group}


def _own(sites, group):
    """The sites covering `group`, its targets renumbered from 0 in
    ascending order."""
    index = {t: i for i, t in enumerate(sorted(group))}
    return [CandidateSite(s.position, frozenset(index[t] for t in s.covered),
                          s.weight, s.origin_station)
            for s in sites if s.covered & group]


def _paid(sol, sites, group):
    """What the solution pays for the sites covering `group`, summed in
    ascending site order, as the solver sums a cover."""
    at = {(s.position.x, s.position.y): s for s in sites}
    p = sol.placements
    return sum(w for x, y, w in zip(p.x, p.y, p.weight) if at[x, y].covered & group)


@given(st.integers(1, 12), st.integers(1, 2), st.sampled_from([3.0, 6.0, 10.0, 16.0]),
       st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_anchored_component_costs_its_exact_optimum(n, k, extent, seed, m):
    # Laid out in a cell of its own, a component costs what branch and
    # bound over its own sites proves optimal, both summed in ascending
    # site order.
    inst = gen_uniform(n, k, 1.0, extent, seed)
    table = prune_dominated(generate_candidate_sites(inst))
    sites = site_records(table)
    sol = solve(inst, PtasConfig(m=m), sites=table)
    layout = anchored_cells(inst, m, sites)
    assert sol.config["counters"]["anchored"] == len(layout)
    for group, _ in layout:
        own = _own(sites, group)
        exact = exact_min_cost_cover(len(group), *site_columns(own))
        assert _paid(sol, sites, group) == \
            sum(own[i].weight for i in sorted(exact.site_indices))


def test_anchored_components_cost_the_milp_optimum():
    # Twenty draws at the sparse-400 density.  No site covers targets of
    # two components, so the optimal cover HiGHS proves for a whole draw
    # holds an optimal cover of each component's own sites, and every
    # anchored component costs what its part of that cover costs.
    checked = 0
    for seed in range(20):
        inst = gen_uniform(400, 10, 1.0, 63.25, seed + 1)
        table = prune_dominated(generate_candidate_sites(inst))
        sites = site_records(table)
        sol = solve(inst, PtasConfig(m=4), sites=table)
        ref = milp_min_cost_cover(inst.n, sites)
        picked = sorted(ref.site_indices)
        for group, _ in anchored_cells(inst, 4, sites):
            part = sum(sites[i].weight for i in picked if sites[i].covered & group)
            assert _paid(sol, sites, group) == pytest.approx(part, rel=1e-9, abs=0)
            checked += 1
    assert checked > 3000
    # The sparse ladder, 0.1 targets per r², and the dense n=60 row: every
    # component is anchored, components wider than a cell among them, so
    # whole solves cost the optimum at any m.
    ladder = [gen_uniform(n, 10, 1.0, math.sqrt(n / 0.1), seed)
              for n, seed in [(1000, 3), (1000, 5), (2000, 7), (5000, 3)]]
    for inst in ladder + [gen_uniform(60, 2, 1.0, 8.0, 2)]:
        table = prune_dominated(generate_candidate_sites(inst))
        opt = milp_min_cost_cover(inst.n, site_records(table))
        for m in (1, 2, 4):
            sol = solve(inst, PtasConfig(m=m), sites=table)
            assert sol.config["counters"]["anchored"] == sol.config["counters"]["components"]
            assert sol.total_cost == pytest.approx(opt.cost, rel=1e-9, abs=0)
    assert opt.cost == pytest.approx(32.60821970623742, rel=1e-9)


def test_component_inside_one_cell_is_solved_to_its_optimum():
    checked = 0
    for seed in range(8):
        m = 2 + seed % 3
        inst = gen_uniform(40, 3, 1.0, 18.0, seed + 500)
        table = prune_dominated(generate_candidate_sites(inst))
        sites = site_records(table)
        sol = solve(inst, PtasConfig(m=m), sites=table)
        for group in components(inst.n, sites):
            if all(len(_cells_of(inst, group, m, f)) > 1 for f in range(m)):
                continue
            opt = exact_min_cost_cover(len(group), *site_columns(_own(sites, group))).cost
            assert _paid(sol, sites, group) == pytest.approx(opt, rel=1e-9, abs=1e-12)
            checked += 1
    assert checked > 50


def test_config_counts_components_and_spanning_pairs(monkeypatch):
    # Within the state budget every component is anchored and no round
    # runs.  At 20 states an anchored cell of each of the last two draws is
    # over it, and `spanning` counts the rounds whose cells cut it.
    drawn = [(gen_uniform(n, 3, 1.0, extent, seed + 700), m)
             for seed, (n, extent, m) in enumerate([(400, 63.25, 4), (14, 8.0, 4),
                                                    (60, 20.0, 3), (30, 12.0, 1)])]
    counted = []
    for budget, cases in [(strip_dp.STATE_BUDGET, drawn), (20, drawn[2:])]:
        monkeypatch.setattr(strip_dp, "STATE_BUDGET", budget)
        for inst, m in cases:
            table = prune_dominated(generate_candidate_sites(inst))
            sites = site_records(table)
            counters = solve(inst, PtasConfig(m=m), sites=table).config["counters"]
            layout = anchored_cells(inst, m, sites)
            left = [g for g, cell in layout if over_budget(cell, sites)]
            assert counters["components"] == len(layout)
            assert counters["anchored"] == len(layout) - len(left)
            assert counters["spanning"] == sum(len(_cells_of(inst, g, m, f)) > 1
                                               for g in left for f in range(m))
            counted.append((len(left), counters["spanning"]))
    assert counted == [(0, 0)] * 4 + [(1, 3), (1, 1)]


@pytest.mark.parametrize("args", [(400, 10, 1.0, 63.25, 5), (60, 2, 1.0, 8.0, 2)],
                         ids=["sparse-400", "dense-60"])
def test_solve_leaves_no_cyclic_garbage(args):
    # Every object a solve allocates dies by reference count, so no
    # strip's local-cover memo outlives its strip until a collection.
    inst = gen_uniform(*args)
    solve(inst, PtasConfig(m=4))    # warm up first-call caches
    gc.collect()
    gc.disable()
    try:
        solve(inst, PtasConfig(m=4))
        assert gc.collect() == 0
    finally:
        gc.enable()


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


def test_verify_solution_settles_the_band_with_math_hypot():
    # np.hypot rounds this offset one ulp above math.hypot, and r puts the
    # coverage radius r * (1 + COVER_TOL) exactly on math.hypot's value, so
    # the placement covers the target.  One ulp farther, it does not.
    dx, dy, r = 0.6250357184174307, 0.5527275679799395, 0.8343724661745839
    d = math.hypot(dx, dy)
    assert np.hypot(dx, dy) > d == r * (1.0 + COVER_TOL)
    farther = math.nextafter(dx, math.inf)
    assert math.hypot(farther, dy) == math.nextafter(d, math.inf)
    inst = Instance.from_coords([(0.0, 0.0)], [(5.0, 5.0)], r)
    assert verify_solution(inst, [(dx, dy)])
    assert not verify_solution(inst, [(farther, dy)])


def test_verify_solution_rejects_no_placements():
    inst = Instance.from_coords([(0.0, 0.0)], [(0.0, 0.0)], 1.0)
    assert not verify_solution(inst, [])


@st.composite
def coverage_checks(draw):
    """Targets and placements around an offset: none, repeated, on a target,
    or one reach from a target along an axis."""
    r = draw(st.sampled_from([0.5, 1.0, 2.5]))
    offset = draw(st.sampled_from([0.0, 1e6, -1e6]))
    coord = st.floats(-3.0 * r, 3.0 * r).map(lambda v: v + offset)
    targets = draw(st.lists(st.tuples(coord, coord), max_size=12))
    reach = r * (1.0 + COVER_TOL)
    pool = targets + [(x + reach, y) for x, y in targets] + [(x, y - reach) for x, y in targets]
    place = st.tuples(coord, coord) | st.sampled_from(pool) if pool else st.tuples(coord, coord)
    placements = draw(st.lists(place, max_size=10))
    placements += placements[:draw(st.integers(0, len(placements)))]
    return Instance.from_coords(targets, [(offset, offset)], r), placements


@given(coverage_checks())
def test_verify_solution_matches_all_pairs_check(case):
    inst, placements = case
    reach = inst.r * (1.0 + COVER_TOL)
    expected = all(any(math.hypot(tx - x, ty - y) <= reach for x, y in placements)
                   for tx, ty in inst.targets.tolist())
    assert verify_solution(inst, placements) == expected


@pytest.mark.parametrize("n, k, extent, m", [(400, 10, 63.25, 4), (14, 2, 8.0, 4),
                                             (60, 2, 8.0, 2), (120, 4, 30.0, 1)])
def test_solve_on_columns_matches_solve_on_site_objects(tmp_path, n, k, extent, m):
    # The table `prune_dominated` returns and the table rebuilt from its
    # sites as records give the same solution, field for field and byte for
    # byte.
    for seed in range(2):
        inst = gen_uniform(n, k, 1.0, extent, seed + 80)
        config = PtasConfig(m=m)
        sites = site_records(prune_dominated(generate_candidate_sites(inst)))
        on_columns = solve(inst, config)
        on_objects = solve(inst, config, sites=site_table(sites))
        assert on_columns == on_objects
        write_solution(tmp_path / "columns.json", on_columns)
        write_solution(tmp_path / "objects.json", on_objects)
        assert ((tmp_path / "columns.json").read_bytes()
                == (tmp_path / "objects.json").read_bytes())


def test_solve_builds_a_placement_for_each_chosen_site_only():
    # Sites stay columns through the solve: the placements are the chosen
    # rows' columns, cut from the table in ascending row order, one entry
    # per sensor, each a Python scalar.
    for n, k, extent in ((400, 10, 63.25), (30, 2, 8.0)):
        inst = gen_uniform(n, k, 1.0, extent, 5)
        table = prune_dominated(generate_candidate_sites(inst))
        sol = solve(inst, PtasConfig(m=4), sites=table)
        p = sol.placements
        row_at = {xy: i for i, xy in enumerate(zip(table.x.tolist(), table.y.tolist()))}
        rows = [row_at[xy] for xy in zip(p.x, p.y)]
        assert len(p) == len(rows) > 0 and rows == sorted(set(rows))
        assert p == ptas.placements_of(table, set(rows))
        assert p.station == tuple(table.origin[rows].tolist())
        assert p.weight == tuple(table.weight[rows].tolist())
        assert sol.total_cost == sum(p.weight)
        assert all(type(v) is float for v in p.x + p.y + p.weight)
        assert all(type(v) is int for v in p.station)


def test_solution_deterministic_serialization(tmp_path):
    inst = gen_uniform(9, 2, 1.0, 10.0, 11)
    config = PtasConfig(m=4)
    write_solution(tmp_path / "a.json", solve(inst, config))
    write_solution(tmp_path / "b.json", solve(inst, config))
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_two_targets_without_joint_coverer_solve_to_optimum():
    inst = Instance.from_coords([(0.2, 0.1), (0.3, 1.8)], [(5.0, 5.0)], 0.5)
    table = prune_dominated(generate_candidate_sites(inst))
    opt = exact_min_cost_cover(inst.n, *table.columns()).cost
    sol = solve(inst, PtasConfig(m=2), sites=table)
    assert sol.total_cost == pytest.approx(opt, rel=1e-9)


def test_boundary_site_deduplicated_across_cells():
    # A single cheap site covers two targets that end up in different cells
    # for some round; the union must instantiate it once.
    inst = Instance.from_coords([(0.0, 0.0), (1.0, 0.0), (7.9, 0.0), (8.1, 0.0)],
                                [(8.0, 3.0)], 1.0)
    table = prune_dominated(generate_candidate_sites(inst))
    opt = exact_min_cost_cover(inst.n, *table.columns()).cost
    sol = solve(inst, PtasConfig(m=2), sites=table)
    positions = list(zip(sol.placements.x, sol.placements.y))
    assert len(positions) == len(set(positions))
    assert sol.total_cost <= (1 + 4 / 2) * opt * (1 + 1e-9)


def test_shift_average_audit_all_equal():
    rep = shift_average_audit([5.0, 5.0, 5.0], 5.0)
    assert rep.average == 5.0 and rep.minimum == 5.0
    assert rep.ok


def test_shift_average_audit_randomized():
    for seed in range(10):
        inst = gen_uniform(seed % 10 + 1, 1 + seed % 2, 1.0, 10.0, seed + 100)
        table = prune_dominated(generate_candidate_sites(inst))
        opt = exact_min_cost_cover(inst.n, *table.columns()).cost
        for m in (2, 4):
            sol = solve(inst, PtasConfig(m=m), sites=table)
            rep = shift_average_audit(sol.per_round_costs, opt)
            assert rep.ok, f"seed={seed} m={m}: {rep}"


def test_shift_average_margin_trend():
    # On a fixed family, the slack between the average bound and the realized
    # average shrinks as rounds increase (the bound tightens toward the
    # optimum).  Checked on the family mean to avoid single-instance noise.
    margins = {m: [] for m in (2, 4, 8)}
    for seed in range(8):
        inst = gen_uniform(seed % 6 + 3, 1, 1.0, 10.0, seed + 40)
        table = prune_dominated(generate_candidate_sites(inst))
        opt = exact_min_cost_cover(inst.n, *table.columns()).cost
        for m in margins:
            sol = solve(inst, PtasConfig(m=m), sites=table)
            rep = shift_average_audit(sol.per_round_costs, opt)
            margins[m].append(rep.bound - rep.average)
    mean = {m: sum(v) / len(v) for m, v in margins.items()}
    assert mean[2] >= mean[4] - 1e-9
    assert mean[4] >= mean[8] - 1e-9


def test_counters_exposed():
    inst = gen_uniform(6, 1, 1.0, 8.0, 9)
    table = prune_dominated(generate_candidate_sites(inst))
    sites = site_records(table)
    sol = solve(inst, PtasConfig(m=2), sites=table)
    states = sol.config["counters"]["subsets_enumerated"]
    assert 0 < states <= solve_state_bound(inst, sol, sites)


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
    # Its one component lies in round 0's cell with the strips of its
    # anchored cell, so the round fails without a second DP run.
    inst = gen_uniform(30, 2, 1.0, 8.0, 2)
    monkeypatch.setattr(strip_dp, "STATE_BUDGET", 1000)
    calls = []

    def counting(strips, *columns):
        calls.append(strips)
        return strip_dp.solve_cell(strips, *columns)

    monkeypatch.setattr(ptas, "solve_cell", counting)
    with pytest.raises(StateBudgetError,
                       match=r"^shift 0, cell \(1, 1\): the cell needs more than 1000 DP states"):
        solve(inst, PtasConfig(m=4))
    assert len(calls) == 1


def _four_by_a_line(start=-0.35):
    """At m=1, four targets 0.7 wide from `start` past a cell line of round
    0, by default two on either side of it, and the target (0, 0), which
    anchors the grid."""
    grid = bounding_box(Instance.from_coords([(0.0, 0.0)], [(0.0, 0.0)], 1.0), 1)
    x = grid.corner(0).x + 3 * grid.cell_side + start
    return Instance.from_coords(
        [(0.0, 0.0), (x, 0.2), (x + 0.2, 0.7), (x + 0.5, 0.1), (x + 0.7, 0.6)],
        [(3.0, -2.0)], 1.0)


def test_over_budget_anchored_cell_falls_back_to_the_rounds(monkeypatch):
    # Targets 1-4 form one component.  Its anchored cell is one strip of
    # four targets and needs more than 4 states; the round splits it into
    # two cells of two targets, each within 4.
    inst = _four_by_a_line()
    table = prune_dominated(generate_candidate_sites(inst))
    sites = site_records(table)
    assert [len(g) for g in components(inst.n, sites)] == [1, 4]
    anchored = solve(inst, PtasConfig(m=1), sites=table)
    assert anchored.config["counters"]["anchored"] == 2
    assert anchored.total_cost == exact_min_cost_cover(inst.n, *table.columns()).cost
    monkeypatch.setattr(strip_dp, "STATE_BUDGET", 4)
    sol = solve(inst, PtasConfig(m=1), sites=table)
    assert sol.config["counters"]["anchored"] == 1
    assert sol.config["counters"]["spanning"] == 1
    rounds, per_component = every_cell_costs(inst, 1, sites)
    assert sol.per_round_costs == rounds and sol.total_cost == per_component
    assert sol.total_cost > anchored.total_cost
    assert verify_solution(inst, sol.placements)
    # Within 3 states the round's cells are over the budget too, and the
    # error names the first of them.
    monkeypatch.setattr(strip_dp, "STATE_BUDGET", 3)
    with pytest.raises(StateBudgetError,
                       match=r"^shift 0, cell \(2, 1\): the cell needs more than 3 DP states"):
        solve(inst, PtasConfig(m=1), sites=table)


def test_rounds_solve_only_the_components_past_the_budget(monkeypatch):
    # At 30 states the anchored cells of 3 of the 518 components of the
    # sparse m=2 row are over the budget, and the rounds cut each into
    # cells within it.
    inst = gen_uniform(1000, 10, 1.0, 100.0, 3)
    table = prune_dominated(generate_candidate_sites(inst))
    sites = site_records(table)
    monkeypatch.setattr(strip_dp, "STATE_BUDGET", 30)
    sol = solve(inst, PtasConfig(m=2), sites=table)
    counters = sol.config["counters"]
    assert (counters["components"], counters["anchored"], counters["spanning"]) == \
        (518, 515, 6)
    rounds, per_component = every_cell_costs(inst, 2, sites)
    assert sol.per_round_costs == rounds and sol.total_cost == per_component
    assert sol.total_cost < min(sol.per_round_costs)
    assert verify_solution(inst, sol.placements)
    # Four targets right of the line lie in one strip of round 0's cell,
    # as in their anchored cell: that cell fails with the anchored one,
    # with no second DP run.
    inst = _four_by_a_line(0.15)
    monkeypatch.setattr(strip_dp, "STATE_BUDGET", 4)
    calls = []

    def counting(strips):
        calls.append(strips)
        return strip_dp.solve_cell(strips)

    monkeypatch.setattr(ptas, "solve_cell", counting)
    with pytest.raises(StateBudgetError,
                       match=r"^shift 0, cell \(3, 1\): the cell needs more than 4 DP states"):
        solve(inst, PtasConfig(m=1))
    assert len(calls) == 1


def _reference_calls(inst, m, sites):
    """The cells the solver hands the strip DP, in order, laid out and
    numbered by the references: each anchored cell of a component of more
    than one target, by component, then component by component, for each
    one whose anchored cell is over the state budget, round by round the
    cells holding its targets (`bin_points`), each cell as
    `numbered_strips` gives it from a plain per-target coverers dict."""
    grid = bounding_box(inst, m)
    laid = [(group, cell) for group, cell in anchored_cells(inst, m, sites) if len(group) > 1]
    cells = [cell for _, cell in laid]
    for group, cell in laid:
        if over_budget(cell, sites):
            cells += [layout(c) for f in range(m)
                      for c in bin_points(grid, inst.targets, f, sorted(group))]
    return [numbered_strips(cell, sites) for cell in cells]


def _check_calls(inst, m):
    """Solve `inst` at m, requiring the strip DP to be handed
    `_reference_calls`' cells, in order; the solution and the pruned sites
    as records."""
    table = prune_dominated(generate_candidate_sites(inst))
    sites = site_records(table)
    calls = []

    def recording(strips):
        calls.append(strips)
        return strip_dp.solve_cell(strips)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ptas, "solve_cell", recording)
        sol = solve(inst, PtasConfig(m=m), sites=table)
    expected = _reference_calls(inst, m, sites)
    assert calls == expected
    assert [[s.site_pool for s in strips] for strips in calls] == \
        [[s.site_pool for s in strips] for strips in expected]
    return sol, sites


def _line(count, gap, order=None):
    """`count` targets on a line `gap` apart, target i at place order[i]
    (by default i), and a station below the line's middle."""
    order = range(count) if order is None else order
    return Instance.from_coords([(gap * p, 0.0) for p in order],
                                [(gap * count / 2, -3.0)], 1.0)


@st.composite
def keyed_draws(draw):
    """Sparse, dense and clustered draws, lone targets among them, and
    chains that span cells at m = 2."""
    kind = draw(st.sampled_from(["sparse", "dense", "clustered", "chain"]))
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.integers(1, 4))
    if kind == "sparse":
        n = draw(st.integers(1, 60))
        return gen_uniform(n, 3, 1.0, math.sqrt(n / 0.1), seed), m
    if kind == "dense":
        return gen_uniform(draw(st.integers(1, 14)), 2, 1.0, 8.0, seed), m
    if kind == "chain":
        return _line(draw(st.integers(2, 9)), draw(st.sampled_from([0.7, 1.5, 1.9]))), 2
    rng = random.Random(seed)
    centres = [(rng.uniform(0, 30), rng.uniform(0, 30)) for _ in range(draw(st.integers(1, 4)))]
    targets = [(cx + rng.gauss(0, 0.8), cy + rng.gauss(0, 0.8))
               for cx, cy in centres for _ in range(draw(st.integers(1, 6)))]
    return Instance.from_coords(targets, [(15.0, 15.0), (0.0, 30.0)], 1.0), m


@given(keyed_draws())
@example((_line(70, 0.2), 8))     # one anchored cell of 70 targets
@example((_line(100, 0.2), 8))    # one of 100, wider than a cell
def test_solve_hands_the_strip_dp_the_reference_cells(draw):
    # Cells, their strips, targets, pools and numbering come out of one
    # numpy binning; the references lay them out one target at a time.
    _check_calls(*draw)


@pytest.mark.parametrize("args, m, budget, cost", [
    ((80, 4, 1.0, 14.0, 2), 4, 200, 82.87131215651702),
    ((120, 4, 1.0, 18.0, 38), 2, 100, 295.85166113161),
], ids=["n80-m4", "n120-m2"])
def test_components_sharing_a_round_cell_are_solved_alone(monkeypatch, args, m, budget,
                                                          cost):
    # Two components over the budget in their anchored cells share a cell
    # of round 0 that is over it as well.  Each is solved alone in every
    # round, in the reference cells holding only its targets, where it
    # fits, and the schedule keeps the shifting bound.
    inst = gen_uniform(*args)
    monkeypatch.setattr(strip_dp, "STATE_BUDGET", budget)
    sol, sites = _check_calls(inst, m)
    assert sol.config["counters"]["components"] - sol.config["counters"]["anchored"] == 2
    opt = milp_min_cost_cover(inst.n, sites)
    assert verify_solution(inst, sol.placements)
    assert sol.total_cost == pytest.approx(cost, rel=1e-12)
    assert opt.cost <= sol.total_cost <= (1 + 4 / m) * opt.cost


def _components_of(target_count, table):
    """`ptas._components` over the table's sites."""
    return ptas._components(target_count, table.pairs()[0].tolist(),
                            (table.hi - table.lo).cumsum().tolist())


def _bit_reversed(count):
    """0..count-1 ordered by their bits read backwards."""
    width = max(count - 1, 1).bit_length()
    return sorted(range(count), key=lambda i: int(f"{i:0{width}b}"[::-1], 2))


@pytest.mark.parametrize("order", [None, list(range(39, -1, -1)), _bit_reversed(40),
                                   [p for i in range(20) for p in (i, 39 - i)]],
                         ids=["ascending", "descending", "bit-reversed", "zigzag"])
def test_components_match_the_reference_on_numbered_chains(order):
    # A chain of 40 targets, each sharing a site with the next, numbered
    # so that the lowest target sits at an end, in the middle or anywhere:
    # one component, numbered 0.
    inst = _line(40, 1.5, order)
    table = prune_dominated(generate_candidate_sites(inst))
    comp, count = _components_of(inst.n, table)
    assert (count, comp.tolist()) == (1, [0] * 40)
    assert components(inst.n, site_records(table)) == [set(range(40))]


@given(keyed_draws())
def test_components_match_the_reference(draw):
    # Each target's component, numbered in order of its lowest target.
    inst, _ = draw
    table = prune_dominated(generate_candidate_sites(inst))
    comp, count = _components_of(inst.n, table)
    groups = components(inst.n, site_records(table))
    assert count == len(groups)
    assert comp.tolist() == [next(c for c, g in enumerate(groups) if t in g)
                             for t in range(inst.n)]
