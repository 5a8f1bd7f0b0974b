import gc
import json
import math

import numpy as np
import pytest
from conftest import solve_state_bound, straddle_instance
from hypothesis import assume, given
from hypothesis import strategies as st
from reference_oracle import milp_min_cost_cover
from reference_ptas import anchored_cells, components, every_cell_costs

from sinkcover.geometry import COVER_TOL
from sinkcover.grid import bounding_box
from sinkcover.instances_io import gen_uniform, write_solution
from sinkcover.oracle import exact_min_cost_cover
from sinkcover import ptas, strip_dp
from sinkcover import sites as sites_module
from sinkcover.ptas import (MAX_ROUNDS, PtasConfig, shift_average_audit, solve,
                            verify_solution)
from sinkcover.sites import (CandidateSite, Instance, generate_candidate_sites,
                             prune_dominated)
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
    sites = list(prune_dominated(generate_candidate_sites(inst)))
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
    assert sol.total_cost <= min(sol.per_round_costs)
    assert sol.total_cost == pytest.approx(
        sum(p.weight for p in sol.placements), rel=1e-12, abs=1e-12)
    assert verify_solution(inst, sol.placements)


@pytest.mark.parametrize("n, k, extent, m", [
    (400, 10, 63.25, 4),    # sparse: hundreds of components, a few too wide
    (14, 2, 8.0, 4),        # dense: a few components, every one anchored
    (60, 3, 20.0, 2),       # one or two components too wide for a cell
    (60, 3, 20.0, 3),
    (120, 4, 30.0, 8),
    (60, 3, 20.0, 1),       # four to eight too wide
    (400, 10, 63.25, 2),    # seven to nine too wide
])
def test_costs_equal_every_cell_reference(n, k, extent, m):
    # Anchored components solved once, and skipped one-target DP runs,
    # leave each round's cost bit for bit what laying out every anchored
    # component by itself and solving every cell of every round gives,
    # over pruned sites and over the raw rows, where a lone target has many
    # coverers; the schedule costs each component's cheapest round of that.
    for seed in range(3):
        inst = gen_uniform(n, k, 1.0, extent, seed + 60)
        raw = generate_candidate_sites(inst)
        for table in (prune_dominated(raw), raw):
            sol = solve(inst, PtasConfig(m=m), sites=table)
            rounds, per_component = every_cell_costs(inst, m, list(table))
            assert sol.per_round_costs == rounds
            assert sol.total_cost == min(per_component, min(rounds))


@given(st.integers(1, 9), st.integers(1, 2), st.sampled_from([3.0, 6.0, 10.0, 16.0]),
       st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 4, 6]))
def test_solve_lies_between_the_optimum_and_its_cheapest_round(n, k, extent, seed, m):
    inst = gen_uniform(n, k, 1.0, extent, seed)
    sites = list(prune_dominated(generate_candidate_sites(inst)))
    opt = exact_min_cost_cover(inst.n, sites).cost
    sol = solve(inst, PtasConfig(m=m), sites=sites)
    assert verify_solution(inst, sol.placements)
    assert sol.total_cost == sum(p.weight for p in sol.placements)
    assert opt * (1 - 1e-9) - 1e-12 <= sol.total_cost <= min(sol.per_round_costs)
    assert min(sol.per_round_costs) <= (1 + 4 / m) * opt * (1 + 1e-9) + 1e-12
    assert sol.per_round_costs[sol.shift_round] == min(sol.per_round_costs)


@given(st.sampled_from([2, 3, 4, 8]), st.integers(1, 12),
       st.floats(0.0, 1e-9, exclude_min=True, exclude_max=True),
       st.floats(0.0, 1e-9, exclude_min=True, exclude_max=True),
       st.booleans(), st.sampled_from([0.0, 1e6, 1e9]))
def test_targets_straddling_strip_lines_solve_within_the_bound(
        m, j, delta, eps, two_r_lines, offset):
    # On 2r lines, B passes the next line, so the three targets one site
    # covers would span three strips of a tiling in units of exactly 2r.
    b = straddle_instance(m, j, delta, eps, two_r_lines).targets[3].x
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
    return {(math.floor((inst.targets[t].x - corner.x) / side),
             math.floor((inst.targets[t].y - corner.y) / side)) for t in group}


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
    at = {s.position: s for s in sites}
    return sum(p.weight for p in sol.placements if at[p.position].covered & group)


@given(st.integers(1, 12), st.integers(1, 2), st.sampled_from([3.0, 6.0, 10.0, 16.0]),
       st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_anchored_component_costs_its_exact_optimum(n, k, extent, seed, m):
    # Laid out in a cell of its own, a component costs what branch and
    # bound over its own sites proves optimal, both summed in ascending
    # site order.
    inst = gen_uniform(n, k, 1.0, extent, seed)
    sites = list(prune_dominated(generate_candidate_sites(inst)))
    sol = solve(inst, PtasConfig(m=m), sites=sites)
    layout = anchored_cells(inst, m, sites)
    assert sol.config["counters"]["anchored"] == sum(c is not None for _, c in layout)
    for group, cell in layout:
        if cell is not None:
            own = _own(sites, group)
            exact = exact_min_cost_cover(len(group), own)
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
        sites = list(prune_dominated(generate_candidate_sites(inst)))
        sol = solve(inst, PtasConfig(m=4), sites=sites)
        ref = milp_min_cost_cover(inst.n, sites)
        assert ref.proven_optimal
        picked = sorted(ref.site_indices)
        for group, cell in anchored_cells(inst, 4, sites):
            if cell is not None:
                part = sum(sites[i].weight for i in picked if sites[i].covered & group)
                assert _paid(sol, sites, group) == pytest.approx(part, rel=1e-9, abs=0)
                checked += 1
    assert checked > 3000


def test_component_inside_one_cell_is_solved_to_its_optimum():
    checked = 0
    for seed in range(8):
        m = 2 + seed % 3
        inst = gen_uniform(40, 3, 1.0, 18.0, seed + 500)
        sites = list(prune_dominated(generate_candidate_sites(inst)))
        sol = solve(inst, PtasConfig(m=m), sites=sites)
        for group in components(inst.n, sites):
            if all(len(_cells_of(inst, group, m, f)) > 1 for f in range(m)):
                continue
            opt = exact_min_cost_cover(len(group), _own(sites, group)).cost
            assert _paid(sol, sites, group) == pytest.approx(opt, rel=1e-9, abs=1e-12)
            checked += 1
    assert checked > 50


def _chains_one_cell_wide():
    """At m=2, a chain of targets from x = 0 to x = one cell side, then to
    one ulp below it: consecutive targets share a site, the ends do not."""
    side = bounding_box(Instance.from_coords([(0.0, 0.0)], [(0.0, 0.0)], 1.0), 2).cell_side
    return [Instance.from_coords([(0.0, 1.0), (1.4, 1.0), (2.8, 1.0), (end, 1.0)],
                                 [(0.0, 0.0)], 1.0)
            for end in (side, math.nextafter(side, -math.inf))]


def test_config_counts_components_and_spanning_pairs():
    drawn = [(gen_uniform(n, 3, 1.0, extent, seed + 700), m)
             for seed, (n, extent, m) in enumerate([(400, 63.25, 4), (14, 8.0, 4),
                                                    (60, 20.0, 3), (30, 12.0, 1)])]
    counted = []
    for inst, m in drawn + [(inst, 2) for inst in _chains_one_cell_wide()]:
        sites = list(prune_dominated(generate_candidate_sites(inst)))
        counters = solve(inst, PtasConfig(m=m), sites=sites).config["counters"]
        layout = anchored_cells(inst, m, sites)
        assert counters["components"] == len(layout)
        assert counters["anchored"] == sum(cell is not None for _, cell in layout)
        assert counters["spanning"] == sum(len(_cells_of(inst, g, m, f)) > 1
                                           for g, cell in layout if cell is None
                                           for f in range(m))
        counted.append((counters["anchored"], counters["spanning"]))
    assert counted[3][1] > 0    # the last draw leaves components to the rounds
    # A chain exactly one cell side wide spans a cell line in both rounds;
    # one ulp narrower, it is anchored.
    assert counted[-2:] == [(0, 2), (1, 0)]


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


def test_lone_targets_of_a_spanning_component_skip_the_dp(monkeypatch):
    # Targets 0, 1 and 2 form a chain 3.8 wide, too wide for a cell at
    # m=1, so the round solves it.  Cell boundaries at x = 0.7 and 2.7 (the
    # far target 3 anchors the grid) leave each alone in its cell, and each
    # takes its cheapest coverer without a DP run; so does target 3, a
    # component of its own.
    inst = Instance.from_coords([(0.5, 0.0), (2.4, 0.0), (4.3, 0.0), (-5.3, -5.3)],
                                [(3.0, 0.0)], 1.0)
    sites = list(prune_dominated(generate_candidate_sites(inst)))
    assert [len(g) for g in components(inst.n, sites)] == [3, 1]
    assert _cells_of(inst, {0, 1, 2}, 1, 0) == {(3, 3), (4, 3), (5, 3)}
    calls = []

    def counting(strips, *columns):
        calls.append(strips)
        return strip_dp.solve_cell(strips, *columns)

    monkeypatch.setattr(ptas, "solve_cell", counting)
    sol = solve(inst, PtasConfig(m=1), sites=sites)
    assert calls == []
    assert sol.per_round_costs == every_cell_costs(inst, 1, sites)[0]
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
    expected = all(any(math.hypot(t.x - x, t.y - y) <= reach for x, y in placements)
                   for t in inst.targets)
    assert verify_solution(inst, placements) == expected


@pytest.mark.parametrize("n, k, extent, m", [(400, 10, 63.25, 4), (14, 2, 8.0, 4),
                                             (60, 2, 8.0, 2), (120, 4, 30.0, 1)])
def test_solve_on_columns_matches_solve_on_site_objects(tmp_path, n, k, extent, m):
    # The table `prune_dominated` returns and the list of its sites give the
    # same solution, field for field and byte for byte.
    for seed in range(2):
        inst = gen_uniform(n, k, 1.0, extent, seed + 80)
        config = PtasConfig(m=m)
        sites = list(prune_dominated(generate_candidate_sites(inst)))
        on_columns, on_objects = solve(inst, config), solve(inst, config, sites=sites)
        assert on_columns == on_objects
        write_solution(tmp_path / "columns.json", on_columns)
        write_solution(tmp_path / "objects.json", on_objects)
        assert ((tmp_path / "columns.json").read_bytes()
                == (tmp_path / "objects.json").read_bytes())


def test_solve_builds_no_candidate_site(monkeypatch):
    built = []

    class Counted(CandidateSite):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(sites_module, "CandidateSite", Counted)
    monkeypatch.setattr(ptas, "CandidateSite", Counted)
    for n, k, extent in ((400, 10, 63.25), (30, 2, 8.0)):
        sol = solve(gen_uniform(n, k, 1.0, extent, 5), PtasConfig(m=4))
        assert sol.placements
    assert built == []


def test_solution_deterministic_serialization(tmp_path):
    inst = gen_uniform(9, 2, 1.0, 10.0, 11)
    config = PtasConfig(m=4)
    write_solution(tmp_path / "a.json", solve(inst, config))
    write_solution(tmp_path / "b.json", solve(inst, config))
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_two_targets_without_joint_coverer_solve_to_optimum():
    inst = Instance.from_coords([(0.2, 0.1), (0.3, 1.8)], [(5.0, 5.0)], 0.5)
    sites = list(prune_dominated(generate_candidate_sites(inst)))
    opt = exact_min_cost_cover(inst.n, sites).cost
    sol = solve(inst, PtasConfig(m=2), sites=sites)
    assert sol.total_cost == pytest.approx(opt, rel=1e-9)


def test_boundary_site_deduplicated_across_cells():
    # A single cheap site covers two targets that end up in different cells
    # for some round; the union must instantiate it once.
    inst = Instance.from_coords([(0.0, 0.0), (1.0, 0.0), (7.9, 0.0), (8.1, 0.0)],
                                [(8.0, 3.0)], 1.0)
    sites = list(prune_dominated(generate_candidate_sites(inst)))
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
        sites = list(prune_dominated(generate_candidate_sites(inst)))
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
        sites = list(prune_dominated(generate_candidate_sites(inst)))
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
    sites = list(prune_dominated(generate_candidate_sites(inst)))
    sol = solve(inst, PtasConfig(m=2), sites=sites)
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


def _four_across_a_line():
    """At m=1, four targets 0.7 wide, two on either side of a cell line of
    round 0, and the target (0, 0), which anchors the grid."""
    grid = bounding_box(Instance.from_coords([(0.0, 0.0)], [(0.0, 0.0)], 1.0), 1)
    line = grid.corner(0).x + 3 * grid.cell_side
    return Instance.from_coords(
        [(0.0, 0.0), (line - 0.35, 0.2), (line - 0.15, 0.7), (line + 0.15, 0.1),
         (line + 0.35, 0.6)], [(3.0, -2.0)], 1.0)


def test_over_budget_anchored_cell_falls_back_to_the_rounds(monkeypatch):
    # Targets 1-4 form one component narrower than a cell.  Its anchored
    # cell is one strip of four targets and needs more than 4 states; the
    # round splits it into two cells of two targets, each within 4.
    inst = _four_across_a_line()
    sites = list(prune_dominated(generate_candidate_sites(inst)))
    assert [len(g) for g in components(inst.n, sites)] == [1, 4]
    anchored = solve(inst, PtasConfig(m=1), sites=sites)
    assert anchored.config["counters"]["anchored"] == 2
    assert anchored.total_cost == exact_min_cost_cover(inst.n, sites).cost
    monkeypatch.setattr(strip_dp, "STATE_BUDGET", 4)
    sol = solve(inst, PtasConfig(m=1), sites=sites)
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
        solve(inst, PtasConfig(m=1), sites=sites)
