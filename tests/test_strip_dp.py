import functools
import math
import operator
import random
from itertools import combinations

import pytest
from conftest import bin_keyed, bin_points, footprint_state_bound
from hypothesis import given
from hypothesis import strategies as st
from reference_strip_dp import compatible, enumerate_strip_subsets, irredundant_footprints
from site_records import CandidateSite, site_columns, site_records, site_table

from sinkcover import strip_dp
from sinkcover.geometry import Point
from sinkcover.grid import CellSites, Strip, bounding_box, strips_of_cell
from sinkcover.instances_io import gen_uniform
from sinkcover.oracle import exact_min_cost_cover
from sinkcover.sites import Instance, generate_candidate_sites, prune_dominated
from sinkcover.strip_dp import CellSolution, StateBudgetError, solve_cell

INF = float("inf")


def _single_cell(inst, m):
    table = prune_dominated(generate_candidate_sites(inst))
    g = bounding_box(inst, m)
    cells = bin_points(g, inst.targets, 0, sites=table)
    assert len(cells) == 1
    cell = cells[0]
    return cell, strips_of_cell(cell), site_records(table)


def _dense_instance(seed, max_n=10, extent=3.8, k_choices=(1, 2)):
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    k = rng.choice(k_choices)
    return Instance.from_coords(
        [(rng.uniform(0, extent), rng.uniform(0, extent)) for _ in range(n)],
        [(rng.uniform(0, extent), rng.uniform(0, extent)) for _ in range(k)], 1.0)


def test_compatible_agree_on_shared():
    assert compatible({1, 2}, {2, 3}, {2})


def test_compatible_dropped_site_rejected():
    assert not compatible({1}, {2}, {2})


def test_compatible_empty_overlap_vacuous():
    assert compatible({1}, {99}, set())


def _sites_from_spec(spec):
    # spec: list of (covered-set, weight)
    return [CandidateSite(Point(float(i), 0.0), frozenset(cov), w, 0)
            for i, (cov, w) in enumerate(spec)]


def test_enumerate_single_cover():
    sites = _sites_from_spec([({0}, 1.0)])
    got = enumerate_strip_subsets([0], {0}, sites, 1)
    assert got == [frozenset({0})]


def test_enumerate_cap_blocks_pair():
    sites = _sites_from_spec([({0}, 1.0), ({1}, 1.0)])
    assert enumerate_strip_subsets([0, 1], {0, 1}, sites, 1) == []


def test_enumerate_counting_bound():
    sites = _sites_from_spec([({0}, 1.0)] * 4)
    got = enumerate_strip_subsets([0, 1, 2, 3], {0}, sites, 2)
    assert len(got) <= math.comb(4, 1) + math.comb(4, 2)
    assert len(got) == 10    # every singleton and pair covers target 0


def test_enumerate_empty_targets_gives_empty_subset():
    sites = _sites_from_spec([({0}, 1.0)])
    got = enumerate_strip_subsets([0], set(), sites, 2)
    assert frozenset() in got


@st.composite
def footprint_pools(draw):
    targets = draw(st.integers(1, 7))
    sites = draw(st.integers(0, 9))
    cover = [draw(st.integers(0, (1 << targets) - 1)) for _ in range(sites)]
    weight = [draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 10.0)))
              for _ in range(sites)]
    shared = sorted(draw(st.sets(st.integers(0, max(sites - 1, 0)), max_size=sites)))
    return shared, cover, weight


@given(footprint_pools())
def test_footprint_table_matches_irredundant_enumeration(pool):
    shared, cover, weight = pool
    table = strip_dp._footprints(shared, cover, weight, 1 << 20)
    assert next(iter(table.items())) == (0, (0.0, 0))
    for cov, (w, mask) in table.items():
        members = [b for b in shared if mask >> b & 1]
        assert mask.bit_count() == len(members)
        assert functools.reduce(operator.or_, (cover[b] for b in members), 0) == cov
        assert sum(weight[b] for b in members) == w   # summed in ascending order
    # Every coverage some subset reaches has an entry as light as the
    # lightest irredundant footprint with that coverage.
    ref: dict[int, float] = {}
    for _, w, cov in irredundant_footprints(shared, cover, weight):
        ref[cov] = min(w, ref.get(cov, INF))
    assert {cov: w for cov, (w, _) in table.items()} == ref


def test_footprint_table_stops_at_its_room():
    cover = [1 << b for b in range(6)]
    full = strip_dp._footprints(list(range(6)), cover, [1.0] * 6, 1 << 20)
    assert len(full) == 64
    assert strip_dp._footprints(list(range(6)), cover, [1.0] * 6, 64) == full
    with pytest.raises(StateBudgetError):
        strip_dp._footprints(list(range(6)), cover, [1.0] * 6, 63)


def test_footprint_states_within_reference_keys(monkeypatch):
    # Each strip stores at most one footprint per coverage of the
    # irredundant enumeration.  Storing every irredundant footprint broke
    # this in five cells here: 4,599 states against 1,395 (coverage, size)
    # keys.
    inst = gen_uniform(30, 2, 1.0, 8.0, 2)
    m = 4
    sites = prune_dominated(generate_candidate_sites(inst))
    table = strip_dp._footprints
    keys = []

    def counting(shared_bits, cover, weight, room):
        ref = irredundant_footprints(shared_bits, cover, weight)
        keys.append(len({cov for _, _, cov in ref}))
        return table(shared_bits, cover, weight, room)

    monkeypatch.setattr(strip_dp, "_footprints", counting)
    g = bounding_box(inst, m)
    for f in range(m):
        for cell in bin_points(g, inst.targets, f, sites=sites):
            keys.clear()
            res = solve_cell(strips_of_cell(cell))
            assert res.counters.subsets_enumerated <= sum(keys), (f, cell.index)


def test_solve_cell_zero_cost_station():
    inst = Instance.from_coords([(0, 0), (0.4, 0)], [(0.2, 0)], 1.0)
    for m in (1, 2, 3):
        _, strips, sites = _single_cell(inst, m)
        res = solve_cell(strips)
        assert isinstance(res, CellSolution)
        assert res.cost == 0.0


def test_solve_cell_two_disjoint_targets():
    inst = Instance.from_coords([(0, 0), (3, 0)], [(1.5, 0)], 1.0)
    _, strips, sites = _single_cell(inst, 2)
    res = solve_cell(strips)
    assert isinstance(res, CellSolution)
    assert res.cost == pytest.approx(1.0, rel=1e-12)
    oracle = exact_min_cost_cover(inst.n, *site_columns(sites))
    assert res.cost == pytest.approx(oracle.cost, rel=1e-12)


def test_solve_cell_empty_cell():
    res = solve_cell([])
    assert isinstance(res, CellSolution)
    assert res.cost == 0.0 and res.site_indices == []


def test_solve_cell_uncoverable_target_is_an_error():
    # Candidate sites always cover every target; a hand-built strip whose
    # target has no site is refused rather than solved wrongly.
    strips = [Strip(number=0, target_indices=(0,), pool_mask=0, sites=CellSites([], [], []))]
    with pytest.raises(ValueError, match="no candidate site covers a target of strip 1"):
        solve_cell(strips)


def test_targetless_strips_store_no_states():
    # A strip without targets has an empty pool and one state, the empty
    # footprint; the sweep is not handed it, so only the strip with the
    # target stores a state, and a missing coverer is named by its strip
    # number.  Target 0 is keyed into strip 1, then strip 2, of a cell.
    table = site_table(_sites_from_spec([({0}, 2.0), ({0}, 1.0)]))
    (cell,) = bin_keyed([0], [0], [1], [0], table)
    res = solve_cell(strips_of_cell(cell))
    assert res.site_indices == [1] and res.cost == 1.0
    assert res.counters.subsets_enumerated == 1
    (cell,) = bin_keyed([0], [0], [2], [0])
    with pytest.raises(ValueError, match="covers a target of strip 3$"):
        solve_cell(strips_of_cell(cell))


def test_solve_cell_matches_oracle_randomized():
    for seed in range(40):
        inst = _dense_instance(seed)
        _, strips, sites = _single_cell(inst, 2)
        res = solve_cell(strips)
        assert isinstance(res, CellSolution)
        oracle = exact_min_cost_cover(inst.n, *site_columns(sites))
        assert res.cost == pytest.approx(oracle.cost, rel=1e-9, abs=1e-12)


def test_solve_cell_cost_matches_reconstruction():
    for seed in range(20):
        inst = _dense_instance(seed)
        cell, strips, sites = _single_cell(inst, 2)
        res = solve_cell(strips)
        assert isinstance(res, CellSolution)
        total = sum(sites[i].weight for i in sorted(res.site_indices))
        assert total == pytest.approx(res.cost, rel=1e-9, abs=1e-12)
        covered = set()
        for i in res.site_indices:
            covered |= sites[i].covered
        assert {t for s in cell.strips for t in s.target_indices} <= covered


def test_solve_cell_two_targets_without_joint_coverer():
    # Two targets in the first strip (same x band, far apart vertically) with
    # no joint coverer: each needs a sensor of its own.
    inst = Instance.from_coords([(0.2, 0.1), (0.3, 1.8)], [(5, 5)], 0.5)
    _, strips, sites = _single_cell(inst, 2)
    res = solve_cell(strips)
    assert len(res.site_indices) == 2
    assert res.cost == exact_min_cost_cover(inst.n, *site_columns(sites)).cost


def test_solve_cell_counters_within_envelope():
    inst = _dense_instance(3)
    _, strips, sites = _single_cell(inst, 2)
    res = solve_cell(strips)
    assert res.counters.subsets_enumerated > 0
    assert res.counters.subsets_enumerated <= footprint_state_bound(strips)


def test_state_budget_is_a_threshold_per_cell(monkeypatch):
    # Below the states the cell needs, the solve stops with the typed error;
    # at or above it, the answer is the unbudgeted one.  The need counts the
    # local-cover entries of every strip, not only the stored footprints.
    inst = _dense_instance(3)
    _, strips, sites = _single_cell(inst, 2)
    full = solve_cell(strips)

    def fits(budget):
        monkeypatch.setattr(strip_dp, "STATE_BUDGET", budget)
        try:
            return solve_cell(strips) == full
        except StateBudgetError as e:
            assert f"more than {budget} DP states" in str(e)
            return False

    lo, hi = 1, 1 << 18
    assert fits(hi)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid + 1, hi)
    assert not fits(lo - 1) and fits(lo) and fits(lo + 1)
    assert lo > full.counters.subsets_enumerated


def _reference_cell_opt(strips, sites):
    """Literal strip recurrence: all subsets of each pool, compatibility on
    the shared pool, coverage of each strip by the union of the current and
    previous subsets, shared sites charged once."""
    pools = [list(s.site_pool) for s in strips]
    tmasks = [set(s.target_indices) for s in strips]

    def cov(subset):
        out = set()
        for i in subset:
            out |= sites[i].covered
        return out

    def w(subset):
        return sum(sites[i].weight for i in subset)

    def subsets(pool):
        for size in range(len(pool) + 1):
            yield from (frozenset(c) for c in combinations(sorted(pool), size))

    prev: dict[frozenset, float] = {}
    for u in subsets(pools[0]):
        if tmasks[0] <= cov(u):
            prev[u] = w(u)
    for i in range(1, len(strips)):
        overlap = set(pools[i - 1]) & set(pools[i])
        cur: dict[frozenset, float] = {}
        for u in subsets(pools[i]):
            best = INF
            for u_prev, base in prev.items():
                if not compatible(u, u_prev, overlap):
                    continue
                if not tmasks[i] <= cov(u | u_prev):
                    continue
                cand = base + w(u - u_prev)
                if cand < best:
                    best = cand
            if best < INF:
                cur[u] = best
        prev = cur
    return min(prev.values(), default=INF)


def test_solver_matches_literal_recurrence():
    # The solver requires each strip's targets to be covered by that strip's
    # own subset; the literal recurrence lets the previous subset help.  Both
    # give the same optimum because any helper belongs to the shared pool and
    # compatibility forces it into the current subset anyway.
    # Pools hold at most 7 sites here, so the reference stays small.
    for seed in range(40):
        inst = _dense_instance(seed, max_n=5, extent=3.5)
        _, strips, sites = _single_cell(inst, 2)
        ref = _reference_cell_opt(strips, sites)
        got = solve_cell(strips).cost
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-12), seed


def test_solve_cell_reproduces_forced_ring_optimum():
    # One sensor per station is forced; the grid is anchored just below and
    # left of the instance so the whole ring lands in one cell.
    from sinkcover.grid import Grid
    from sinkcover.instances_io import gen_counterexample
    inst = gen_counterexample(3, 1.0, 0.01, 1.0)
    table = prune_dominated(generate_candidate_sites(inst))
    x0, y0 = (min(axis) - 1e-6 for axis in zip(*inst.targets.tolist()))
    (cell,) = bin_points(Grid(Point(x0, y0), 4, inst.r), inst.targets, 0, sites=table)
    assert cell.index == (0, 0)
    opt = exact_min_cost_cover(inst.n, *table.columns()).cost
    res = solve_cell(strips_of_cell(cell))
    assert len(res.site_indices) == 3
    assert res.cost == pytest.approx(opt, rel=1e-9)
