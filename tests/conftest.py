from hypothesis import settings

from sinkcover.grid import bounding_box, cells_for_shift, strips_of_cell
from sinkcover.sites import coverers_by_target

settings.register_profile("ci", derandomize=True, max_examples=60)
settings.load_profile("ci")


def footprint_state_bound(strips):
    """Most footprint states the strip DP can store for one cell.

    The footprint after strip i is a subset of the pool shared with strip
    i+1, and the table keeps one per coverage of T_i and T_{i+1}, so strip i
    stores at most min(2^(|T_i| + |T_{i+1}|), 2^|shared pool|) of them.
    """
    total = 0
    for i, st in enumerate(strips):
        nxt = strips[i + 1] if i + 1 < len(strips) else None
        shared = set(st.site_pool) & set(nxt.site_pool) if nxt else set()
        targets = len(st.target_indices) + (len(nxt.target_indices) if nxt else 0)
        total += 1 << min(targets, len(shared))
    return total


def solve_state_bound(instance, solution, sites):
    """`footprint_state_bound` summed over every cell of every shift round
    of a solve that used `sites`."""
    m = len(solution.per_round_costs)
    grid = bounding_box(instance, m)
    coverers = coverers_by_target(sites)
    return sum(footprint_state_bound(strips_of_cell(cell, coverers))
               for f in range(m)
               for cell in cells_for_shift(grid, instance.targets, f))
