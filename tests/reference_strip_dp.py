"""Strip-subset helpers of the literal strip recurrence.

The library's strip DP keeps one state per footprint on the shared pool;
these enumerate whole strip subsets and check that consecutive subsets
agree on their shared sites, and serve the literal recurrence the solver
is compared against.
"""

from itertools import combinations


def compatible(u, u_prev, overlap) -> bool:
    """True iff two consecutive strip subsets agree on every shared site."""
    u = frozenset(u)
    u_prev = frozenset(u_prev)
    return all((s in u) == (s in u_prev) for s in overlap)


def enumerate_strip_subsets(pool, strip_targets, sites, cap):
    """All subsets of `pool` of size at most `cap` covering every strip target.

    Canonically ordered (by size, then sorted members).  Exponential in the
    pool size; intended for small pools and for cross-checking the solver.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    need = frozenset(strip_targets)
    out = []
    pool = sorted(pool)
    for size in range(0, min(cap, len(pool)) + 1):
        for combo in combinations(pool, size):
            cov: set[int] = set()
            for s in combo:
                cov |= sites[s].covered
            if need <= cov:
                out.append(frozenset(combo))
    return out
