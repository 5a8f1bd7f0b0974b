"""Strip-subset helpers of the literal strip recurrence, and the footprint
enumeration the strip DP's footprint table replaced.

The library's strip DP keeps one state per footprint on the shared pool;
`compatible` and `enumerate_strip_subsets` enumerate whole strip subsets and
check that consecutive subsets agree on their shared sites, and serve the
literal recurrence the solver is compared against.
`irredundant_footprints` lists every irredundant footprint, which the
table must match in least weight per coverage and size.
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


def irredundant_footprints(shared_bits: list[int], cover: list[int],
                           weight: list[float],
                           cap: int) -> list[tuple[int, float, int]]:
    """Irredundant subsets of the shared sites with at most `cap` members.

    Returns (site mask, weight, covered targets) triples, the empty subset
    first.  A subset of an irredundant set is irredundant, so a branch of
    the search ends at the first addition that leaves some member without a
    target of its own.
    """
    out = []

    def grow(start: int, members: tuple[int, ...], mask: int, w: float,
             cov: int, once: int) -> None:
        out.append((mask, w, cov))
        if len(members) == cap:
            return
        multi = cov & ~once   # targets covered at least twice
        for j in range(start, len(shared_bits)):
            b = shared_bits[j]
            grown = members + (b,)
            new_once = (once ^ cover[b]) & ~multi
            if all(cover[a] & new_once for a in grown):
                grow(j + 1, grown, mask | 1 << b, w + weight[b],
                     cov | cover[b], new_once)

    grow(0, (), 0, 0.0, 0, 0)
    return out
