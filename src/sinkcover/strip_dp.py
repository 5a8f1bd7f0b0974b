"""Optimal per-cell coverage via dynamic programming over vertical strips.

A cell of side 2mr splits into m strips of width 2r.  A radius-r disk covers
targets spanning less than 2r horizontally, so a site can serve targets in
at most two adjacent strips and the pools of non-adjacent strips are
disjoint.  Write T_i for strip i's targets, S_i for the sites in the pools
of both strip i and strip i+1, and L_i for strip i's local sites (in its
pool but in neither S_{i-1} nor S_i).  Local sites cover only targets of
their own strip, so strip i+1 sees strip i's choice only through the
footprint F, the chosen part of S_i.  The sweep keeps one cost per
footprint:

    D_i(F) = min over F' of  D_{i-1}(F') + w(F)
                             + C_i(T_i minus cov(F' | F), cap - |F'| - |F|)

where F' ranges over the footprints on S_{i-1} and C_i(R, b) is the
cheapest cover of R by at most b sites of L_i.  Each site is paid once:
local sites inside C_i, shared sites in the footprint that holds them.

The sweep reads a footprint only through its coverage of T_i and T_{i+1}
and its size, so each strip keeps one footprint per (coverage, size) key,
the lightest, and drops it when a footprint with the same coverage and
fewer sites is no heavier: that one leaves more of the cap to local sites.
The table is a knapsack over S_i in which a site joins a footprint only if
it covers a target the footprint does not.  Weights are non-negative, so
some optimum is minimal; each footprint of a minimal solution is
irredundant (every member covers a target no other member covers), and so
the knapsack reaches it.  Incoming and outgoing footprints are grouped by
coverage of T_i and size, and a strip costs groups x groups lookups of C_i.

The cap bounds the number of sites chosen from any one strip's pool; with
the cap large enough the sweep is exact over the candidate-site universe
restricted to the cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .grid import Strip
from .sites import CandidateSite

INF = float("inf")


@dataclass
class DpCounters:
    """Instrumentation for the benchmark harness."""

    subsets_enumerated: int = 0   # footprint states stored, summed over strips

    def merge(self, other: "DpCounters") -> None:
        self.subsets_enumerated += other.subsets_enumerated


@dataclass(frozen=True)
class CellSolution:
    site_indices: frozenset[int]
    cost: float
    counters: DpCounters = field(compare=False, default_factory=DpCounters)


@dataclass(frozen=True)
class CellInfeasible:
    strip_index: int   # 1-based strip where no feasible subset exists
    reason: str


def auto_cap(m: int, k: int) -> int:
    """Default per-strip subset cap.

    An optimal solution needs only a bounded number of sensors per strip:
    a constant per unit area away from stations plus a constant near each
    station.  The constants here are deliberately generous.
    """
    return 8 * m + 16 * k


def _bit_indices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _footprints(shared_bits: list[int], cover: list[int], weight: list[float],
                cap: int) -> dict[tuple[int, int], tuple[float, int]]:
    """The footprint table of the shared sites: (covered targets, size) ->
    (weight, site mask) of the lightest footprint with that key, at most
    `cap` members each.

    A knapsack over the sites in ascending order: a site joins an entry only
    if it covers a target the entry does not, and a key keeps the smaller
    (weight, mask).  Every irredundant footprint is reached, since each of
    its members covers a target of its own, and weights are summed in
    ascending site order.  An entry is kept only if it is strictly lighter
    than every smaller entry with its coverage.  Entries are listed in
    lexicographic order of their member lists, the empty footprint first;
    the sweep breaks equal-cost ties in that order.
    """
    table = {(0, 0): (0.0, 0)}
    for b in shared_bits:
        cb, wb, bit = cover[b], weight[b], 1 << b
        for (cov, size), (w, mask) in list(table.items()):
            if size < cap and cb & ~cov:
                key = (cov | cb, size + 1)
                entry = (w + wb, mask | bit)
                if key not in table or entry < table[key]:
                    table[key] = entry
    kept = []
    lightest: dict[int, float] = {}
    for (cov, size), (w, mask) in sorted(table.items(), key=lambda e: e[0][1]):
        if w < lightest.get(cov, INF):
            lightest[cov] = w
            kept.append(((cov, size), (w, mask)))
    return dict(sorted(kept, key=lambda e: _bit_indices(e[1][1])))


def _local_cover(local_bits: list[int], cover: list[int], weight: list[float]):
    """C(R, b): the cheapest (cost, site mask) covering target mask R with at
    most b of the strip's local sites, or (INF, 0) when none exists.

    Some chosen site covers R's lowest target, so the search branches over
    that target's coverers only, and each pick covers a new target, so a
    budget above |R| never helps.
    """
    memo: dict[tuple[int, int], tuple[float, int]] = {}

    def best(resid: int, budget: int) -> tuple[float, int]:
        if budget < 0:
            return INF, 0
        if resid == 0:
            return 0.0, 0
        budget = min(budget, resid.bit_count())
        if budget == 0:
            return INF, 0
        key = (resid, budget)
        if key not in memo:
            low = resid & -resid
            found = (INF, 0)
            for b in local_bits:
                if cover[b] & low:
                    cost, mask = best(resid & ~cover[b], budget - 1)
                    if cost + weight[b] < found[0]:
                        found = (cost + weight[b], mask | 1 << b)
            memo[key] = found
        return memo[key]

    return best


def solve_cell(strips: list[Strip], sites: list[CandidateSite],
               cap: int) -> CellSolution | CellInfeasible:
    """Minimum-cost cover of all targets in one cell, within the subset cap.

    `strips` are the cell's strips (`grid.strips_of_cell`).  Returns the
    exact optimum over the candidate sites in their pools, or a
    CellInfeasible naming the first strip where no qualifying subset exists
    (cap too tight or a target nobody covers).
    The literal all-subsets recurrence gives the same costs (see the
    reference implementation in the test suite).
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    m = len(strips)
    counters = DpCounters()
    targets = sorted(t for st in strips for t in st.target_indices)
    if not targets:
        return CellSolution(frozenset(), 0.0, counters)

    # Local ids: targets and sites are renumbered inside the cell so subsets
    # and covered-sets become machine ints.
    tid = {g: i for i, g in enumerate(targets)}
    gids = sorted({g for st in strips for g in st.site_pool})
    lid = {g: i for i, g in enumerate(gids)}
    weight = [sites[g].weight for g in gids]
    cover = []
    for g in gids:
        msk = 0
        for t in sites[g].covered:
            if t in tid:
                msk |= 1 << tid[t]
        cover.append(msk)

    pool_mask = []
    strip_tmask = []
    for st in strips:
        pm = 0
        for g in st.site_pool:
            pm |= 1 << lid[g]
        pool_mask.append(pm)
        tm = 0
        for t in st.target_indices:
            tm |= 1 << tid[t]
        strip_tmask.append(tm)
    strip_tmask.append(0)
    shared = [pool_mask[i] & pool_mask[i + 1] for i in range(m - 1)] + [0]

    # Footprints entering strip i, grouped by (coverage of T_i, size); each
    # group keeps its cheapest (cost, footprint).
    incoming: dict[tuple[int, int], tuple[float, int]] = {(0, 0): (0.0, 0)}
    # Per strip: footprint -> (cost, predecessor footprint, local sites).
    tables: list[dict[int, tuple[float, int, int]]] = []

    for i in range(m):
        o_mask = shared[i - 1] if i > 0 else 0
        if o_mask & shared[i]:
            # Covered targets of one site are at most 2r apart, so pools two
            # strips apart are disjoint up to the coverage tolerance.  A site
            # spanning three pools can only come from targets within a few
            # ulps of exactly 2r; refuse rather than mischarge its weight.
            raise ValueError(
                "degenerate geometry: a site's covered targets span three "
                "strips (target separation within tolerance of 2r)")
        tmask = strip_tmask[i]
        local = _local_cover(_bit_indices(pool_mask[i] & ~o_mask & ~shared[i]),
                             cover, weight)
        groups: dict[tuple[int, int], list[tuple[int, float, int]]] = {}
        table = _footprints(_bit_indices(shared[i]), cover, weight, cap)
        for (fcov, k), (fw, f) in table.items():
            groups.setdefault((fcov & tmask, k), []).append((f, fw, fcov))

        states: dict[int, tuple[float, int, int]] = {}
        nxt: dict[tuple[int, int], tuple[float, int]] = {}
        for (c, k), members in groups.items():
            best = (INF, 0, 0)
            for (c_in, k_in), (cost_in, f_in) in incoming.items():
                lcost, lmask = local(tmask & ~(c_in | c), cap - k_in - k)
                if cost_in + lcost < best[0]:
                    best = (cost_in + lcost, f_in, lmask)
            if best[0] == INF:
                continue
            for f, fw, fcov in members:
                cost = best[0] + fw
                states[f] = (cost, best[1], best[2])
                key = (fcov & strip_tmask[i + 1], k)
                if key not in nxt or (cost, f) < nxt[key]:
                    nxt[key] = (cost, f)
        if not states:
            return CellInfeasible(
                strip_index=i + 1,
                reason=f"no feasible subset of strip {i + 1} within cap {cap}")
        counters.subsets_enumerated += len(states)
        tables.append(states)
        incoming = nxt

    # The last strip shares no sites, so its only footprint is empty.
    best_cost = tables[-1][0][0]
    chosen = 0
    f = 0
    for states in reversed(tables):
        _, f_prev, lmask = states[f]
        chosen |= f | lmask
        f = f_prev

    return CellSolution(frozenset(gids[b] for b in _bit_indices(chosen)),
                        best_cost, counters)
