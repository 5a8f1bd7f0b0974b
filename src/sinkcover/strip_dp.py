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

    D_i(F) = min over F' of  D_{i-1}(F') + w(F) + C_i(T_i minus cov(F' | F))

where F' ranges over the footprints on S_{i-1} and C_i(R) is the cheapest
cover of R by sites of L_i.  Each site is paid once: local sites inside
C_i, shared sites in the footprint that holds them.  The sweep is exact over
the candidate-site universe restricted to the cell.

The sweep reads a footprint only through its coverage of T_i and T_{i+1},
so each strip keeps one footprint per coverage, the lightest.  The table is
a knapsack over S_i in which a site joins a footprint only if it covers a
target the footprint does not: weights are non-negative, so a site that
covers nothing new never helps.  Keeping only the lightest footprint per
coverage loses nothing: the same sites added to the lightest one give the
same coverage at no more weight.  Incoming and outgoing footprints are
grouped by coverage of T_i, and a strip costs groups x groups lookups of
C_i, memoized per residual target set.

A cell may store at most STATE_BUDGET states, footprints plus local-cover
memo entries, summed over its strips.  The count is checked as entries are
added; past it solve_cell raises StateBudgetError, so an instance too dense
for the sweep fails fast instead of exhausting memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .grid import Strip
from .sites import CandidateSite

INF = float("inf")
# States one cell may store.  Cells of the benchmark's instances store a few
# hundred; gen_uniform(200, 4, 1.0, 9.5, 1) at m=2 peaks at 193,080 and
# solves; gen_uniform(100, 2, 1.0, 8.0, 2) at m=4 passes 2**18 within two
# seconds and, unbudgeted, runs for minutes.
STATE_BUDGET = 1 << 18


class StateBudgetError(Exception):
    """A cell needs more DP states than STATE_BUDGET."""


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


def _bit_indices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _over_budget() -> StateBudgetError:
    return StateBudgetError(
        f"the cell needs more than {STATE_BUDGET} DP states (footprints plus "
        "local-cover entries); the instance is too dense for the strip DP")


def _footprints(shared_bits: list[int], cover: list[int], weight: list[float],
                room: int) -> dict[int, tuple[float, int]]:
    """The footprint table of the shared sites: covered targets -> (weight,
    site mask) of the lightest footprint with that coverage.

    A knapsack over the sites in ascending order: a site joins an entry only
    if it covers a target the entry does not, and a coverage keeps the
    smaller (weight, mask); weights are summed in ascending site order.
    Entries are listed in the order the knapsack first reaches their
    coverage, the empty footprint first; the sweep breaks equal-cost ties in
    that order.  Raises StateBudgetError when the table would hold more than
    `room` entries.
    """
    table = {0: (0.0, 0)}
    for b in shared_bits:
        cb, wb, bit = cover[b], weight[b], 1 << b
        for cov, (w, mask) in list(table.items()):
            key = cov | cb
            if key != cov:
                entry = (w + wb, mask | bit)
                old = table.get(key)
                if old is None:
                    if len(table) >= room:
                        raise _over_budget()
                    table[key] = entry
                elif entry < old:
                    table[key] = entry
    return table


def _local_cover(local_bits: list[int], cover: list[int], weight: list[float],
                 memo: dict[int, tuple[float, int]], room: int):
    """C(R): the cheapest (cost, site mask) covering target mask R with the
    strip's local sites, or (INF, 0) when none exists.

    Some chosen site covers R's lowest target, so the search branches over
    that target's coverers only.  Results are memoized in `memo`, which must
    hold the empty residual; the returned function computes a residual that
    `memo` lacks, and past `room` entries it raises StateBudgetError.
    """
    coverers: dict[int, list[int]] = {}   # target bit -> its local coverers

    def best(resid: int) -> tuple[float, int]:
        low = resid & -resid
        picks = coverers.get(low)
        if picks is None:
            picks = coverers[low] = [b for b in local_bits if cover[b] & low]
        found = (INF, 0)
        for b in picks:
            rest = resid & ~cover[b]
            cost, mask = memo.get(rest) or best(rest)
            if cost + weight[b] < found[0]:
                found = (cost + weight[b], mask | 1 << b)
        if len(memo) >= room:
            raise _over_budget()
        memo[resid] = found
        return found

    return best


def solve_cell(strips: list[Strip], sites: list[CandidateSite]) -> CellSolution:
    """Minimum-cost cover of all targets in one cell.

    `strips` are the cell's strips (`grid.strips_of_cell`).  Returns the
    exact optimum over the candidate sites in their pools; raises
    StateBudgetError when the cell needs more than STATE_BUDGET states.
    The literal all-subsets recurrence gives the same costs (see the
    reference implementation in the test suite).
    """
    m = len(strips)
    counters = DpCounters()
    targets = sorted(t for st in strips for t in st.target_indices)
    if not targets:
        return CellSolution(frozenset(), 0.0, counters)

    # Local ids: targets and sites are renumbered inside the cell so subsets
    # and covered-sets become machine ints.
    tbit = {g: 1 << i for i, g in enumerate(targets)}
    gids = sorted({g for st in strips for g in st.site_pool})
    sbit = {g: 1 << i for i, g in enumerate(gids)}
    weight = [sites[g].weight for g in gids]
    cover = []
    for g in gids:
        msk = 0
        for t in sites[g].covered:
            msk |= tbit.get(t, 0)
        cover.append(msk)

    pool_mask = []
    strip_tmask = []
    for st in strips:
        pm = 0
        for g in st.site_pool:
            pm |= sbit[g]
        pool_mask.append(pm)
        tm = 0
        for t in st.target_indices:
            tm |= tbit[t]
        strip_tmask.append(tm)
    strip_tmask.append(0)
    shared = [pool_mask[i] & pool_mask[i + 1] for i in range(m - 1)] + [0]

    # Footprints entering strip i, grouped by coverage of T_i; each group
    # keeps its cheapest (cost, footprint).
    incoming: dict[int, tuple[float, int]] = {0: (0.0, 0)}
    # Per strip: footprint -> (cost, predecessor footprint, local sites).
    tables: list[dict[int, tuple[float, int, int]]] = []
    used = 0   # states stored so far in this cell

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
        table = _footprints(_bit_indices(shared[i]), cover, weight,
                            STATE_BUDGET - used)
        used += len(table)
        memo: dict[int, tuple[float, int]] = {0: (0.0, 0)}
        local = _local_cover(_bit_indices(pool_mask[i] & ~o_mask & ~shared[i]),
                             cover, weight, memo, STATE_BUDGET - used)
        groups: dict[int, list[tuple[int, float, int]]] = {}
        for fcov, (fw, f) in table.items():
            groups.setdefault(fcov & tmask, []).append((f, fw, fcov))

        states: dict[int, tuple[float, int, int]] = {}
        nxt: dict[int, tuple[float, int]] = {}
        for c, members in groups.items():
            best = (INF, 0, 0)
            for c_in, (cost_in, f_in) in incoming.items():
                resid = tmask & ~(c_in | c)
                lcost, lmask = memo.get(resid) or local(resid)
                if cost_in + lcost < best[0]:
                    best = (cost_in + lcost, f_in, lmask)
            if best[0] == INF:
                continue
            for f, fw, fcov in members:
                cost = best[0] + fw
                states[f] = (cost, best[1], best[2])
                key = fcov & strip_tmask[i + 1]
                if key not in nxt or (cost, f) < nxt[key]:
                    nxt[key] = (cost, f)
        if not states:
            raise ValueError(f"no candidate site covers a target of strip {i + 1}")
        used += len(memo)
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
