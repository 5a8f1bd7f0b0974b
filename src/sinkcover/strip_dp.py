"""Optimal per-cell coverage via dynamic programming over vertical strips.

A cell splits into m strips one tiling unit wide (`grid.Grid.strip`),
wider than any target set one site covers, so the pools of non-adjacent
strips are disjoint.  Write T_i for strip i's targets, S_i for the sites in
the pools of both strip i and strip i+1, and L_i for strip i's local sites
(in its pool but in neither S_{i-1} nor S_i).  Local sites cover only
targets of their own strip, so strip i+1 sees strip i's choice only through
the footprint F, the chosen part of S_i.  The sweep keeps one cost per
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
C_i, memoized per residual target set.  The memo is the strip's own dict,
handed to a module-level recursion rather than held by a closure that
calls itself, so the sweep builds no reference cycle and each strip's memo
is freed by reference count as soon as the strip ends.

A strip without targets has an empty pool and one state, the empty
footprint, so the sweep is handed only the cell's non-empty strips
(`grid.strips_of_cell`); two of them that are not neighbours in the cell
share no site.  A cell's targets are numbered straight off its strips,
strip by strip.

A cell may store at most STATE_BUDGET states, footprints plus local-cover
memo entries, summed over its strips.  The count is checked as entries are
added; past it solve_cell raises StateBudgetError, so an instance too dense
for the sweep fails fast instead of exhausting memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .grid import Strip

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


class CellSolution(NamedTuple):
    site_indices: list[int]     # ascending
    cost: float
    counters: DpCounters


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


def _local_cover(resid: int, picks: dict[int, list[tuple[int, float, int]]],
                 memo: dict[int, tuple[float, int]], room: int) -> tuple[float, int]:
    """C(R): the cheapest (cost, site mask) covering target mask R with the
    strip's local sites, or (INF, 0) when none exists.

    Some chosen site covers R's lowest target, so the search branches over
    that target's local coverers only: `picks` maps each target bit of the
    strip to its coverers' (cover mask, weight, site bit), in ascending site
    order.  Results are memoized in `memo`, which must hold the empty
    residual; the call computes a residual that `memo` lacks, and past
    `room` entries it raises StateBudgetError.  The strip's tables are
    passed in, not closed over, so nothing here refers to itself and they
    are freed by reference count when the strip ends.
    """
    found = (INF, 0)
    for cb, wb, bit in picks[resid & -resid]:
        rest = resid & ~cb
        cost, mask = memo.get(rest) or _local_cover(rest, picks, memo, room)
        if cost + wb < found[0]:
            found = (cost + wb, mask | bit)
    if len(memo) >= room:
        raise _over_budget()
    memo[resid] = found
    return found


def solve_cell(strips: list[Strip], weights: list[float],
               covers: list[list[int]]) -> CellSolution:
    """Minimum-cost cover of all targets in one cell.

    `strips` are the cell's non-empty strips (`grid.strips_of_cell`), in
    strip order; site g weighs `weights[g]` and covers the targets
    `covers[g]`, and only the sites in the pools are read.  Returns the
    exact optimum over those sites; raises StateBudgetError when the cell
    needs more than STATE_BUDGET states.  The literal all-subsets
    recurrence gives the same costs (see the reference implementation in
    the test suite).
    """
    counters = DpCounters()
    if not strips:
        return CellSolution([], 0.0, counters)

    # Local ids: targets and sites are renumbered inside the cell so subsets
    # and covered-sets become machine ints.  Targets are numbered strip by
    # strip, each strip's in the ascending order `grid.cells_for_shift`
    # lists them in, sites in ascending index order.  Across strips the
    # order of target bits changes nothing; within a strip it picks the
    # target the local cover search branches on, and follows the indices.
    tbit = {t: 1 << k for k, t in
            enumerate([t for st in strips for t in st.target_indices])}
    strip_tmask = []
    hi = 1
    for st in strips:
        lo, hi = hi, hi << len(st.target_indices)
        strip_tmask.append(hi - lo)
    strip_tmask.append(0)
    gids = sorted({g for st in strips for g in st.site_pool})
    sbit = {g: 1 << i for i, g in enumerate(gids)}
    pool_mask = []
    for st in strips:
        pm = 0
        for g in st.site_pool:
            pm |= sbit[g]
        pool_mask.append(pm)
    weight = [weights[g] for g in gids]
    cover = []
    for g in gids:
        msk = 0
        for t in covers[g]:
            msk |= tbit.get(t, 0)
        cover.append(msk)
    shared = [pool_mask[j] & pool_mask[j + 1]
              for j in range(len(strips) - 1)] + [0]

    # Footprints entering strip i, grouped by coverage of T_i; each group
    # keeps its cheapest (cost, footprint).
    incoming: dict[int, tuple[float, int]] = {0: (0.0, 0)}
    # Per strip: footprint -> (cost, predecessor footprint, local sites).
    tables: list[dict[int, tuple[float, int, int]]] = []
    used = 0   # states stored so far in this cell

    for i, st in enumerate(strips):
        out_mask = shared[i]
        tmask = strip_tmask[i]
        table = _footprints(_bit_indices(out_mask), cover, weight,
                            STATE_BUDGET - used)
        used += len(table)
        groups: dict[int, list[tuple[int, float, int]]] = {}
        for fcov, (fw, f) in table.items():
            groups.setdefault(fcov & tmask, []).append((f, fw, fcov))
        memo: dict[int, tuple[float, int]] = {0: (0.0, 0)}
        own = pool_mask[i] & ~out_mask & ~(shared[i - 1] if i else 0)
        local = []
        while own:
            low = own & -own
            b = low.bit_length() - 1
            local.append((cover[b], weight[b], low))
            own ^= low
        picks = {}
        tb = tmask & -tmask
        while tb & tmask:   # the strip's target bits run consecutively
            picks[tb] = [site for site in local if site[0] & tb]
            tb <<= 1
        room = STATE_BUDGET - used

        states: dict[int, tuple[float, int, int]] = {}
        nxt: dict[int, tuple[float, int]] = {}
        for c, members in groups.items():
            best = (INF, 0, 0)
            for c_in, (cost_in, f_in) in incoming.items():
                resid = tmask & ~(c_in | c)
                lcost, lmask = memo.get(resid) or _local_cover(
                    resid, picks, memo, room)
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
            raise ValueError(
                f"no candidate site covers a target of strip {st.number + 1}")
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

    return CellSolution([gids[b] for b in _bit_indices(chosen)],
                        best_cost, counters)
