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

Only irredundant footprints are enumerated: every member covers a target
of T_i or T_{i+1} that no other member covers.  Weights are non-negative,
so some optimum is minimal, and every footprint of a minimal solution is
irredundant.  The transition reads a footprint only through its coverage
of T_i and its size, so incoming and outgoing footprints are grouped by
that pair and a strip costs groups x groups lookups of C_i.

The cap bounds the number of sites chosen from any one strip's pool; with
the cap large enough the sweep is exact over the candidate-site universe
restricted to the cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .grid import Cell, strips_of_cell
from .sites import CandidateSite, coverers_by_target

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
    station.  The constants here are deliberately generous; "verify" mode
    (solving with the cap and the cap plus one) guards against them ever
    binding.
    """
    return 8 * m + 16 * k


def _bit_indices(mask: int) -> list[int]:
    out = []
    b = 0
    while mask:
        if mask & 1:
            out.append(b)
        mask >>= 1
        b += 1
    return out


def _footprints(shared_bits: list[int], cover: list[int], weight: list[float],
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


def solve_cell(cell: Cell, sites: list[CandidateSite],
               cap: int) -> CellSolution | CellInfeasible:
    """Minimum-cost cover of all targets in one cell, within the subset cap.

    Returns the exact optimum over the candidate sites appearing in the
    cell's strip pools, or a CellInfeasible naming the first strip where no
    qualifying subset exists (cap too tight or a target nobody covers).
    The literal all-subsets recurrence gives the same costs (see the
    reference implementation in the test suite).
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    strips = cell.strips
    if strips is None:
        strips = strips_of_cell(cell, coverers_by_target(sites))
    m = len(strips)
    counters = DpCounters()
    if not cell.target_indices:
        return CellSolution(frozenset(), 0.0, counters)

    # Local ids: targets and sites are renumbered inside the cell so subsets
    # and covered-sets become machine ints.
    tid = {g: i for i, g in enumerate(cell.target_indices)}
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
        for fp in _footprints(_bit_indices(shared[i]), cover, weight, cap):
            groups.setdefault((fp[2] & tmask, fp[0].bit_count()), []).append(fp)

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
