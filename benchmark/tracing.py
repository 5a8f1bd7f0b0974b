"""Spans and counts at sinkcover's layer boundaries, recorded from outside.

`install` replaces the public layer functions at the module globals the
program calls them through (for example `sinkcover.ptas.solve_cell`), so
nothing under `src/` knows it is being traced.  Each wrapped call records a
span: name, start, end, parent span and the op it belongs to.  Counts are
read off the return values at the same boundaries.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: float, end: float,
                 parent: int | None, op: int):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Return `fn` recording a span per call; `count(tracer, args, result)`
        runs after the span closes, so its cost lands in the parent."""
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0,
                        self._stack[-1] if self._stack else None, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, result)
            return result
        return traced


def _count_raw(t: Tracer, args, sites) -> None:
    t.counts["sites.raw"] += len(sites)


def _count_kept(t: Tracer, args, sites) -> None:
    t.counts["sites.kept"] += len(sites)


def _count_cells(t: Tracer, args, cells) -> None:
    t.counts["grid.cells"] += len(cells)


def _count_pools(t: Tracer, args, strips) -> None:
    sizes = [len(st.site_pool) for st in strips]
    t.counts["grid.pool_sum"] += sum(sizes)
    t.counts["grid.pool_max"] = max(t.counts["grid.pool_max"], max(sizes, default=0))


def _count_cell(t: Tracer, args, res) -> None:
    t.counts["strip_dp.calls"] += 1
    counters = getattr(res, "counters", None)   # CellInfeasible has none
    if counters is None:
        t.counts["strip_dp.escalations"] += 1
    else:
        t.counts["strip_dp.subsets"] += counters.subsets_enumerated


def _count_nodes(t: Tracer, args, res) -> None:
    t.counts["oracle.exact.nodes"] += res.nodes_explored


def _count_grid_audit(t: Tracer, args, rep) -> None:
    t.counts["oracle.grid_audit.points"] += rep.grid_candidate_points
    t.counts["oracle.grid_audit.cover_sets"] += rep.distinct_cover_sets


def _count_bytes(t: Tracer, args, _) -> None:
    t.counts["instances_io.bytes_written"] += os.path.getsize(args[0])


def install(tracer: Tracer):
    """Wrap every layer call site the CLI verbs use; returns an undo callable.

    `oracle.exact_min_cost_cover` is wrapped as a module global too, so the
    exact solve inside `grid_refine_audit` nests under the audit span.
    """
    from sinkcover import cli, oracle, ptas
    sites = [
        (cli, "run", "cli.run", None),
        (cli, "read_instance", "instances_io.read", None),
        (cli, "write_solution", "instances_io.write", _count_bytes),
        (cli, "write_report", "instances_io.write", _count_bytes),
        (cli, "generate_candidate_sites", "sites.generate", _count_raw),
        (ptas, "generate_candidate_sites", "sites.generate", _count_raw),
        (cli, "prune_dominated", "sites.prune", _count_kept),
        (ptas, "prune_dominated", "sites.prune", _count_kept),
        (cli, "solve", "ptas.solve", None),
        (cli, "verify_solution", "ptas.verify", None),
        (ptas, "cells_for_shift", "grid.cells_for_shift", _count_cells),
        (ptas, "strips_of_cell", "grid.strips_of_cell", _count_pools),
        (ptas, "solve_cell", "strip_dp.solve_cell", _count_cell),
        (cli, "exact_min_cost_cover", "oracle.exact", _count_nodes),
        (oracle, "exact_min_cost_cover", "oracle.exact", _count_nodes),
        (cli, "grid_refine_audit", "oracle.grid_audit", _count_grid_audit),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in sites]
    for mod, attr, name, count in sites:
        setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), count))

    def undo() -> None:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
    return undo


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and each call returns before its caller, so a
    span's direct children are disjoint and lie inside it.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out
