"""Arithmetic that turns op records and spans into the reported metrics."""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

from tracing import Tracer, self_times

TAIL_BEYOND = 10   # a tail percentile needs at least this many ops above it
CAL_S = 0.0006     # calibrated time's unit: about calibrate() on an idle 2.0 GHz vCPU


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python object work: for 40 points,
    the set of points within distance 2 of each, grouped by that set.

    Timed before, during and after every op.  The host's CPU speed changes
    by up to 1.6x, for spells of milliseconds to minutes, without any steal
    time to see.  An op slows with the loop run alongside it, so the ratio
    of the two cancels most of that change.  Object work like the
    program's tracks it better than arithmetic does: over five or six runs
    each, the median op time spread (IQR/median) 0.17 as measured, 0.09
    scaled by an integer and float loop, and 0.07 scaled by this one on
    sparse-400; 0.11, 0.07 and 0.04 on audit-12.
    """
    t0 = time.perf_counter()
    pts = [(i * 0.37 % 13.0, i * 0.91 % 11.0) for i in range(40)]
    groups: dict[frozenset[int], list[int]] = {}
    for j, (x, y) in enumerate(pts):
        near = frozenset(i for i, (a, b) in enumerate(pts)
                         if (a - x) ** 2 + (b - y) ** 2 <= 4.0)
        groups.setdefault(near, []).append(j)
    return time.perf_counter() - t0


@dataclass
class OpRecord:
    index: int
    seconds: float
    ok: bool
    reason: str = ""
    cost: float = 0.0           # returned schedule cost (selected round for audit)
    optimum: float = 0.0        # exact optimum, audit only
    sha256: str = ""
    cal_s: float = CAL_S        # mean calibrate() time before, during and after the op


def cal_seconds(r: OpRecord) -> float:
    """The op's time on a host where calibrate() takes exactly CAL_S."""
    return r.seconds * CAL_S / r.cal_s


def tail(op_seconds: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least TAIL_BEYOND ops beyond it.

    Returns (percentile, seconds), or None when a run has fewer than
    2 * TAIL_BEYOND ops.  With n ops sorted ascending the value is the
    (n - TAIL_BEYOND)-th, so exactly TAIL_BEYOND ops lie above its rank.
    """
    n = len(op_seconds)
    if n < 2 * TAIL_BEYOND:
        return None
    xs = sorted(op_seconds)
    return 100.0 * (n - TAIL_BEYOND) / n, xs[n - TAIL_BEYOND - 1]


def fail_share(records: list[OpRecord]) -> float:
    return sum(not r.ok for r in records) / len(records)


def verdict(records: list[OpRecord]) -> dict:
    """Counts for the result line.  A run is correct only if every op passed
    its output check within the deadline: a timed-out op has no cost, so it
    must fail the run rather than lower solution_cost."""
    failed = sum(not r.ok for r in records)
    return {"correct": failed == 0, "attempted": len(records), "failed": failed}


def end_to_end(records: list[OpRecord], setup_s: float, peak_rss_mb: float,
               cost_ops: int) -> dict[str, tuple[float, str]]:
    """Metrics a user sees.  Op times are at calibration speed (`cal_`) and
    as measured (`wall_`); `solution_cost` sums the first `cost_ops` ops."""
    secs = [cal_seconds(r) for r in records]
    wall = [r.seconds for r in records]
    out = {
        "setup_s": (setup_s, "s"),
        "cal_op_s.p50": (statistics.median(secs), "s"),
        "cal_ops_per_s": (len(secs) / sum(secs), "1/s"),
        "wall_op_s.p50": (statistics.median(wall), "s"),
        "wall_ops_per_s": (len(wall) / sum(wall), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_share": (fail_share(records), "ratio"),
        "solution_cost": (sum(r.cost for r in records[:cost_ops]), "dist"),
        "ops": (float(len(records)), "count"),
    }
    t = tail(secs)
    if t is not None:
        out["cal_op_s.tail"] = (t[1], "s")
        out["cal_op_s.tail_pct"] = (t[0], "pct")
    opt = sum(r.optimum for r in records)
    if opt > 0:
        out["approx_ratio"] = (sum(r.cost for r in records) / opt, "ratio")
    return out


# Span name -> layer, for the share of op time each layer spends in itself.
LAYER_OF = {
    "cli.run": "cli",
    "instances_io.read": "instances_io", "instances_io.write": "instances_io",
    "sites.generate": "sites", "sites.prune": "sites",
    "grid.cells_for_shift": "grid", "grid.strips_of_cell": "grid",
    "strip_dp.solve_cell": "strip_dp",
    "ptas.solve": "ptas", "ptas.verify": "ptas",
    "oracle.exact": "oracle", "oracle.grid_audit": "oracle",
}


def per_layer(tracer: Tracer, traced: list[OpRecord],
              untraced: list[OpRecord]) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics from a traced run over the same instances as
    an untraced one.  Self times and shares are of wall time, and include
    the speed samples taken while a layer ran, about 3% of its time; the
    overhead compares the two runs at calibration speed."""
    ops = len(traced)
    traced_s = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    self_s: dict[str, float] = defaultdict(float)
    cell_max = 0.0
    for span, s in zip(tracer.spans, self_times(tracer.spans)):
        self_s[span.name] += s
        if span.name == "strip_dp.solve_cell":
            cell_max = max(cell_max, span.end - span.start)
    c = tracer.counts
    out = {f"{name}.self_s": (self_s[name] / ops, "s")
           for name in LAYER_OF if name != "cli.run"}
    out["cli.self_s"] = (self_s["cli.run"] / ops, "s")
    out.update({
        "sites.raw": (c["sites.raw"] / ops, "count"),
        "sites.kept_ratio": (
            c["sites.kept"] / c["sites.raw"] if c["sites.raw"] else 0.0, "ratio"),
        "grid.cells": (c["grid.cells"] / ops, "count"),
        "grid.pool_sum": (c["grid.pool_sum"] / ops, "count"),
        "grid.pool_max": (c["grid.pool_max"], "count"),
        "strip_dp.calls": (c["strip_dp.calls"] / ops, "count"),
        "strip_dp.subsets": (c["strip_dp.subsets"] / ops, "count"),
        "strip_dp.cell_s.max": (cell_max, "s"),
        "strip_dp.escalations": (c["strip_dp.escalations"] / ops, "count"),
        "oracle.exact.nodes": (c["oracle.exact.nodes"] / ops, "count"),
        "oracle.grid_audit.points": (c["oracle.grid_audit.points"] / ops, "count"),
        "oracle.grid_audit.cover_sets_ratio": (
            c["oracle.grid_audit.cover_sets"] / c["oracle.grid_audit.points"]
            if c["oracle.grid_audit.points"] else 0.0, "ratio"),
        "instances_io.bytes_written": (c["instances_io.bytes_written"] / ops, "B"),
        "trace.overhead": (1.0 - sum(map(cal_seconds, untraced))
                           / sum(map(cal_seconds, traced)), "ratio"),
    })
    for layer in sorted(set(LAYER_OF.values())):
        spent = sum(v for k, v in self_s.items() if LAYER_OF[k] == layer)
        out[f"share.{layer}"] = (spent / traced_s, "ratio")
    return out
