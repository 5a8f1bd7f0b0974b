"""Command-line surface: generate, solve, exact, compare, audit, render.

Exit codes: 0 on success; 2 when an audit check fails or a cell needs more
strip-DP states than the solver's budget (``error[budget]``); 1 on usage,
parse or input errors.  Errors go to stderr prefixed with a machine-readable
code like ``error[usage]``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from .instances_io import (InstanceFormatError, counterexample_metadata,
                           gen_counterexample, gen_uniform, read_instance,
                           read_solution, uniform_metadata, write_instance,
                           write_report, write_solution)
from .oracle import (check_grid_audit, exact_min_cost_cover, greedy_cover,
                     grid_refine_audit)
from .ptas import (PtasConfig, Solution, placements_of, shift_average_audit,
                   solve, verify_solution)
from .sites import generate_candidate_sites, prune_dominated
from .strip_dp import StateBudgetError
from .svg_render import render_svg


def _fail(code: str, message: str) -> None:
    print(f"error[{code}]: {message}", file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Reports usage errors under the ``error[usage]`` code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        _fail("usage", f"{self.prog}: {message}")
        self.exit(2)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later `run`
    calls: parsing leaves it unchanged."""
    p = _Parser(
        prog="sinkcover",
        description="Movement-minimizing sensor coverage from k stations.")
    sub = p.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("generate", help="write a generated instance file")
    g.add_argument("--family", choices=("uniform", "counterexample"), required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--n", type=int)
    g.add_argument("--k", type=int)
    g.add_argument("--r", type=float, default=1.0)
    g.add_argument("--extent", type=float)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--alpha", type=float)
    g.add_argument("--beta", type=float)

    s = sub.add_parser("solve", help="run the shifted-grid solver")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", required=True)
    quality = s.add_mutually_exclusive_group(required=True)
    quality.add_argument("--epsilon", type=float)
    quality.add_argument("--m", type=int)
    # --jobs is accepted and ignored: the rounds run in one process.
    s.add_argument("--jobs", type=int, help=argparse.SUPPRESS)

    e = sub.add_parser("exact", help="run the exact oracle")
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--out", required=True)

    c = sub.add_parser("compare", help="table of solver vs oracle vs greedy")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--m", default="2,4,8",
                   help="comma-separated list of round counts")
    c.add_argument("--out", help="optional report file")

    a = sub.add_parser("audit", help="discretization dominance and shift-average audit")
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--step", type=float,
                   help="grid pitch for the refinement audit (default r/200)")
    a.add_argument("--m", type=int, default=4)
    a.add_argument("--jobs", type=int, help=argparse.SUPPRESS)
    a.add_argument("--out", help="optional report file")

    r = sub.add_parser("render", help="draw an instance (and solution) as SVG")
    r.add_argument("--in", dest="infile", required=True)
    r.add_argument("--solution")
    r.add_argument("--svg", required=True)
    return p


def _cmd_generate(args) -> int:
    if args.family == "uniform":
        missing = [f for f in ("n", "k", "extent") if getattr(args, f) is None]
        if missing:
            _fail("usage", f"uniform family requires --{' --'.join(missing)}")
            return 1
        inst = gen_uniform(args.n, args.k, args.r, args.extent, args.seed)
        meta = uniform_metadata(args.n, args.k, args.r, args.extent, args.seed)
    else:
        missing = [f for f in ("k", "alpha", "beta") if getattr(args, f) is None]
        if missing:
            _fail("usage", f"counterexample family requires --{' --'.join(missing)}")
            return 1
        inst = gen_counterexample(args.k, args.alpha, args.beta, args.r)
        meta = counterexample_metadata(args.k, args.alpha, args.beta, args.r)
    write_instance(args.out, inst, meta)
    print(f"wrote {args.out}: {inst.n} targets, {inst.k} stations, r={inst.r}")
    return 0


def _cmd_solve(args) -> int:
    inst = read_instance(args.infile)
    solution = solve(inst, PtasConfig(epsilon=args.epsilon, m=args.m))
    if not verify_solution(inst, solution.placements):
        _fail("internal", "solution failed the independent feasibility re-check")
        return 2
    write_solution(args.out, solution)
    f = solution.shift_round
    print(f"cost {solution.total_cost:.9f}; cheapest round {f} of "
          f"{len(solution.per_round_costs)} costs {solution.per_round_costs[f]:.9f}; "
          f"{len(solution.placements)} sensors -> {args.out}")
    return 0


def _pruned_sites(inst):
    """The pruned candidate sites, as the table the solver reads and as the
    `(weights, covers)` columns the oracles read.  An instance with no
    target is refused with ValueError before any output."""
    if inst.n == 0:
        raise ValueError("nothing to cover")
    table = prune_dominated(generate_candidate_sites(inst))
    return table, table.columns()


def _cmd_exact(args) -> int:
    inst = read_instance(args.infile)
    table, columns = _pruned_sites(inst)
    res = exact_min_cost_cover(inst.n, *columns)
    placements = placements_of(table, res.site_indices)
    write_solution(args.out, Solution(
        total_cost=res.cost, shift_round=None, per_round_costs=(),
        placements=placements,
        config={"algorithm": "exact", "nodes_explored": res.nodes_explored}))
    print(f"cost {res.cost:.9f}, {len(placements)} sensors, "
          f"{res.nodes_explored} nodes -> {args.out}")
    return 0


def _cmd_compare(args) -> int:
    inst = read_instance(args.infile)
    try:
        ms = [int(v) for v in str(args.m).split(",") if v != ""]
    except ValueError:
        ms = []
    if not ms:
        _fail("usage", f"--m must be a comma-separated list of integers, got {args.m!r}")
        return 1
    # Every m is checked before the exact oracle runs.
    configs = [PtasConfig(m=m) for m in ms]
    table, columns = _pruned_sites(inst)
    t0 = time.perf_counter()
    exact = exact_min_cost_cover(inst.n, *columns)
    exact_ms = (time.perf_counter() - t0) * 1000.0
    greedy = greedy_cover(inst.n, *columns)

    name = os.path.basename(args.infile)   # reports name no directory
    records = [{"instance": name, "algorithm": "exact",
                "cost": exact.cost, "runtime_ms": exact_ms,
                "counters": {"nodes_explored": exact.nodes_explored}},
               {"instance": name, "algorithm": "greedy",
                "cost": greedy.cost, "runtime_ms": 0.0, "counters": {}}]

    def ratio(cost: float) -> float:
        if exact.cost > 0:
            return cost / exact.cost
        return 1.0 if cost <= 1e-12 else float("inf")

    print(f"{'algorithm':<12} {'cost':>16} {'ratio':>14} {'bound':>10}")
    print(f"{'exact':<12} {exact.cost:>16.9f} {1.0:>14.9f} {'-':>10}")
    print(f"{'greedy':<12} {greedy.cost:>16.9f} {ratio(greedy.cost):>14.9f} {'-':>10}")
    for config in configs:
        m = config.m
        t0 = time.perf_counter()
        solution = solve(inst, config, sites=table)
        ms_elapsed = (time.perf_counter() - t0) * 1000.0
        bound = 1.0 + 4.0 / m
        print(f"{f'shifted-m{m}':<12} {solution.total_cost:>16.9f} "
              f"{ratio(solution.total_cost):>14.9f} {bound:>10.9f}")
        records.append({"instance": name, "algorithm": f"shifted-m{m}",
                        "cost": solution.total_cost, "runtime_ms": ms_elapsed,
                        "counters": solution.config["counters"]})
    if args.out:
        write_report(args.out, records)
    return 0


def _cmd_audit(args) -> int:
    inst = read_instance(args.infile)
    step = args.step if args.step is not None else inst.r / 200.0
    config = PtasConfig(m=args.m)   # checked before the sites are generated,
    check_grid_audit(inst, step)    # as are --step and the instance
    table, columns = _pruned_sites(inst)
    grid = grid_refine_audit(inst, *columns, step)
    if grid.missed:
        raise ValueError(f"no point of the grid of pitch {step} covers "
                         f"{grid.missed} of the {inst.n} targets")
    exact = exact_min_cost_cover(inst.n, *columns)
    ok_grid = grid.undominated == 0
    print(f"refine: step {step:.9f} sets {grid.distinct_cover_sets} "
          f"undominated {grid.undominated} worst excess {grid.worst_excess:.3g} "
          f"[{'PASS' if ok_grid else 'FAIL'}]")
    solution = solve(inst, config, sites=table)
    audit = shift_average_audit(solution.per_round_costs, exact.cost)
    print(f"shift:  m {audit.m} average {audit.average:.9f} "
          f"min {audit.minimum:.9f} bound {audit.bound:.9f} "
          f"[{'PASS' if audit.ok else 'FAIL'}]")
    if args.out:
        name = os.path.basename(args.infile)
        write_report(args.out, [
            {"instance": name, "algorithm": "refine-audit",
             "cost": exact.cost, "runtime_ms": 0.0,
             "counters": {"step": step, "discrete_opt": exact.cost,
                          "grid_points": grid.grid_candidate_points,
                          "undominated": grid.undominated,
                          "worst_excess": grid.worst_excess, "ok": ok_grid}},
            {"instance": name, "algorithm": "shift-audit",
             "cost": audit.average, "runtime_ms": 0.0,
             "counters": {"m": audit.m, "bound": audit.bound,
                          "minimum": audit.minimum, "ok": audit.ok}}])
    return 0 if (ok_grid and audit.ok) else 2


def _cmd_render(args) -> int:
    inst = read_instance(args.infile)
    solution = read_solution(args.solution) if args.solution else None
    svg = render_svg(inst, solution)
    with open(args.svg, "w") as f:
        f.write(svg)
    print(f"wrote {args.svg}")
    return 0


def run(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 for --help, 2 for usage errors; map the latter to 1.
        return 0 if e.code == 0 else 1
    handlers = {"generate": _cmd_generate, "solve": _cmd_solve,
                "exact": _cmd_exact, "compare": _cmd_compare,
                "audit": _cmd_audit, "render": _cmd_render}
    try:
        return handlers[args.verb](args)
    except InstanceFormatError as e:
        _fail("parse", str(e))
        return 1
    except StateBudgetError as e:
        _fail("budget", str(e))
        return 2
    except (ValueError, OSError) as e:
        _fail("input", str(e))
        return 1


def entrypoint() -> None:   # console_scripts hook
    sys.exit(run())


if __name__ == "__main__":
    entrypoint()
