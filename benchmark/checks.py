"""Independent checks of each op's output, read back from the files it wrote.

Nothing here imports sinkcover: a check that shares code with the solver
would share its bugs.
"""

from __future__ import annotations

import json
import math

COVER_TOL = 1e-9   # targets within r * (1 + COVER_TOL) count as covered
REL_TOL = 1e-9


def check_solution(instance: dict, path) -> tuple[str, float]:
    """Check a `solve` output against its instance; returns (reason, cost).

    The reason is empty when every target lies within r(1 + 1e-9) of a
    placement, each placement's weight is its distance to its station, and
    `total_cost` is the sum of the weights.
    """
    with open(path) as f:
        sol = json.load(f)
    stations = instance["stations"]
    reach = instance["r"] * (1.0 + COVER_TOL)
    placements = sol["placements"]
    cost = sol["total_cost"]
    for p in placements:
        if not 0 <= p["station"] < len(stations):
            return f"placement names station {p['station']}", cost
        sx, sy = stations[p["station"]]
        d = math.hypot(p["x"] - sx, p["y"] - sy)
        if not math.isclose(p["weight"], d, rel_tol=REL_TOL, abs_tol=1e-12):
            return f"placement weight {p['weight']} != station distance {d}", cost
    for i, (tx, ty) in enumerate(instance["targets"]):
        if not any(math.hypot(tx - p["x"], ty - p["y"]) <= reach for p in placements):
            return f"target {i} is not covered", cost
    total = sum(p["weight"] for p in placements)
    if not math.isclose(cost, total, rel_tol=REL_TOL, abs_tol=1e-12):
        return f"total_cost {cost} != sum of weights {total}", cost
    return "", cost


def check_audit(exit_code: int, path, m: int) -> tuple[str, float, float]:
    """Check an `audit` report; returns (reason, selected cost, exact optimum).

    The reason is empty when the verb exited 0 and the selected round costs
    at most (1 + 4/m) times the exact optimum.
    """
    if exit_code != 0:
        return f"audit exited {exit_code}", 0.0, 0.0
    with open(path) as f:
        records = {rec["algorithm"]: rec for rec in json.load(f)}
    optimum = records["refine-audit"]["counters"]["discrete_opt"]
    selected = records["shift-audit"]["counters"]["minimum"]
    bound = (1.0 + 4.0 / m) * optimum
    if selected > bound * (1.0 + REL_TOL):
        return f"selected round {selected} exceeds (1 + 4/{m}) * {optimum}", selected, optimum
    return "", selected, optimum
