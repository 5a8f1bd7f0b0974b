"""Instance, solution and report files, plus instance generators.

All formats are JSON documents.  Floats are written with Python's shortest
round-trip repr, so write-then-read reproduces every coordinate bit for bit
and repeated runs produce byte-identical files.
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from .geometry import Point
from .ptas import Solution
from .sites import Instance

log = logging.getLogger(__name__)


class InstanceFormatError(ValueError):
    """Malformed or invalid instance/solution file."""


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise InstanceFormatError(f"{path}: missing field \"{key}\"")
    return doc[key]


def _is_number(v) -> bool:
    # JSON true and false load as bool, a subclass of int.
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _object(raw, name: str, path: str) -> dict:
    """A copy of an object field; absent or null reads as {}."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise InstanceFormatError(f"{path}: field \"{name}\" must be an object")
    return dict(raw)


def _load_object(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise InstanceFormatError(
            f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{path}: top level must be an object")
    return doc


def _point_list(raw, name: str, path: str) -> tuple[Point, ...]:
    if not isinstance(raw, list):
        raise InstanceFormatError(f"{path}: field \"{name}\" must be a list")
    pts = []
    for i, row in enumerate(raw):
        if (not isinstance(row, list)) or len(row) != 2 \
                or not all(_is_number(v) for v in row):
            raise InstanceFormatError(
                f"{path}: field \"{name}\"[{i}] must be an [x, y] pair")
        try:
            pts.append(Point(float(row[0]), float(row[1])))
        except ValueError as e:
            raise InstanceFormatError(f"{path}: field \"{name}\"[{i}]: {e}") from e
    return tuple(pts)


def read_instance_file(path) -> tuple[Instance, dict]:
    """Parse an instance file; returns the instance and its metadata block.

    Exact duplicate targets are dropped (first occurrence wins) and flagged
    in the returned metadata under "deduplicated_targets".
    """
    path = str(path)
    doc = _load_object(path)
    r = _require(doc, "r", path)
    if not _is_number(r) or not math.isfinite(r) or r <= 0:
        raise InstanceFormatError(f"{path}: field \"r\" must be a positive number")
    targets = _point_list(_require(doc, "targets", path), "targets", path)
    stations = _point_list(_require(doc, "stations", path), "stations", path)
    if not stations:
        raise InstanceFormatError(f"{path}: field \"stations\" must be non-empty")
    metadata = _object(doc.get("metadata"), "metadata", path)

    seen: set[tuple[float, float]] = set()
    unique = []
    for t in targets:
        key = (t.x, t.y)
        if key in seen:
            continue
        seen.add(key)
        unique.append(t)
    dropped = len(targets) - len(unique)
    if dropped:
        log.warning("%s: dropped %d duplicate target(s)", path, dropped)
        metadata["deduplicated_targets"] = dropped

    return Instance(targets=tuple(unique), stations=stations, r=float(r)), metadata


def read_instance(path) -> Instance:
    return read_instance_file(path)[0]


def write_instance(path, instance: Instance, metadata: dict | None = None) -> None:
    doc = {"r": instance.r,
           "targets": [[t.x, t.y] for t in instance.targets],
           "stations": [[p.x, p.y] for p in instance.stations],
           "metadata": metadata or {}}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


@dataclass
class SolutionFile:
    """In-memory mirror of the solution file schema."""

    total_cost: float
    shift_round: int | None
    per_round_costs: list[float]
    placements: list[dict]      # {"x", "y", "station", "weight"}
    config: dict = field(default_factory=dict)

    @classmethod
    def from_solution(cls, solution: Solution, config: dict | None = None) -> "SolutionFile":
        return cls(total_cost=solution.total_cost,
                   shift_round=solution.shift_round_used,
                   per_round_costs=list(solution.per_round_costs),
                   placements=[{"x": p.position.x, "y": p.position.y,
                                "station": p.station, "weight": p.weight}
                               for p in solution.placements],
                   config=dict(config or {}))

    def placement_points(self) -> list[Point]:
        return [Point(row["x"], row["y"]) for row in self.placements]

    def to_json(self) -> str:
        doc = {"total_cost": self.total_cost,
               "shift_round": self.shift_round,
               "per_round_costs": self.per_round_costs,
               "placements": self.placements,
               "config": self.config}
        return json.dumps(doc, indent=2) + "\n"


def write_solution(path, solution: Solution | SolutionFile,
                   config: dict | None = None) -> None:
    if isinstance(solution, Solution):
        solution = SolutionFile.from_solution(solution, config)
    Path(path).write_text(solution.to_json())


def read_solution(path) -> SolutionFile:
    path = str(path)
    doc = _load_object(path)
    for key in ("total_cost", "shift_round", "per_round_costs", "placements"):
        _require(doc, key, path)
    shift = doc["shift_round"]
    if shift is not None and (isinstance(shift, bool) or not isinstance(shift, int)):
        raise InstanceFormatError(
            f"{path}: field \"shift_round\" must be an integer or null")
    for key in ("per_round_costs", "placements"):
        if not isinstance(doc[key], list):
            raise InstanceFormatError(f"{path}: field \"{key}\" must be a list")
    for i, row in enumerate(doc["placements"]):
        if not (isinstance(row, dict) and _is_number(row.get("x"))
                and _is_number(row.get("y"))):
            raise InstanceFormatError(
                f"{path}: field \"placements\"[{i}] must be an object with "
                f"numeric \"x\" and \"y\"")
    config = _object(doc.get("config"), "config", path)
    m = config.get("m")
    if m is not None and (isinstance(m, bool) or not isinstance(m, int) or m < 1):
        raise InstanceFormatError(
            f"{path}: field \"config\"[\"m\"] must be a positive integer")
    return SolutionFile(total_cost=doc["total_cost"],
                        shift_round=shift,
                        per_round_costs=list(doc["per_round_costs"]),
                        placements=list(doc["placements"]),
                        config=config)


def write_report(path, records: list[dict]) -> None:
    """Write an audit/benchmark report: a JSON array of flat records."""
    Path(path).write_text(json.dumps(list(records), indent=2) + "\n")


def read_report(path) -> list[dict]:
    return json.loads(Path(path).read_text())


def gen_uniform(n: int, k: int, r: float, extent: float, seed: int) -> Instance:
    """n targets and k stations drawn i.i.d. uniformly from [0, extent]^2."""
    if n < 1 or k < 1:
        raise ValueError("need at least one target and one station")
    if extent <= 0:
        raise ValueError("extent must be positive")
    rng = random.Random(seed)
    targets = tuple(Point(rng.uniform(0, extent), rng.uniform(0, extent))
                    for _ in range(n))
    stations = tuple(Point(rng.uniform(0, extent), rng.uniform(0, extent))
                     for _ in range(k))
    return Instance(targets=targets, stations=stations, r=float(r))


def gen_counterexample(k: int, alpha: float, beta: float, r: float) -> Instance:
    """Adversarial family whose optimum needs one sensor per station.

    k targets sit equally spaced on a circle of radius alpha about the
    origin; station i sits at distance r + alpha + beta along the same ray
    as target i.  Serving each target from its own station costs only
    k * beta, while any schedule with fewer sensors must move some sensor a
    distance that does not shrink with beta.  The constraint
    beta < alpha / (2k) keeps that separation safe.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if alpha <= 0 or beta <= 0 or r <= 0:
        raise ValueError("alpha, beta, r must be positive")
    if not beta < alpha / (2 * k):
        raise ValueError(f"beta must be below alpha/(2k) = {alpha / (2 * k)}")
    targets = []
    stations = []
    rho = r + alpha + beta
    for i in range(k):
        ang = 2.0 * math.pi * i / k
        c, s = math.cos(ang), math.sin(ang)
        targets.append(Point(alpha * c, alpha * s))
        stations.append(Point(rho * c, rho * s))
    return Instance(targets=tuple(targets), stations=tuple(stations), r=float(r))


def counterexample_metadata(k: int, alpha: float, beta: float, r: float) -> dict:
    return {"generator": "counterexample", "k": k, "alpha": alpha,
            "beta": beta, "r": r, "beta_max": alpha / (2 * k)}


def uniform_metadata(n: int, k: int, r: float, extent: float, seed: int) -> dict:
    return {"generator": "uniform", "n": n, "k": k, "r": r,
            "extent": extent, "seed": seed}
