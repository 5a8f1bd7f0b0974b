"""Instance, solution and report files, plus instance generators.

All formats are JSON documents.  Floats are written with Python's shortest
round-trip repr, so write-then-read reproduces every coordinate bit for bit
and repeated runs produce byte-identical files.  An instance is read into,
and written from, its (n, 2) coordinate arrays, and a solution's
placements from and into their `Placements` columns: no object is built
per target or per sensor.
"""

from __future__ import annotations

import json
import logging
import math
import random
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .ptas import MAX_ROUNDS, Placements, Solution
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


def _is_finite(v) -> bool:
    # Not math.isfinite: it overflows on integers past the float range.
    return _is_number(v) and abs(v) <= sys.float_info.max


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


def _coords(raw, name: str, path: str) -> np.ndarray:
    """A list field of [x, y] rows as an (n, 2) float64 array.  One scan
    of the value types and one `np.array` take a well-formed field; else
    the rows are walked to name the first bad one."""
    if not isinstance(raw, list):
        raise InstanceFormatError(f"{path}: field \"{name}\" must be a list")
    if not raw:
        return np.empty((0, 2))
    try:
        # JSON true and false load as bool, which np.array would take.
        if set(map(type, chain.from_iterable(raw))) <= {int, float}:
            a = np.array(raw, dtype=float)
            if a.shape == (len(raw), 2) and np.isfinite(a).all():
                return a
    except (TypeError, ValueError, OverflowError):
        pass
    for i, row in enumerate(raw):
        if (not isinstance(row, list)) or len(row) != 2 \
                or not all(_is_number(v) for v in row):
            raise InstanceFormatError(
                f"{path}: field \"{name}\"[{i}] must be an [x, y] pair")
        try:
            x, y = float(row[0]), float(row[1])
        except OverflowError as e:
            raise InstanceFormatError(f"{path}: field \"{name}\"[{i}]: {e}") from e
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InstanceFormatError(
                f"{path}: field \"{name}\"[{i}]: non-finite point ({x}, {y})")
    raise AssertionError(f"{path}: field \"{name}\" passed the row check only")


def read_instance_file(path) -> tuple[Instance, dict]:
    """Parse an instance file; returns the instance and its metadata block.

    Exact duplicate targets are dropped (first occurrence wins, and 0.0
    equals -0.0) and flagged in the returned metadata under
    "deduplicated_targets".
    """
    path = str(path)
    doc = _load_object(path)
    r = _require(doc, "r", path)
    if not _is_finite(r) or r <= 0:
        raise InstanceFormatError(f"{path}: field \"r\" must be a positive number")
    targets = _coords(_require(doc, "targets", path), "targets", path)
    stations = _coords(_require(doc, "stations", path), "stations", path)
    if not len(stations):
        raise InstanceFormatError(f"{path}: field \"stations\" must be non-empty")
    metadata = _object(doc.get("metadata"), "metadata", path)

    # Equal targets are equal complex numbers x + iy (0.0 equals -0.0).  A
    # set of them costs less at n=14 than a sort, and leaves 5 MB resident
    # after reading 10^5 targets where one of (x, y) tuples left 15 MB.
    xy = targets.view(complex).ravel()
    if len(set(xy.tolist())) < len(xy):
        # Sorted stably, each run of equal targets starts at its first
        # occurrence.
        order = xy.argsort(kind="stable")
        repeat = xy[order[1:]] == xy[order[:-1]]
        dropped = int(repeat.sum())
        log.warning("%s: dropped %d duplicate target(s)", path, dropped)
        metadata["deduplicated_targets"] = dropped
        keep = np.ones(len(targets), dtype=bool)
        keep[order[1:][repeat]] = False
        targets = targets[keep]

    return Instance(targets=targets, stations=stations, r=float(r)), metadata


def read_instance(path) -> Instance:
    return read_instance_file(path)[0]


def write_instance(path, instance: Instance, metadata: dict | None = None) -> None:
    """The bytes of json.dumps(doc, indent=2) plus a newline."""
    doc = {"r": instance.r,
           "targets": instance.targets.tolist(),
           "stations": instance.stations.tolist(),
           "metadata": metadata or {}}
    Path(path).write_text(_indented(doc) + "\n")


_PLACEMENT = ('    {{\n      "x": {},\n      "y": {},\n      "station": {},\n'
              '      "weight": {}\n    }}')


def _number(v) -> str:
    """v as json.dumps writes it.  json writes a finite float by
    float.__repr__ and an int by int.__repr__, which are repr for those
    exact types; anything else goes through json.dumps."""
    t = type(v)
    if (t is float and math.isfinite(v)) or t is int:
        return repr(v)
    return json.dumps(v)


def _tokens(values) -> list[str]:
    """Each of a flat sequence of numbers as json.dumps writes it: one call
    of json's C encoder, whose list `[a, b, ...]` is split at its commas."""
    return json.dumps(values)[1:-1].split(", ")


def write_solution(path, solution: Solution) -> None:
    """The bytes of json.dumps(doc, indent=2) plus a newline.  The small
    head and `config` are laid out by `_indented`; placement rows are
    formatted from a template, the four columns' values written by one
    `_tokens` call, which saves 0.8 ms per sparse-400 op over laying them
    out by `_indented` too."""
    head = _indented({"total_cost": solution.total_cost,
                      "shift_round": solution.shift_round,
                      "per_round_costs": solution.per_round_costs})
    p, n = solution.placements, len(solution.placements)
    if n:
        v = _tokens(p.x + p.y + p.station + p.weight)
        rows = ",\n".join(map(_PLACEMENT.format, v[:n], v[n:2 * n], v[2 * n:3 * n], v[3 * n:]))
        placements = f'"placements": [\n{rows}\n  ]'
    else:
        placements = '"placements": []'
    config = _indented({"config": solution.config})
    # Splice the head's members, the placements and config's member into
    # one object: drop the head's closing "\n}" and config's opening "{\n".
    Path(path).write_text(f"{head[:-2]},\n  {placements},\n{config[2:]}\n")


def _check_placement(row, name: str, path: str) -> None:
    if not (isinstance(row, dict) and _is_number(row.get("x"))
            and _is_number(row.get("y"))):
        raise InstanceFormatError(
            f"{path}: {name} must be an object with numeric \"x\" and \"y\"")
    station = row.get("station")
    if isinstance(station, bool) or not isinstance(station, int) or station < 0:
        raise InstanceFormatError(
            f"{path}: {name}[\"station\"] must be a non-negative integer")
    for key in ("x", "y", "weight"):
        if not _is_finite(row.get(key)):
            raise InstanceFormatError(
                f"{path}: {name}[\"{key}\"] must be a finite number")


def read_solution(path) -> Solution:
    path = str(path)
    doc = _load_object(path)
    for key in ("total_cost", "shift_round", "per_round_costs", "placements"):
        _require(doc, key, path)
    if not _is_finite(doc["total_cost"]):
        raise InstanceFormatError(f"{path}: field \"total_cost\" must be a finite number")
    shift = doc["shift_round"]
    if shift is not None and (isinstance(shift, bool) or not isinstance(shift, int)):
        raise InstanceFormatError(
            f"{path}: field \"shift_round\" must be an integer or null")
    if shift is not None and not 0 <= shift < MAX_ROUNDS:
        raise InstanceFormatError(
            f"{path}: field \"shift_round\" must lie in [0, MAX_ROUNDS = {MAX_ROUNDS})")
    for key in ("per_round_costs", "placements"):
        if not isinstance(doc[key], list):
            raise InstanceFormatError(f"{path}: field \"{key}\" must be a list")
    for i, cost in enumerate(doc["per_round_costs"]):
        if not _is_finite(cost):
            raise InstanceFormatError(
                f"{path}: field \"per_round_costs\"[{i}] must be a finite number")
    rows = doc["placements"]
    for i, row in enumerate(rows):
        _check_placement(row, f"field \"placements\"[{i}]", path)
    placements = Placements(tuple(float(row["x"]) for row in rows),
                            tuple(float(row["y"]) for row in rows),
                            tuple(row["station"] for row in rows),
                            tuple(row["weight"] for row in rows))
    config = _object(doc.get("config"), "config", path)
    m = config.get("m")
    if m is not None and (isinstance(m, bool) or not isinstance(m, int) or m < 1):
        raise InstanceFormatError(
            f"{path}: field \"config\"[\"m\"] must be a positive integer")
    if m is not None and m > MAX_ROUNDS:
        raise InstanceFormatError(
            f"{path}: field \"config\"[\"m\"] must be at most MAX_ROUNDS = {MAX_ROUNDS}")
    if m is not None and shift is not None and shift >= m:
        raise InstanceFormatError(
            f"{path}: field \"shift_round\" must be below config[\"m\"] = {m}")
    if m is not None and len(doc["per_round_costs"]) != m:
        raise InstanceFormatError(
            f"{path}: field \"per_round_costs\" must hold config[\"m\"] = {m} costs")
    return Solution(total_cost=doc["total_cost"], shift_round=shift,
                    per_round_costs=tuple(doc["per_round_costs"]),
                    placements=placements, config=config)


def _key(k) -> str:
    """k as json.dumps writes an object key.  A str key goes through the C
    string encoder json.dumps itself uses; json.dumps({k: 0}) is "{" + the
    key as json writes it + ": 0}"."""
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    return json.dumps({k: 0})[1:-4]


def _indented(v, pad: str = "") -> str:
    """v as json.dumps(v, indent=2) writes it nested at indent `pad`.  Only
    the brackets and line breaks are laid out here; keys and scalars go
    through `_key` and `_number`, so the pure-Python encoder, whose closures
    form a reference cycle on every indented call, never runs."""
    if not (isinstance(v, (dict, list, tuple)) and v):
        return _number(v)
    inner = pad + "  "
    if isinstance(v, dict):
        items = [f"{_key(k)}: {_indented(x, inner)}" for k, x in v.items()]
        brackets = "{}"
    else:
        items = [_indented(x, inner) for x in v]
        brackets = "[]"
    rows = f",\n{inner}".join(items)
    return f"{brackets[0]}\n{inner}{rows}\n{pad}{brackets[1]}"


def write_report(path, records: list[dict]) -> None:
    """Write an audit/benchmark report: a JSON array of flat records, the
    bytes of json.dumps(list(records), indent=2) plus a newline."""
    Path(path).write_text(_indented(list(records)) + "\n")


def gen_uniform(n: int, k: int, r: float, extent: float, seed: int) -> Instance:
    """n targets and k stations drawn i.i.d. uniformly from [0, extent]^2."""
    if n < 1 or k < 1:
        raise ValueError("need at least one target and one station")
    if extent <= 0:
        raise ValueError("extent must be positive")
    rng = random.Random(seed)
    # Targets, then stations, each point x then y.
    coords = np.array([rng.uniform(0, extent) for _ in range(2 * (n + k))])
    return Instance(targets=coords[:2 * n].reshape(n, 2),
                    stations=coords[2 * n:].reshape(k, 2), r=float(r))


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
        targets.append((alpha * c, alpha * s))
        stations.append((rho * c, rho * s))
    return Instance.from_coords(targets, stations, r)


def counterexample_metadata(k: int, alpha: float, beta: float, r: float) -> dict:
    return {"generator": "counterexample", "k": k, "alpha": alpha,
            "beta": beta, "r": r, "beta_max": alpha / (2 * k)}


def uniform_metadata(n: int, k: int, r: float, extent: float, seed: int) -> dict:
    return {"generator": "uniform", "n": n, "k": k, "r": r,
            "extent": extent, "seed": seed}
