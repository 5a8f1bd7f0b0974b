"""The instance, solution and report writers as one json.dumps call each,
the report reader, and the row-by-row instance reader.

`instances_io.write_solution` formats placement rows from a template, and
`instances_io` lays out brackets itself; each writer must write exactly
these bytes.  `read_report` reads back what
`instances_io.write_report` writes.  `read_instance_file` is the reader
`instances_io.read_instance_file` replaced: it builds a `Point` per row,
which refuses a non-finite one, and drops duplicate targets one row at a
time; the library reader must give the same coordinates, flag and refusals.
"""

import json
import logging
from pathlib import Path

from sinkcover.geometry import Point
from sinkcover.instances_io import (InstanceFormatError, _is_finite, _is_number,
                                    _load_object, _object, _require)

log = logging.getLogger(__name__)


def write_instance(path, instance, metadata=None):
    doc = {"r": instance.r,
           "targets": [[x, y] for x, y in instance.targets.tolist()],
           "stations": [[x, y] for x, y in instance.stations.tolist()],
           "metadata": metadata or {}}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def write_solution(path, solution):
    p = solution.placements
    doc = {"total_cost": solution.total_cost,
           "shift_round": solution.shift_round,
           "per_round_costs": solution.per_round_costs,
           "placements": [{"x": x, "y": y, "station": s, "weight": w}
                          for x, y, s, w in zip(p.x, p.y, p.station, p.weight)],
           "config": solution.config}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def write_report(path, records):
    Path(path).write_text(json.dumps(list(records), indent=2) + "\n")


def read_report(path):
    return json.loads(Path(path).read_text())


def _point_list(raw, name, path):
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
        except (ValueError, OverflowError) as e:
            raise InstanceFormatError(f"{path}: field \"{name}\"[{i}]: {e}") from e
    return tuple(pts)


def read_instance_file(path):
    """The instance file's targets and stations as tuples of (x, y) float
    pairs, its radius and its metadata, duplicate targets dropped (first
    occurrence wins) and flagged under "deduplicated_targets"."""
    path = str(path)
    doc = _load_object(path)
    r = _require(doc, "r", path)
    if not _is_finite(r) or r <= 0:
        raise InstanceFormatError(f"{path}: field \"r\" must be a positive number")
    targets = _point_list(_require(doc, "targets", path), "targets", path)
    stations = _point_list(_require(doc, "stations", path), "stations", path)
    if not stations:
        raise InstanceFormatError(f"{path}: field \"stations\" must be non-empty")
    metadata = _object(doc.get("metadata"), "metadata", path)

    seen = set()
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
    return (tuple((t.x, t.y) for t in unique), tuple((p.x, p.y) for p in stations),
            float(r), metadata)
