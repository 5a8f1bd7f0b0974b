"""The instance, solution and report writers as one json.dumps call each,
and the report reader.

`instances_io.write_solution` formats placement rows from a template, and
`instances_io` lays out brackets itself; each writer must write exactly
these bytes.  `read_report` reads back what
`instances_io.write_report` writes.
"""

import json
from pathlib import Path


def write_instance(path, instance, metadata=None):
    doc = {"r": instance.r,
           "targets": [[t.x, t.y] for t in instance.targets],
           "stations": [[p.x, p.y] for p in instance.stations],
           "metadata": metadata or {}}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def write_solution(path, solution):
    doc = {"total_cost": solution.total_cost,
           "shift_round": solution.shift_round,
           "per_round_costs": solution.per_round_costs,
           "placements": [{"x": p.position.x, "y": p.position.y,
                           "station": p.station, "weight": p.weight}
                          for p in solution.placements],
           "config": solution.config}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def write_report(path, records):
    Path(path).write_text(json.dumps(list(records), indent=2) + "\n")


def read_report(path):
    return json.loads(Path(path).read_text())
