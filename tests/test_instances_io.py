import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sinkcover.cli import run
from sinkcover.instances_io import (InstanceFormatError, SolutionFile,
                                    gen_counterexample, gen_uniform,
                                    read_instance, read_instance_file,
                                    read_report, read_solution, write_instance,
                                    write_report, write_solution)
from sinkcover.oracle import exact_min_cost_cover
from sinkcover.ptas import PtasConfig, solve
from sinkcover.sites import Instance, generate_candidate_sites, prune_dominated

coords = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False,
                   allow_infinity=False)


def test_gen_uniform_deterministic():
    a = gen_uniform(10, 2, 1.0, 5.0, 42)
    b = gen_uniform(10, 2, 1.0, 5.0, 42)
    assert a == b
    c = gen_uniform(10, 2, 1.0, 5.0, 43)
    assert a != c


def test_gen_uniform_counts_and_range():
    inst = gen_uniform(10, 3, 1.0, 7.5, 0)
    assert inst.n == 10 and inst.k == 3
    for p in inst.targets + inst.stations:
        assert 0.0 <= p.x <= 7.5 and 0.0 <= p.y <= 7.5


def test_gen_counterexample_geometry():
    k, alpha, beta, r = 6, 1.0, 0.01, 1.0
    inst = gen_counterexample(k, alpha, beta, r)
    assert inst.n == k and inst.k == k
    for t, p in zip(inst.targets, inst.stations):
        assert math.hypot(t.x, t.y) == pytest.approx(alpha, rel=1e-12)
        assert math.hypot(p.x, p.y) == pytest.approx(r + alpha + beta, rel=1e-12)
        # Station lies along the same ray as its target.
        cross = t.x * p.y - t.y * p.x
        assert cross == pytest.approx(0.0, abs=1e-12)


def test_gen_counterexample_domain():
    with pytest.raises(ValueError):
        gen_counterexample(1, 1.0, 0.01, 1.0)
    with pytest.raises(ValueError):
        gen_counterexample(4, 1.0, 0.2, 1.0)    # beta >= alpha / (2k)


def test_counterexample_costs_k_beta():
    for k in (2, 3, 4, 5):
        alpha, beta = 1.0, 0.01
        inst = gen_counterexample(k, alpha, beta, 1.0)
        sites = prune_dominated(generate_candidate_sites(inst))
        res = exact_min_cost_cover(inst.n, sites)
        assert res.cost == pytest.approx(k * beta, rel=1e-9)
        assert len(res.site_indices) == k


def test_instance_roundtrip(tmp_path):
    inst = gen_uniform(7, 2, 1.25, 9.0, 5)
    path = tmp_path / "inst.json"
    write_instance(path, inst, {"generator": "uniform", "seed": 5})
    back, meta = read_instance_file(path)
    assert back == inst
    assert meta["seed"] == 5


@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=8),
       st.lists(st.tuples(coords, coords), min_size=1, max_size=3),
       st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
def test_instance_roundtrip_fuzzed(tmp_path_factory, targets, stations, r):
    inst = Instance.from_coords(targets, stations, r)
    path = tmp_path_factory.mktemp("io") / "f.json"
    write_instance(path, inst)
    back = read_instance(path)
    # Duplicates are dropped on load; compare against the deduplicated form.
    seen, unique = set(), []
    for t in inst.targets:
        if (t.x, t.y) not in seen:
            seen.add((t.x, t.y))
            unique.append(t)
    assert back.targets == tuple(unique)
    assert back.stations == inst.stations
    assert back.r == inst.r


def test_roundtrip_many_random(tmp_path):
    rng = random.Random(0)
    path = tmp_path / "r.json"
    for trial in range(1000):
        n = rng.randint(1, 6)
        k = rng.randint(1, 3)
        inst = Instance.from_coords(
            [(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)) for _ in range(n)],
            [(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)) for _ in range(k)],
            rng.uniform(1e-3, 1e3))
        write_instance(path, inst)
        assert read_instance(path) == inst


def test_duplicate_targets_deduplicated_and_flagged(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({
        "r": 1.0,
        "targets": [[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]],
        "stations": [[5.0, 5.0]],
        "metadata": {}}))
    inst, meta = read_instance_file(path)
    assert inst.n == 2
    assert meta["deduplicated_targets"] == 1


def test_missing_r_names_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"targets": [], "stations": [[0, 0]]}))
    with pytest.raises(InstanceFormatError, match='"r"'):
        read_instance(path)


def test_negative_r_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"r": -1.0, "targets": [[0, 0]],
                                "stations": [[0, 0]]}))
    with pytest.raises(InstanceFormatError, match='"r"'):
        read_instance(path)


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"r": 1.0,\n  "targets": [[0, 0]\n}')
    with pytest.raises(InstanceFormatError, match="line"):
        read_instance(path)


@pytest.mark.parametrize("extra", [{}, {"metadata": None}])
def test_absent_or_null_metadata_reads_as_empty(tmp_path, extra):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"r": 1.0, "targets": [[0, 0]],
                                "stations": [[1, 0]], **extra}))
    assert read_instance_file(path)[1] == {}


def test_bad_point_row_named(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"r": 1.0, "targets": [[0, 0, 0]],
                                "stations": [[0, 0]]}))
    with pytest.raises(InstanceFormatError, match=r'"targets"\[0\]'):
        read_instance(path)


@pytest.mark.parametrize("doc", [
    {"r": True, "targets": [[0, 0]], "stations": [[0, 0]]},
    {"r": 1.0, "targets": [[True, False], [2.0, 0.0]], "stations": [[0, 0]]},
    {"r": 1.0, "targets": [[0, 0]], "stations": [[0, False]]},
])
def test_json_booleans_rejected(tmp_path, capsys, doc):
    # json loads true/false as bool, a subclass of int; they are not numbers.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceFormatError):
        read_instance(path)
    assert run(["solve", "--in", str(path), "--m", "2",
                "--out", str(tmp_path / "sol.json")]) == 1
    assert "error[parse]" in capsys.readouterr().err
    assert not (tmp_path / "sol.json").exists()


def test_solution_file_roundtrip(tmp_path):
    inst = gen_uniform(6, 1, 1.0, 8.0, 1)
    sol = solve(inst, PtasConfig(m=2))
    path = tmp_path / "sol.json"
    write_solution(path, sol, {"m": sol.m, "seed": 0})
    back = read_solution(path)
    assert back.total_cost == sol.total_cost
    assert back.shift_round == sol.shift_round_used
    assert back.per_round_costs == list(sol.per_round_costs)
    assert len(back.placements) == len(sol.placements)
    assert back.config["m"] == sol.m


def test_report_roundtrip(tmp_path):
    records = [{"instance": "x.json", "algorithm": "exact", "cost": 1.5,
                "runtime_ms": 3.25, "counters": {"nodes_explored": 7}}]
    path = tmp_path / "report.json"
    write_report(path, records)
    assert read_report(path) == records
