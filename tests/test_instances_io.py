import json
import math
import random

import pytest
import reference_instances_io
from hypothesis import example, given
from hypothesis import strategies as st

from sinkcover import cli, instances_io
from sinkcover.cli import run
from sinkcover.instances_io import (InstanceFormatError, gen_counterexample,
                                    gen_uniform, read_instance,
                                    read_instance_file, read_solution,
                                    write_instance, write_report,
                                    write_solution)
from sinkcover.geometry import Point
from sinkcover.oracle import exact_min_cost_cover
from sinkcover.ptas import Placement, Solution
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
        sites = list(prune_dominated(generate_candidate_sites(inst)))
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


def test_integer_past_the_float_range_is_a_parse_error(tmp_path, capsys):
    # float(10 ** 400) raises OverflowError, not ValueError.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"r": 1.0, "targets": [[0, 0], [10 ** 400, 0]],
                                "stations": [[0, 0]]}))
    assert run(["solve", "--in", str(path), "--m", "2",
                "--out", str(tmp_path / "sol.json")]) == 1
    assert capsys.readouterr().err.startswith(
        f'error[parse]: {path}: field "targets"[1]: ')


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


def test_solution_file_roundtrip(tmp_path, monkeypatch):
    # What `solve` and `exact` write reads back as the Solution they wrote.
    written = []

    def record(path, solution):
        written.append(solution)
        write_solution(path, solution)

    monkeypatch.setattr(cli, "write_solution", record)
    inst_path, out = tmp_path / "inst.json", tmp_path / "sol.json"
    write_instance(inst_path, gen_uniform(6, 2, 1.0, 5.0, 1))
    for argv in (["solve", "--m", "2"], ["solve", "--epsilon", "0.5"], ["exact"]):
        assert run(argv + ["--in", str(inst_path), "--out", str(out)]) == 0
        assert read_solution(out) == written[-1]
    assert [s.shift_round is None for s in written] == [False, False, True]


_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 0.0, 5e-324, 1e-7, 1e16, 1.5e300,
                                     -2.5e-300]))
_any_float = st.one_of(st.floats(), _finite)
_scalar = st.one_of(st.none(), st.booleans(), st.integers(), _any_float,
                    st.text(max_size=4))


@given(_any_float, st.one_of(st.none(), st.integers(0, 2**40)),
       st.lists(_any_float, max_size=4),
       st.lists(st.builds(Placement, st.builds(Point, _finite, _finite),
                          st.integers(0, 2**70),
                          st.one_of(_any_float, st.integers(-2**70, 2**70))),
                max_size=5),
       st.dictionaries(st.text(max_size=4), st.one_of(
           _scalar, st.dictionaries(st.text(max_size=4), _scalar, max_size=3)),
           max_size=4))
@example(1.0, None, [], [], {})
@example(-0.0, 3, [1e16, 2.5e-300], [
    Placement(Point(-0.0, 1e-7), 0, 7),
    Placement(Point(1.5e300, 5e-324), 2**70, float("inf")),
    Placement(Point(0.0, 1.0), 1, float("nan"))], {"m": 4, "c": {"s": 12}})
def test_solution_writer_bytes_match_json_dumps(tmp_path_factory, total, shift,
                                                rounds, placements, config):
    sol = Solution(total, shift, tuple(rounds), tuple(placements), config)
    path = tmp_path_factory.mktemp("sol")
    write_solution(path / "new.json", sol)
    reference_instances_io.write_solution(path / "ref.json", sol)
    assert (path / "new.json").read_bytes() == (path / "ref.json").read_bytes()


_SOLUTION = {"total_cost": 1.0, "shift_round": 0, "per_round_costs": [0.5, 1.0],
             "placements": [], "config": {"m": 2}}


@pytest.mark.parametrize("cost", ["abc", None, True, [1.0], float("inf"),
                                  float("nan"), 10 ** 400])
def test_read_solution_rejects_non_finite_total_cost(tmp_path, cost):
    path = tmp_path / "sol.json"
    path.write_text(json.dumps({**_SOLUTION, "total_cost": cost}))
    with pytest.raises(InstanceFormatError, match='field "total_cost" must be a finite number'):
        read_solution(path)


@pytest.mark.parametrize("cost", ["x", None, False, float("-inf"), float("nan"),
                                  -10 ** 400])
def test_read_solution_rejects_non_finite_round_cost(tmp_path, cost):
    path = tmp_path / "sol.json"
    path.write_text(json.dumps({**_SOLUTION, "per_round_costs": [0.5, cost]}))
    with pytest.raises(InstanceFormatError,
                       match=r'field "per_round_costs"\[1\] must be a finite number'):
        read_solution(path)


@pytest.mark.parametrize("rounds", [[], [0.5], [0.5, 1.0, 1.5]])
def test_read_solution_ties_round_costs_to_config_m(tmp_path, rounds):
    path = tmp_path / "sol.json"
    path.write_text(json.dumps({**_SOLUTION, "per_round_costs": rounds}))
    with pytest.raises(InstanceFormatError,
                       match=r'field "per_round_costs" must hold config\["m"\] = 2 costs$'):
        read_solution(path)
    # Without config.m, as `exact` writes, any number of costs reads.
    path.write_text(json.dumps({**_SOLUTION, "per_round_costs": rounds, "config": {}}))
    assert read_solution(path).per_round_costs == tuple(rounds)


def test_read_solution_takes_integer_costs(tmp_path):
    path = tmp_path / "sol.json"
    path.write_text(json.dumps({**_SOLUTION, "total_cost": 10 ** 300,
                                "per_round_costs": [0, 1]}))
    sol = read_solution(path)
    assert sol.total_cost == 10 ** 300 and sol.per_round_costs == (0, 1)


def test_report_roundtrip(tmp_path):
    records = [{"instance": "x.json", "algorithm": "exact", "cost": 1.5,
                "runtime_ms": 3.25, "counters": {"nodes_explored": 7}}]
    path = tmp_path / "report.json"
    write_report(path, records)
    assert reference_instances_io.read_report(path) == records


def _audit_records(worst_excess, ok):
    return [{"instance": "a.json", "algorithm": "refine-audit", "cost": 4.25,
             "runtime_ms": 0.0,
             "counters": {"step": 0.005, "discrete_opt": 4.25,
                          "grid_points": 123456, "undominated": int(not ok),
                          "worst_excess": worst_excess, "ok": ok}},
            {"instance": "a.json", "algorithm": "shift-audit", "cost": 4.5,
             "runtime_ms": 0.0,
             "counters": {"m": 4, "bound": 8.5, "minimum": 4.25, "ok": True}}]


_COMPARE_RECORDS = [
    {"instance": "c.json", "algorithm": "exact", "cost": 3.0,
     "runtime_ms": 1.5, "counters": {"nodes_explored": 9}},
    {"instance": "c.json", "algorithm": "greedy", "cost": 3.25,
     "runtime_ms": 0.0, "counters": {}},
    {"instance": "c.json", "algorithm": "shifted-m2", "cost": 3.0,
     "runtime_ms": 0.75,
     "counters": {"subsets_enumerated": 2, "components": 3, "spanning": 1,
                  "epsilon": None, "nested": {"list": [1, -0.0, "x"],
                                              "empty": []}}}]


@pytest.mark.parametrize("records", [
    _audit_records(-7.5e-10, True), _audit_records(math.inf, False),
    _audit_records(-math.inf, True), _COMPARE_RECORDS, []],
    ids=["audit", "audit-inf", "audit-neg-inf", "compare", "empty"])
def test_report_bytes_equal_json_dumps(tmp_path, records):
    ours, ref = tmp_path / "ours.json", tmp_path / "ref.json"
    write_report(ours, records)
    reference_instances_io.write_report(ref, records)
    assert ours.read_bytes() == ref.read_bytes()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(), inner, max_size=3)),
    max_leaves=12)


@given(json_values)
def test_indented_layout_equals_json_dumps(value):
    # write_report lays out any JSON value, nested in lists and objects, as
    # json.dumps(value, indent=2) does.
    assert instances_io._indented(value) == json.dumps(value, indent=2)


_keys = st.one_of(st.text(max_size=4), st.sampled_from(["é", "ключ", "\u2028", "😀", ""]),
                  st.integers(), st.floats(), st.booleans(), st.none())
_leaves = st.one_of(st.none(), st.booleans(), st.integers(), _any_float,
                    st.sampled_from([math.nan, math.inf, -math.inf]),
                    st.text(max_size=4), st.sampled_from(["ü", "日本", "\x00"]))
any_json_values = st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_keys, inner, max_size=3)),
    max_leaves=14)


@given(any_json_values)
@example({"ü": [], "k": (), 1: {"é": [math.nan, math.inf, -math.inf]},
          None: (True, False, None, -0.0, 10 ** 30), 2.5: {}})
def test_indented_bytes_equal_json_dumps_for_any_keys_and_scalars(value):
    # Nested objects, empty and non-empty lists and tuples, non-ASCII
    # strings and keys, keys that are not strings, and every scalar json
    # writes: the layout is json.dumps(value, indent=2) byte for byte.
    assert instances_io._indented(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("metadata", [None, {}, {"generator": "uniform", "n": 3,
                                                "note": "ü", "nested": {"a": []}}])
def test_instance_writer_bytes_match_json_dumps(tmp_path, metadata):
    inst = Instance.from_coords([(0.1, -0.0), (1e300, 5e-324), (3, 4)],
                                [(2.5, 1e-7)], 1.5)
    write_instance(tmp_path / "new.json", inst, metadata)
    reference_instances_io.write_instance(tmp_path / "ref.json", inst, metadata)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
