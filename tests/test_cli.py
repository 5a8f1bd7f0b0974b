import bisect
import gc
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from conftest import bin_points

from sinkcover import cli, geometry, strip_dp
from sinkcover.cli import run
from sinkcover.grid import bounding_box
from sinkcover.instances_io import read_instance, read_solution
from sinkcover.ptas import verify_solution


def _gen(tmp_path, name="inst.json", **kw):
    args = ["generate", "--family", "uniform", "--out", str(tmp_path / name),
            "--n", str(kw.get("n", 6)), "--k", str(kw.get("k", 2)),
            "--r", str(kw.get("r", 1.0)), "--extent", str(kw.get("extent", 8.0)),
            "--seed", str(kw.get("seed", 3))]
    assert run(args) == 0
    return tmp_path / name


def test_generate_uniform(tmp_path):
    path = _gen(tmp_path)
    inst, meta = read_instance(path), None
    assert inst.n == 6 and inst.k == 2


def test_generate_counterexample(tmp_path):
    out = tmp_path / "ce.json"
    assert run(["generate", "--family", "counterexample", "--out", str(out),
                "--k", "4", "--alpha", "1.0", "--beta", "0.01"]) == 0
    inst = read_instance(out)
    assert inst.n == 4 and inst.k == 4


def test_generate_missing_params_usage_error(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run(["generate", "--family", "uniform", "--out", str(out)]) == 1
    assert "error[usage]" in capsys.readouterr().err


def test_unknown_flag_exits_1(tmp_path):
    assert run(["generate", "--family", "uniform", "--out", "x", "--bogus"]) == 1


def test_conflicting_quality_flags_exit_1(tmp_path):
    path = _gen(tmp_path)
    assert run(["solve", "--in", str(path), "--epsilon", "1", "--m", "2",
                "--out", str(tmp_path / "s.json")]) == 1


def test_solve_epsilon_records_m(tmp_path):
    path = _gen(tmp_path)
    out = tmp_path / "sol.json"
    assert run(["solve", "--in", str(path), "--epsilon", "1",
                "--out", str(out), "--jobs", "1"]) == 0
    sol = read_solution(out)
    assert sol.config["m"] == 4
    assert len(sol.per_round_costs) == 4


def test_solve_line_names_the_cheapest_whole_round(tmp_path, capsys, monkeypatch):
    # At 30 states the anchored cells of three components are over the
    # state budget, and the schedule takes each one's cheapest of the m=2
    # rounds, so here it costs less than the cheapest whole round; the
    # line gives both.
    path = _gen(tmp_path, n=400, k=10, extent=63.25, seed=4)
    out = tmp_path / "sol.json"
    capsys.readouterr()
    monkeypatch.setattr(strip_dp, "STATE_BUDGET", 30)
    assert run(["solve", "--in", str(path), "--m", "2", "--out", str(out)]) == 0
    sol = read_solution(out)
    f = sol.shift_round
    counters = sol.config["counters"]
    assert counters["components"] - counters["anchored"] == 3
    assert sol.total_cost < sol.per_round_costs[f] == min(sol.per_round_costs)
    assert capsys.readouterr().out == (
        f"cost {sol.total_cost:.9f}; cheapest round {f} of 2 costs "
        f"{sol.per_round_costs[f]:.9f}; {len(sol.placements)} sensors -> {out}\n")


def test_solve_output_passes_feasibility_recheck(tmp_path):
    path = _gen(tmp_path, seed=9)
    out = tmp_path / "sol.json"
    assert run(["solve", "--in", str(path), "--m", "2",
                "--out", str(out), "--jobs", "1"]) == 0
    inst = read_instance(path)
    sol = read_solution(out)
    assert verify_solution(inst, sol.placements)


def test_solve_builds_no_point_per_target_or_sensor(tmp_path, monkeypatch):
    # Instances and solutions stay columns from file to file: reading,
    # the solve, the re-check and writing build no `Point` per target or
    # per sensor.  Only grid corners and nearest-station band rows may
    # build one, so the count does not grow from n = 400 to n = 4000
    # (k = 10, 0.1 targets per r^2).
    built = []
    check = geometry.Point.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(geometry.Point, "__post_init__", counted)
    counts = []
    for n, extent in ((400, 63.25), (4000, 200.0)):
        path = _gen(tmp_path, n=n, k=10, extent=extent, seed=5)
        built.clear()
        assert run(["solve", "--in", str(path), "--m", "4",
                    "--out", str(tmp_path / "sol.json")]) == 0
        counts.append(len(built))
    assert counts[1] <= counts[0] <= 8, counts


def test_solve_byte_identical_reruns(tmp_path):
    # --jobs is accepted and changes nothing.
    path = _gen(tmp_path, seed=12)
    outs = []
    for extra in ([], [], ["--jobs", "1"], ["--jobs", "2"]):
        out = tmp_path / f"sol{len(outs)}.json"
        assert run(["solve", "--in", str(path), "--m", "4",
                    "--out", str(out)] + extra) == 0
        outs.append(out.read_bytes())
    assert len(set(outs)) == 1


def test_cli_import_loads_no_process_pool():
    # Every CLI run pays for what `sinkcover.cli` imports, and the rounds
    # run in one process.
    code = ("import sys, sinkcover.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_extreme_coordinates_fail_with_one_line_on_stderr(tmp_path):
    # The two targets' circles meet, and their intersection points overflow
    # to inf: the solve is refused with the first such point and nothing
    # else on stderr (no numpy RuntimeWarning).
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"r": 1.0, "stations": [[0.0, 0.0]],
                                "targets": [[1.7e308, 0.0], [1.7e308, 1.0]]}))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "sinkcover.cli", "solve", "--in", str(path),
                           "--m", "2", "--out", str(tmp_path / "sol.json")],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error[input]: non-finite point (inf, 0.5)\n"


def test_far_station_fails_with_one_line_on_stderr(tmp_path):
    # The station's offsets from the targets overflow to inf too: the solve
    # is refused with nothing else on stderr.
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"r": 1.0, "stations": [[-1e308, 0.0]],
                                "targets": [[1e308, 0.0], [1e308, 0.5]]}))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "sinkcover.cli", "solve", "--in", str(path),
                           "--m", "2", "--out", str(tmp_path / "sol.json")],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error[input]: non-finite point (inf, 0.25)\n"


@pytest.mark.parametrize("argv", [["solve", "--m", "4"], ["exact"], ["compare", "--m", "2,4"],
                                  ["audit", "--m", "4"]],
                         ids=["solve", "exact", "compare", "audit"])
def test_costs_past_the_float_range_are_refused_before_any_output(tmp_path, capsys, argv):
    # Ten targets in a 1e308 box: each site weighs up to about 1.4e308, so
    # a cover's cost overflows.  `solve` used to write "Infinity" costs,
    # and `exact` to find no cover at all.  No grid the audit sweeps covers
    # such a box, and it refuses a grid that misses a target first, so its
    # ten targets lie in a row 1.5 apart, both stations 1.6e308 away.
    if argv[0] == "audit":
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"r": 1.0, "targets": [[1.5 * i, 0.0] for i in range(10)],
                                    "stations": [[1.6e308, 0.0], [0.0, -1.6e308]]}))
    else:
        path = _gen(tmp_path, n=10, k=2, extent=1e308, seed=1)
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert run([argv[0], "--in", str(path), *argv[1:], "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[input]: costs may pass the float range: ")
    assert not out.exists()


def test_solve_verify_cap_is_a_usage_error(tmp_path, capsys):
    # There is no --cap flag: the strip DP has no per-strip cap.
    path = _gen(tmp_path)
    out = tmp_path / "sol.json"
    assert run(["solve", "--in", str(path), "--m", "2", "--cap", "verify",
                "--out", str(out), "--jobs", "1"]) == 1
    assert "error[usage]" in capsys.readouterr().err
    assert not out.exists()


def test_compare_jobs_is_a_usage_error(tmp_path, capsys):
    # compare has no --jobs flag; solve and audit still accept it.
    path = _gen(tmp_path)
    assert run(["compare", "--in", str(path), "--m", "2", "--jobs", "1"]) == 1
    assert "error[usage]" in capsys.readouterr().err


@pytest.mark.parametrize("quality", [["--epsilon", "1e-300"], ["--m", "1000000000"]])
def test_solve_beyond_max_rounds_is_an_input_error(tmp_path, capsys, quality):
    # epsilon 1e-300 asks for about 4e300 shift rounds.
    path = _gen(tmp_path)
    start = time.perf_counter()
    assert run(["solve", "--in", str(path), *quality,
                "--out", str(tmp_path / "sol.json")]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error[input]: ") and "MAX_ROUNDS = 1024" in err
    assert not (tmp_path / "sol.json").exists()


@pytest.mark.parametrize("argv", [["audit", "--m", "2000"], ["audit", "--m", "0"],
                                  ["compare", "--m", "2,2000"], ["compare", "--m", "0"]])
def test_m_beyond_max_rounds_is_refused_before_the_exact_oracle(tmp_path, capsys, argv):
    # A bad --m is refused before the exact solve, so neither audit's refine
    # line nor compare's first table rows are printed.
    path = _gen(tmp_path, n=12, k=2, extent=6.0, seed=5)
    capsys.readouterr()
    assert run([argv[0], "--in", str(path), *argv[1:]]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error[input]: ") and "MAX_ROUNDS = 1024" in out.err


@pytest.mark.parametrize("m", [2, 3, 4, 8])
def test_targets_two_r_apart_within_tolerance_solve(tmp_path, capsys, m):
    # Targets (A,5), (C,5), (B,5) sit within a few ulps of 2r apart at r=1,
    # so one site covers all three, and on a tiling of exactly 2r they span
    # three strips of a round.  The tiling unit is wider than any covered
    # set, so the strip DP takes the cell like any other, and the solve is
    # the `exact` optimum.
    a, b, c = 5.999999991999, 7.999999992799, 6.999999992399
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"r": 1.0, "stations": [[0, -3]],
                                "targets": [[0, 0], [a, 5], [c, 5], [b, 5]]}))
    assert run(["exact", "--in", str(path), "--out", str(tmp_path / "exact.json")]) == 0
    assert capsys.readouterr().out.startswith("cost 12.630145808, ")
    exact = read_solution(tmp_path / "exact.json").total_cost
    assert run(["solve", "--in", str(path), "--m", str(m),
                "--out", str(tmp_path / "sol.json")]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    if m == 4:
        assert out.out.startswith("cost 12.630145808")
    sol = read_solution(tmp_path / "sol.json")
    assert verify_solution(read_instance(path), sol.placements)
    assert sol.total_cost <= (1 + 4 / m) * exact * (1 + 1e-9)


def test_solve_too_dense_exits_2_with_budget_error(tmp_path, capsys):
    # 100 targets in an 8x8 box at m=4: a cell passes the strip DP's state
    # budget within seconds, and without it the solve runs for minutes.
    path = _gen(tmp_path, n=100, k=2, extent=8.0, seed=2)
    capsys.readouterr()
    start = time.perf_counter()
    assert run(["solve", "--in", str(path), "--m", "4",
                "--out", str(tmp_path / "sol.json")]) == 2
    assert time.perf_counter() - start < 10.0
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error[budget]: ")
    assert not (tmp_path / "sol.json").exists()


def test_exact_verb(tmp_path):
    path = _gen(tmp_path, n=5, seed=7)
    out = tmp_path / "exact.json"
    assert run(["exact", "--in", str(path), "--out", str(out)]) == 0
    sol = read_solution(out)
    inst = read_instance(path)
    assert verify_solution(inst, sol.placements)
    assert sol.shift_round is None


@pytest.mark.parametrize("kw, solve_sha, exact_sha", [
    pytest.param(
        dict(n=6, k=2, extent=5.0, seed=1),
        "4ce3fc2d7ada182490e745cd3437a4fbec93ce1236b964fb427b3df220cc8bcc",
        "97b684a288da982143c3bd83bd5594dc980bd174f4b11b1f6189205c33823e26",
        id="n6-seed1"),
    pytest.param(
        dict(n=9, k=2, extent=10.0, seed=4),    # every component anchored
        "b05a9224af09c7d3d2c9ca8d09be69b7a32998841013c848d81c3bd2f9831cab",
        "0689bd9e6ee596a3111fbb4f1512b04f05ec858ff19fd193e7053a68fe773e3a",
        id="n9-seed4"),
])
def test_solution_file_bytes_are_pinned(tmp_path, kw, solve_sha, exact_sha):
    # Any change to what `solve --m 4` or `exact` writes changes these digests.
    path = _gen(tmp_path, **kw)
    sol, exact = tmp_path / "sol.json", tmp_path / "exact.json"
    assert run(["solve", "--in", str(path), "--m", "4", "--out", str(sol)]) == 0
    assert run(["exact", "--in", str(path), "--out", str(exact)]) == 0
    assert hashlib.sha256(sol.read_bytes()).hexdigest() == solve_sha
    assert hashlib.sha256(exact.read_bytes()).hexdigest() == exact_sha


@pytest.mark.parametrize("kw, sha", [
    pytest.param(dict(n=6, k=2, extent=5.0, seed=1),
                 "e82ae00a7b9b81481e1d788eb9ef76da7777de611515bda625b85766766e7d71",
                 id="n6-seed1"),
    pytest.param(dict(n=12, k=2, extent=6.0, seed=3),    # audit-12's shape
                 "3161259d6da865aaa39483fa5f93a1bc3695f69b9b5449ff088ab3d37a927a3e",
                 id="n12-seed3"),
])
def test_audit_report_bytes_are_pinned(tmp_path, kw, sha):
    # Any change to what `audit --m 4` writes at the default pitch, from the
    # exact optimum to the grid sweep's counts, changes these digests.
    path = _gen(tmp_path, **kw)
    report = tmp_path / "audit.json"
    assert run(["audit", "--in", str(path), "--m", "4", "--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == sha


@pytest.mark.parametrize("verb", ["exact", "compare", "audit"])
def test_instance_with_no_target_is_refused_before_any_output(tmp_path, capsys, verb):
    # `compare` used to print its header, exact and greedy rows before
    # failing, and `exact` wrote a solution with no sensor.
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"r": 1.0, "stations": [[0.0, 0.0]], "targets": []}))
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert run([verb, "--in", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error[input]: nothing to cover\n"
    assert not out.exists()


def test_readme_library_example_runs(capsys):
    # The README's library example runs as written, so it cannot drift from
    # the library's signatures: the exact optimum is no dearer than the
    # solver's or the greedy answer, and the audit finds no undominated set.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    capsys.readouterr()
    exec(compile(block, "README.md", "exec"), {})
    solved, exact, greedy, undominated = capsys.readouterr().out.splitlines()
    assert float(exact) <= float(solved.split()[0]) and float(exact) <= float(greedy)
    assert undominated == "0"


@pytest.mark.parametrize("m, cost, sha, subsets", [
    (1, "1016.794111838",
     "37912dcac37731a1d72f9f0448bcb3946e368c1d163f94ac5525932d36a5ca3a", 163),
    (2, "862.695079079",
     "41dc3bb3134d95ab0fd21b9c84e3b6c951b4b87385bc2e94adeb60285e78ad12", 488),
], ids=["m1", "m2"])
def test_one_strip_and_two_strip_cells_write_pinned_bytes(tmp_path, capsys, monkeypatch,
                                                         m, cost, sha, subsets):
    # At m=1 every round cell is a single strip; at m=2 round cells hold
    # one or two non-empty strips.  At 100 states the anchored cells of
    # three chains are over the state budget, so both solves leave them to
    # the rounds, each chain solved alone in every round, and must write
    # these bytes, which hold the footprint states stored.
    path = _gen(tmp_path, n=300, k=6, extent=30.0, seed=7)
    sol = tmp_path / "sol.json"
    capsys.readouterr()
    monkeypatch.setattr(strip_dp, "STATE_BUDGET", 100)
    assert run(["solve", "--in", str(path), "--m", str(m), "--out", str(sol)]) == 0
    assert capsys.readouterr().out.startswith(f"cost {cost};")
    assert json.loads(sol.read_bytes())["config"]["counters"]["subsets_enumerated"] == subsets
    assert hashlib.sha256(sol.read_bytes()).hexdigest() == sha


def test_exact_matches_solve_quality(tmp_path):
    path = _gen(tmp_path, n=6, seed=21)
    exact_out = tmp_path / "e.json"
    solve_out = tmp_path / "s.json"
    assert run(["exact", "--in", str(path), "--out", str(exact_out)]) == 0
    assert run(["solve", "--in", str(path), "--m", "8",
                "--out", str(solve_out), "--jobs", "1"]) == 0
    e = read_solution(exact_out)
    s = read_solution(solve_out)
    assert e.total_cost <= s.total_cost * (1 + 1e-9) + 1e-12
    assert s.total_cost <= (1 + 4 / 8) * e.total_cost * (1 + 1e-9) + 1e-12


def test_compare_table_and_report(tmp_path, capsys):
    path = _gen(tmp_path, n=5, seed=2)
    report = tmp_path / "report.json"
    assert run(["compare", "--in", str(path), "--m", "2,4",
                "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "exact" in out and "greedy" in out and "shifted-m2" in out
    # Fixed nine-decimal formatting on every data row.
    rows = [l for l in out.splitlines()
            if l.split() and l.split()[0] in ("exact", "greedy",
                                              "shifted-m2", "shifted-m4")]
    assert len(rows) == 4
    for line in rows:
        cells = line.split()
        assert len(cells[1].split(".")[1]) == 9   # cost column
        assert len(cells[2].split(".")[1]) == 9   # ratio column
    records = json.loads(report.read_text())
    algos = {r["algorithm"] for r in records}
    assert {"exact", "greedy", "shifted-m2", "shifted-m4"} <= algos


def test_compare_ratio_within_bound(tmp_path, capsys):
    path = _gen(tmp_path, n=8, k=1, extent=10.0, seed=0)
    assert run(["compare", "--in", str(path), "--m", "4"]) == 0
    out = capsys.readouterr().out
    row = [l for l in out.splitlines() if l.startswith("shifted-m4")][0]
    ratio = float(row.split()[2])
    assert 1.0 - 1e-9 <= ratio <= 2.0 + 1e-9


def test_audit_verb(tmp_path, capsys):
    path = _gen(tmp_path, n=4, k=1, extent=5.0, seed=6)
    report = tmp_path / "audit.json"
    assert run(["audit", "--in", str(path), "--step", "0.02", "--m", "2",
                "--jobs", "1", "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "refine:" in out and "shift:" in out and "PASS" in out
    records = json.loads(report.read_text())
    assert {r["algorithm"] for r in records} == {"refine-audit", "shift-audit"}


def test_audit_report_does_not_depend_on_instance_directory(tmp_path):
    src = _gen(tmp_path, n=4, k=1, extent=5.0, seed=6)
    reports = []
    for d in ("a", "b/c"):
        (tmp_path / d).mkdir(parents=True)
        inst = tmp_path / d / "inst.json"
        inst.write_bytes(src.read_bytes())
        report = tmp_path / d / "audit.json"
        assert run(["audit", "--in", str(inst), "--step", "0.02", "--m", "2",
                    "--jobs", "1", "--out", str(report)]) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]
    assert {r["instance"] for r in json.loads(reports[0])} == {"inst.json"}


def test_audit_and_compare_reports_are_json_dumps_bytes(tmp_path):
    path = _gen(tmp_path, n=5, seed=2)
    for verb, flags in (("audit", ["--step", "0.02", "--m", "2"]),
                        ("compare", ["--m", "2,4"])):
        report = tmp_path / f"{verb}.json"
        assert run([verb, "--in", str(path), *flags,
                    "--out", str(report)]) == 0
        text = report.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_audit_leaves_no_cyclic_garbage(tmp_path):
    # An audit-12-sized draw with its report written: every object the
    # verb allocates, the report writer's included, dies by reference count.
    path = _gen(tmp_path, n=12, k=2, extent=6.0, seed=1)
    argv = ["audit", "--in", str(path), "--m", "4", "--jobs", "1",
            "--out", str(tmp_path / "audit.json")]
    assert run(argv) == 0    # warm up first-call caches
    gc.collect()
    gc.disable()
    try:
        assert run(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("verb", ["solve", "generate"])
def test_solve_and_generate_leave_no_cyclic_garbage(tmp_path, verb):
    # A sparse draw solved and its solution written, or an instance
    # generated and written: every object the verb allocates dies by
    # reference count.
    path = _gen(tmp_path, n=40, k=3, extent=12.0, seed=5)
    if verb == "solve":
        argv = ["solve", "--in", str(path), "--m", "4", "--out",
                str(tmp_path / "sol.json")]
    else:
        argv = ["generate", "--family", "uniform", "--n", "40", "--k", "3",
                "--extent", "12", "--seed", "6", "--out", str(tmp_path / "g.json")]
    assert run(argv) == 0    # warm up first-call caches
    gc.collect()
    gc.disable()
    try:
        assert run(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def _benchmark_tracing():
    """benchmark/tracing.py, loaded from its file: the program never
    imports it."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_run(argv):
    """The benchmark tracer's counts over one `run(argv)`, which must exit
    0, after checking that the tracer wrapped the round stage's DP and
    that undo restored every name of the modules it wraps."""
    from sinkcover import oracle, ptas
    tracing = _benchmark_tracing()
    modules = (cli, oracle, ptas)
    before = [dict(vars(mod)) for mod in modules]
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert ptas.solve_cell is not before[2]["solve_cell"]
        assert run(argv) == 0
    finally:
        undo()
    for mod, saved in zip(modules, before):
        assert all(vars(mod)[k] is v for k, v in saved.items()), mod.__name__
    return tracer.counts


def test_benchmark_tracer_counts_a_sparse_solve(tmp_path):
    # The benchmark's tracer wraps the round stage's names from outside
    # src/ and reads counts off what they return: cells, pools and DP
    # calls are seen, the DP's states add up to the solution's echo, no
    # call is counted as an escalation, and undo restores every name.
    path = _gen(tmp_path, n=60, k=4, extent=20.0, seed=7)
    out = tmp_path / "sol.json"
    counts = _traced_run(["solve", "--in", str(path), "--m", "4", "--out", str(out)])
    for name in ("grid.cells", "grid.pool_sum", "strip_dp.calls", "strip_dp.subsets"):
        assert counts[name] > 0, name
    assert counts["strip_dp.subsets"] == \
        read_solution(out).config["counters"]["subsets_enumerated"]
    assert counts["strip_dp.escalations"] == 0


def test_benchmark_tracer_counts_an_audit(tmp_path):
    # An audit op, traced the same way: the tracer reads the branch and
    # bound's nodes and the grid sweep's points off the oracles' results,
    # and the points are the report's.
    path = _gen(tmp_path, n=12, k=2, extent=6.0, seed=3)
    report = tmp_path / "audit.json"
    counts = _traced_run(["audit", "--in", str(path), "--m", "4", "--out", str(report)])
    refine = {r["algorithm"]: r for r in json.loads(report.read_text())}["refine-audit"]
    assert counts["oracle.exact.nodes"] > 0
    assert counts["oracle.grid_audit.points"] == refine["counters"]["grid_points"]


def test_audit_refuses_more_targets_than_mask_bits(tmp_path, capsys):
    # The grid sweep packs covered sets into int64 masks; 70 targets used to
    # overflow them into an infinite grid optimum that still passed.
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"r": 1.0, "stations": [[0.0, 1.5]],
                                "targets": [[3.0 * i, 0.0] for i in range(70)]}))
    assert run(["audit", "--in", str(path), "--m", "2", "--jobs", "1"]) == 1
    assert "error[input]" in capsys.readouterr().err


def test_audit_refuses_a_grid_too_fine_to_sweep(tmp_path, capsys):
    # At pitch 1e-5 one target's 2r x 2r box holds about 4e10 grid points;
    # the sweep used to start on them and run without bound.
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"r": 1.0, "stations": [[3.0, 0.0]],
                                "targets": [[0.0, 0.0]]}))
    t0 = time.perf_counter()
    assert run(["audit", "--in", str(path), "--step", "1e-5", "--m", "2",
                "--jobs", "1"]) == 1
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error[input]: grid of pitch 1e-05 has 4e+10 points")


def test_audit_refuses_an_axis_too_long_before_building_it(tmp_path, capsys, monkeypatch):
    # Two targets 3e8 apart at pitch r make a grid of 9e8 points, under
    # the 1e9 bound, but its x axis alone would take 2.4 GB.
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"r": 1.0, "stations": [[0.0, 2.0]],
                                "targets": [[0.0, 0.0], [3e8, 0.0]]}))
    monkeypatch.setattr(np, "arange", _must_not_run)
    assert run(["audit", "--in", str(path), "--step", "1", "--m", "2"]) == 1
    assert capsys.readouterr().err.startswith(
        "error[input]: grid of pitch 1.0 has 3e+08 points on one axis")


FAR_AUDITS = {
    "rows collapse": {"r": 1.0, "targets": [[1e15, 1e15], [1e15 + 1.5, 1e15]],
                      "stations": [[1e15, 1e15 + 3]]},
    "box collapses": {"r": 1.0, "targets": [[1e300, 1e300]],
                      "stations": [[-1e300, -1e300]]},
}


@pytest.mark.parametrize("case", ["pitch past the box", *FAR_AUDITS])
def test_audit_refuses_a_grid_that_misses_a_target(tmp_path, capsys, case):
    # Each used to pass on no covered set (worst excess -inf, which is not
    # JSON) or die in the sweep with an IndexError.
    if case in FAR_AUDITS:
        path, step = tmp_path / "far.json", []
        path.write_text(json.dumps(FAR_AUDITS[case]))
    else:
        path, step = _gen(tmp_path, n=6, k=2, r=1.0, extent=5.0, seed=1), ["--step", "50"]
    capsys.readouterr()
    out = tmp_path / "audit.json"
    assert run(["audit", "--in", str(path), "--m", "4", "--out", str(out), *step]) == 1
    got = capsys.readouterr()
    assert got.out == "" and got.err.startswith("error[input]: ")
    assert "Traceback" not in got.err and not out.exists()


def test_audit_refuses_a_grid_that_misses_a_target_before_the_exact_oracle(
        tmp_path, capsys, monkeypatch):
    # The CI instance at a pitch past its box: the grid's one point covers
    # no target, and the branch and bound is never run.
    path = _gen(tmp_path, n=6, k=2, r=1.0, extent=5.0, seed=1)
    capsys.readouterr()
    monkeypatch.setattr(cli, "exact_min_cost_cover", _must_not_run)
    assert run(["audit", "--in", str(path), "--m", "4", "--step", "50"]) == 1
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == ("error[input]: no point of the grid of pitch 50.0 covers "
                       "6 of the 6 targets\n")


@pytest.mark.parametrize("step", ["nan", "inf", "-inf"])
def test_audit_non_finite_step_is_an_input_error(tmp_path, capsys, step):
    path = _gen(tmp_path, n=4, k=1, extent=5.0, seed=6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # numpy's RuntimeWarning would raise
        # "--step=-inf": argparse would take a separate "-inf" for an option.
        assert run(["audit", "--in", str(path), f"--step={step}", "--m", "2",
                    "--jobs", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "error[input]: step must be positive and finite\n"


def _must_not_run(*args, **kwargs):
    raise AssertionError("bad audit input must be refused before this runs")


@pytest.mark.parametrize("case", ["negative step", "too many targets", "grid too fine"])
def test_bad_audit_input_is_refused_before_the_exact_oracle(tmp_path, capsys,
                                                            monkeypatch, case):
    step = {"negative step": "-1", "grid too fine": "1e-5"}.get(case, "0.005")
    if case == "too many targets":
        path = _gen(tmp_path, n=70, k=3, extent=40.0, seed=1)
    else:
        path = _gen(tmp_path, n=26, k=2, extent=8.0, seed=2)
    capsys.readouterr()
    monkeypatch.setattr(cli, "generate_candidate_sites", _must_not_run)
    monkeypatch.setattr(cli, "exact_min_cost_cover", _must_not_run)
    assert run(["audit", "--in", str(path), f"--step={step}", "--m", "2"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error[input]: ")


def test_render_structure(tmp_path):
    path = _gen(tmp_path, n=5, seed=8)
    sol = tmp_path / "sol.json"
    svg = tmp_path / "out.svg"
    assert run(["solve", "--in", str(path), "--m", "2",
                "--out", str(sol), "--jobs", "1"]) == 0
    assert run(["render", "--in", str(path), "--solution", str(sol),
                "--svg", str(svg)]) == 0
    tree = ET.parse(svg)          # well-formed XML
    circles = [e for e in tree.iter() if e.tag.endswith("circle")]
    assert len(circles) == 5      # one detection circle per target
    root = tree.getroot()
    assert root.get("version") == "1.1"


@pytest.mark.parametrize("m, seed", [(2, 9), (3, 6)])
def test_render_cell_lines_are_every_mth_strip_line(tmp_path, monkeypatch, m, seed):
    # Vertical grid lines are the strip lines of the winning round, 2r apart;
    # every m-th one is a cell line, so cell lines lie cell_side * scale
    # apart.  The detection circles have radius r * scale, and each target's
    # circle lies in the strip the solver bins the target into.  At these
    # state budgets the draw leaves a component to the rounds, so the
    # rounds' costs differ and the cheapest is not round 0.
    path = _gen(tmp_path, n=24, extent=10.0, seed=seed)
    sol, svg = tmp_path / "sol.json", tmp_path / "out.svg"
    monkeypatch.setattr(strip_dp, "STATE_BUDGET", {2: 30, 3: 100}[m])
    assert run(["solve", "--in", str(path), "--m", str(m), "--out", str(sol)]) == 0
    assert run(["render", "--in", str(path), "--solution", str(sol),
                "--svg", str(svg)]) == 0
    tree = ET.parse(svg)
    circles = [e for e in tree.iter() if e.tag.endswith("circle")]
    scaled_r = float(circles[0].get("r"))
    vertical = sorted((float(e.get("x1")), e.get("stroke")) for e in tree.iter()
                      if e.tag.endswith("line") and e.get("x1") == e.get("x2")
                      and e.get("stroke") in ("#888888", "#dddddd"))
    for (xa, _), (xb, _) in zip(vertical, vertical[1:]):
        assert xb - xa == pytest.approx(2.0 * scaled_r, abs=1e-5)
    cell = [i for i, (_, stroke) in enumerate(vertical) if stroke == "#888888"]
    assert len(cell) >= 2 and cell[0] < m
    assert cell == list(range(cell[0], len(vertical), m))
    cell_side_scaled = 2.0 * m * scaled_r    # cell_side * scale, with r = 1
    for a, b in zip(cell, cell[1:]):
        assert vertical[b][0] - vertical[a][0] == pytest.approx(cell_side_scaled, abs=1e-5)
    inst, f = read_instance(path), read_solution(sol).shift_round
    assert f > 0    # the drawn tiling is shifted off round 0's
    xs = [x for x, _ in vertical]
    for c in bin_points(bounding_box(inst, m), inst.targets, f):
        for s in c.strips:
            for t in s.target_indices:
                left = bisect.bisect_right(xs, float(circles[t].get("cx"))) - 1
                assert (left - cell[0]) % m == s.number


def test_render_without_solution(tmp_path):
    path = _gen(tmp_path, n=3, seed=4)
    svg = tmp_path / "plain.svg"
    assert run(["render", "--in", str(path), "--svg", str(svg)]) == 0
    tree = ET.parse(svg)
    circles = [e for e in tree.iter() if e.tag.endswith("circle")]
    assert len(circles) == 3


def test_parse_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["solve", "--in", str(bad), "--m", "2",
                "--out", str(tmp_path / "s.json")]) == 1
    assert "error[parse]" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_solve_non_finite_epsilon_is_an_input_error(tmp_path, capsys, epsilon):
    # nan used to fail in ceil(4 / epsilon); inf used to run with m = 1.
    path = _gen(tmp_path)
    assert run(["solve", "--in", str(path), "--epsilon", epsilon,
                "--out", str(tmp_path / "sol.json")]) == 1
    assert capsys.readouterr().err == "error[input]: epsilon must be positive and finite\n"
    assert not (tmp_path / "sol.json").exists()


@pytest.mark.parametrize("metadata", [5, "x", [1]])
def test_instance_metadata_must_be_an_object(tmp_path, capsys, metadata):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"r": 1.0, "targets": [[0, 0]],
                                "stations": [[1, 0]], "metadata": metadata}))
    assert run(["solve", "--in", str(path), "--m", "2",
                "--out", str(tmp_path / "sol.json")]) == 1
    err = capsys.readouterr().err
    assert err == f'error[parse]: {path}: field "metadata" must be an object\n'


_SOLUTION = {"total_cost": 1.0, "shift_round": 0, "per_round_costs": [1.0, 1.5],
             "placements": [{"x": 0.5, "y": 0.0, "station": 0, "weight": 0.5}],
             "config": {"m": 2}}


@pytest.mark.parametrize("fields, message", [
    ({"config": None}, None),
    ({"per_round_costs": 5}, 'field "per_round_costs" must be a list'),
    ({"placements": {"x": 0.5, "y": 0.0}}, 'field "placements" must be a list'),
    ({"placements": [{"y": 0.0}]}, '"placements"[0] must be an object'),
    ({"placements": [{"x": "0.5", "y": 0.0}]}, '"placements"[0] must be an object'),
    ({"placements": [{"x": 0.5, "y": True}]}, '"placements"[0] must be an object'),
    ({"placements": [[0.5, 0.0]]}, '"placements"[0] must be an object'),
    ({"config": ["m", 2]}, 'field "config" must be an object'),
    ({"shift_round": "0"}, 'field "shift_round" must be an integer or null'),
    ({"config": {"m": "x"}}, 'field "config"["m"] must be a positive integer'),
    ({"config": {"m": 0}}, 'field "config"["m"] must be a positive integer'),
    ({"config": {"m": True}}, 'field "config"["m"] must be a positive integer'),
    ({"placements": [{"x": 0.5, "y": 0.0, "station": 1.0, "weight": 0.5}]},
     '"placements"[0]["station"] must be a non-negative integer'),
    ({"placements": [{"x": 0.5, "y": 0.0, "station": True, "weight": 0.5}]},
     '"placements"[0]["station"] must be a non-negative integer'),
    ({"placements": [{"x": 0.5, "y": 0.0, "station": -1, "weight": 0.5}]},
     '"placements"[0]["station"] must be a non-negative integer'),
    ({"placements": [{"x": 0.5, "y": 0.0, "station": 0}]},
     '"placements"[0]["weight"] must be a finite number'),
    ({"placements": [{"x": 0.5, "y": 0.0, "station": 0, "weight": "0.5"}]},
     '"placements"[0]["weight"] must be a finite number'),
    ({"placements": [{"x": float("inf"), "y": 0.0, "station": 0, "weight": 0.5}]},
     '"placements"[0]["x"] must be a finite number'),
    ({"placements": [{"x": 0.5, "y": float("-inf"), "station": 0, "weight": 0.5}]},
     '"placements"[0]["y"] must be a finite number'),
    ({"placements": [{"x": 10 ** 400, "y": 0.0, "station": 0, "weight": 0.5}]},
     '"placements"[0]["x"] must be a finite number'),
    ({"total_cost": "abc", "per_round_costs": [None, "x"]},
     'field "total_cost" must be a finite number'),
])
def test_render_rejects_malformed_solution_fields(tmp_path, capsys, fields, message):
    path = _gen(tmp_path, n=3, seed=4)
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({**_SOLUTION, **fields}))
    code = run(["render", "--in", str(path), "--solution", str(sol),
                "--svg", str(tmp_path / "out.svg")])
    err = capsys.readouterr().err
    if message is None:
        assert code == 0 and err == ""
    else:
        assert code == 1
        assert err.startswith(f"error[parse]: {sol}: ") and message in err


def test_an_instance_radius_past_the_float_range_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"r": 10 ** 400, "targets": [[0, 0]],
                                "stations": [[1, 0]]}))
    assert run(["solve", "--in", str(path), "--m", "2",
                "--out", str(tmp_path / "sol.json")]) == 1
    err = capsys.readouterr().err
    assert err == f'error[parse]: {path}: field "r" must be a positive number\n'


@pytest.mark.parametrize("fields, message", [
    ({"config": {"m": 1025}}, 'field "config"["m"] must be at most MAX_ROUNDS = 1024'),
    ({"config": {"m": 10 ** 400}}, 'field "config"["m"] must be at most MAX_ROUNDS = 1024'),
    ({"shift_round": -1}, 'field "shift_round" must lie in [0, MAX_ROUNDS = 1024)'),
    ({"shift_round": 1024}, 'field "shift_round" must lie in [0, MAX_ROUNDS = 1024)'),
    ({"shift_round": 10 ** 400}, 'field "shift_round" must lie in [0, MAX_ROUNDS = 1024)'),
    ({"shift_round": 2}, 'field "shift_round" must be below config["m"] = 2'),
    ({"per_round_costs": [1.0]}, 'field "per_round_costs" must hold config["m"] = 2 costs'),
    ({"per_round_costs": []}, 'field "per_round_costs" must hold config["m"] = 2 costs'),
    ({"per_round_costs": [1.0, 1.5, 2.0]},
     'field "per_round_costs" must hold config["m"] = 2 costs'),
], ids=["m-1025", "m-1e400", "shift-minus-1", "shift-1024", "shift-1e400",
        "shift-2-of-m-2", "one-cost-of-m-2", "no-cost-of-m-2", "three-costs-of-m-2"])
def test_render_rejects_rounds_outside_max_rounds(tmp_path, capsys, fields, message):
    path = _gen(tmp_path, n=3, seed=4)
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({**_SOLUTION, **fields}))
    assert run(["render", "--in", str(path), "--solution", str(sol),
                "--svg", str(tmp_path / "out.svg")]) == 1
    assert capsys.readouterr().err == f"error[parse]: {sol}: {message}\n"


def test_render_draws_no_line_from_a_station_the_instance_lacks(tmp_path):
    path = _gen(tmp_path, n=3, k=2, seed=4)
    sol, svg = tmp_path / "sol.json", tmp_path / "out.svg"
    for station, dashed in ((1, 1), (2, 0)):
        placement = {"x": 0.5, "y": 0.0, "station": station, "weight": 0.5}
        sol.write_text(json.dumps({**_SOLUTION, "placements": [placement]}))
        assert run(["render", "--in", str(path), "--solution", str(sol),
                    "--svg", str(svg)]) == 0
        assert svg.read_text().count("stroke-dasharray") == dashed


def test_render_rejects_a_solution_that_is_not_an_object(tmp_path, capsys):
    path = _gen(tmp_path, n=3, seed=4)
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps([_SOLUTION]))
    assert run(["render", "--in", str(path), "--solution", str(sol),
                "--svg", str(tmp_path / "out.svg")]) == 1
    err = capsys.readouterr().err
    assert err == f"error[parse]: {sol}: top level must be an object\n"


def test_help_exits_0():
    assert run(["--help"]) == 0


def test_shared_parser_matches_fresh_parsers(tmp_path, capsys, monkeypatch):
    # `run` reuses one parser; verbs, usage errors and --help interleaved
    # over repeated calls must behave as with a new parser per call.
    inst, sol = str(tmp_path / "inst.json"), tmp_path / "sol.json"
    calls = [
        ["generate", "--family", "uniform", "--out", inst, "--n", "6", "--k", "2",
         "--extent", "6", "--seed", "4"],
        ["solve", "--in", inst, "--m", "2", "--jobs", "1", "--out", str(sol)],
        ["solve", "--in", inst, "--out", str(sol)],
        ["--help"],
        ["exact", "--in", inst, "--out", str(tmp_path / "exact.json")],
        ["solve", "--in", inst, "--m", "3", "--cap", "bogus", "--out", str(sol)],
        ["solve", "--help"],
        ["solve", "--in", inst, "--epsilon", "2", "--jobs", "1", "--out", str(sol)],
        ["render", "--in", inst, "--solution", str(sol), "--svg", str(tmp_path / "a.svg")],
    ]

    def replay():
        sol.unlink(missing_ok=True)
        seen = []
        for argv in calls + calls:
            code = run(argv)
            out = capsys.readouterr()
            seen.append((code, out.out, out.err, sol.exists() and sol.read_bytes()))
        return seen

    shared = replay()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert replay() == shared
    assert [code for code, *_ in shared] == [0, 0, 1, 0, 0, 1, 0, 0, 0] * 2
