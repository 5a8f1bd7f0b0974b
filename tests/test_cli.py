import json
import os
import subprocess
import sys
import time
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from sinkcover import cli
from sinkcover.cli import run
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


def test_solve_output_passes_feasibility_recheck(tmp_path):
    path = _gen(tmp_path, seed=9)
    out = tmp_path / "sol.json"
    assert run(["solve", "--in", str(path), "--m", "2",
                "--out", str(out), "--jobs", "1"]) == 0
    inst = read_instance(path)
    sol = read_solution(out)
    assert verify_solution(inst, sol.placement_points())


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


def test_solve_verify_cap_is_a_usage_error(tmp_path, capsys):
    # There is no --cap flag: the strip DP has no per-strip cap.
    path = _gen(tmp_path)
    out = tmp_path / "sol.json"
    assert run(["solve", "--in", str(path), "--m", "2", "--cap", "verify",
                "--out", str(out), "--jobs", "1"]) == 1
    assert "error[usage]" in capsys.readouterr().err
    assert not out.exists()


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
    assert verify_solution(inst, sol.placement_points())
    assert sol.shift_round is None


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
    assert run(["compare", "--in", str(path), "--m", "2,4", "--jobs", "1",
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
    assert run(["compare", "--in", str(path), "--m", "4", "--jobs", "1"]) == 0
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


_SOLUTION = {"total_cost": 1.0, "shift_round": 0, "per_round_costs": [1.0],
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
