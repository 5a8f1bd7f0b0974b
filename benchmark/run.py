"""Run one sinkcover benchmark workload and print its metrics.

    python3 benchmark/run.py --workload dense-14 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/`.  All
workloads, one after another:

    for w in sparse-400 dense-14 audit-12; do
        python3 benchmark/run.py --workload $w --seed 1 --seconds 30; done

`--trace 0` measures the end-to-end metrics with nothing wrapped.
`--trace 1` runs ops untraced for half the time, replays the same instances
with every layer call wrapped (see tracing.py), and reports the per-layer
metrics plus the tracing overhead.  Op times are also given scaled to
calibration speed, by a fixed loop timed before, during and after each op
(see metrics.calibrate).  Every metric is printed by name with its
unit; the last line of stdout is one JSON object with the metrics that
BENCHMARK.json declares for the mode.  The run record (machine stamp, each
op's time, check result and output SHA-256, all metrics, and the spans of a
traced run) goes to benchmark/out/<workload>-seed<seed>-trace<trace>/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_audit, check_solution
from metrics import OpRecord, calibrate, end_to_end, per_layer, verdict
from tracing import Tracer, install
from workloads import DEADLINE_S, M, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
SAMPLE_EVERY_S = 0.025   # CPU seconds between calibrate() samples in an op
ADDRESS_SPACE_HEADROOM = 2 << 30   # an op that needs more raises MemoryError


class SpeedSamples:
    """SIGPROF handler: times calibrate() every SAMPLE_EVERY_S of CPU time
    while an op runs, and adds up the wall time that took, which is not
    the op's."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def __call__(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - t0


class OpDeadline(BaseException):
    """Raised in the op by SIGALRM; a BaseException so the CLI cannot catch it."""


def _on_alarm(signum, frame):
    raise OpDeadline()


def measure_setup() -> list[float]:
    """Seconds to import sinkcover.cli in fresh interpreters.  One unrecorded
    import first, so the bytecode cache is warm as for any later process."""
    code = ("import time; t = time.perf_counter(); import sinkcover.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=60)
        samples.append(float(done.stdout))
    return samples[1:]


def cap_address_space() -> None:
    with open("/proc/self/status") as f:
        vm = next(int(line.split()[1]) * 1024 for line in f
                  if line.startswith("VmSize:"))
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = vm + ADDRESS_SPACE_HEADROOM
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def stamp() -> dict:
    return {"time": time.time(), "loadavg": list(os.getloadavg())}


def run_op(w, cli, seed: int, index: int, workdir: Path,
           tracer: Tracer | None = None) -> OpRecord:
    instance = w.instance(seed, index)
    inst_path = workdir / "instance.json"
    out_path = workdir / "output.json"
    inst_path.write_text(json.dumps(instance))
    out_path.unlink(missing_ok=True)
    if tracer is not None:
        tracer.op = index
    rec = OpRecord(index=index, seconds=0.0, ok=False)
    log = io.StringIO()
    exit_code = None
    speed = SpeedSamples()
    speed.samples.append(calibrate())
    signal.signal(signal.SIGPROF, speed)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            exit_code = cli.run(w.argv(str(inst_path), str(out_path)))
    except OpDeadline:
        rec.reason = f"exceeded the {DEADLINE_S} s deadline"
    except Exception as e:
        rec.reason = f"raised {type(e).__name__}: {e}"
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
    rec.seconds = time.perf_counter() - t0 - speed.spent
    speed.samples.append(calibrate())
    rec.cal_s = statistics.fmean(speed.samples)
    if exit_code is not None:
        try:
            if w.verb == "audit":
                rec.reason, rec.cost, rec.optimum = check_audit(exit_code, out_path, M)
            elif exit_code != 0:
                rec.reason = f"solve exited {exit_code}: {log.getvalue().strip()}"
            else:
                rec.reason, rec.cost = check_solution(instance, out_path)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
            rec.reason = f"unreadable output: {type(e).__name__}: {e}"
        rec.ok = not rec.reason
    if out_path.exists():
        rec.sha256 = hashlib.sha256(out_path.read_bytes()).hexdigest()
    return rec


def run_loop(w, cli, seed: int, workdir: Path, seconds: float,
             min_ops: int) -> list[OpRecord]:
    """Closed loop, one client: run ops until `seconds` have passed and at
    least `min_ops` are done."""
    records: list[OpRecord] = []
    start = time.perf_counter()
    while len(records) < min_ops or time.perf_counter() - start < seconds:
        records.append(run_op(w, cli, seed, len(records), workdir))
    return records


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "sinkcover" / "cli.py").is_file():
        print(f"error: no sinkcover sources under {SRC}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = WORKLOADS[args.workload]

    before = stamp()
    setup_samples = measure_setup()
    sys.path.insert(0, str(SRC))
    import numpy
    from sinkcover import cli
    cap_address_space()
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = HERE / "out" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        untraced = run_loop(w, cli, args.seed, workdir, args.seconds / 2, 1)
        tracer = Tracer()
        undo = install(tracer)
        try:
            records = [run_op(w, cli, args.seed, r.index, workdir, tracer)
                       for r in untraced]
        finally:
            undo()
        metrics = per_layer(tracer, records, untraced)
        attempted = untraced + records
        declared = spec["per_layer"]
    else:
        records = run_loop(w, cli, args.seed, workdir, args.seconds, w.cost_ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(records, statistics.median(setup_samples),
                             peak_rss_mb, w.cost_ops)
        attempted = records
        declared = spec["end_to_end"]
    after = stamp()

    failed = [r for r in attempted if not r.ok]
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "numpy": numpy.__version__, "platform": platform.platform()}
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "before": before,
              "after": after, "setup_samples_s": setup_samples,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "ops": [vars(r) for r in attempted]}
    (workdir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(workdir / "spans.jsonl", "w") as f:
            for s in tracer.spans:
                f.write(json.dumps([s.op, s.name, s.start, s.end, s.parent]) + "\n")

    print(f"workload {w.name} seed {args.seed} trace {args.trace}: "
          f"{len(attempted)} ops, {len(failed)} failed; nproc {machine['nproc']}, "
          f"python {machine['python']}, numpy {machine['numpy']}, loadavg "
          f"{before['loadavg'][0]:.2f} -> {after['loadavg'][0]:.2f}")
    for r in failed[:5]:
        print(f"  failed op {r.index}: {r.reason}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<38} {value:.6g} {unit}")
    out = {}
    for d in declared:
        value, unit = metrics[d["name"]]
        assert unit == d["unit"], (d["name"], unit, d["unit"])
        out[d["name"]] = {"value": value, "unit": unit}
    print(json.dumps({**verdict(attempted), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
