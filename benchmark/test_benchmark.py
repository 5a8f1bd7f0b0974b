"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest benchmark -q
"""

import json
import math
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import check_audit, check_solution  # noqa: E402
import run  # noqa: E402
from metrics import (CAL_S, OpRecord, end_to_end, fail_share, tail,  # noqa: E402
                     verdict)
from tracing import Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_tail_needs_twenty_ops():
    assert tail([0.1] * 19) is None
    pct, value = tail([float(i) for i in range(20)])
    assert pct == 50.0
    assert value == 9.0     # ten ops (10..19) lie above it


def test_tail_is_highest_percentile_with_ten_ops_beyond():
    xs = [float(i) for i in range(1000)]
    pct, value = tail(list(reversed(xs)))
    assert pct == 99.0
    assert value == 989.0
    assert sum(x > value for x in xs) == 10
    pct, value = tail(xs[:137])
    assert math.isclose(pct, 100.0 * 127 / 137)
    assert sum(x > value for x in xs[:137]) == 10


def test_self_time_subtracts_direct_children_only():
    spans = [Span("op", 0.0, 10.0, None, 0),
             Span("a", 1.0, 4.0, 0, 0),
             Span("a.1", 2.0, 3.0, 1, 0),
             Span("b", 5.0, 9.0, 0, 0),
             Span("b.1", 5.0, 6.0, 3, 0),
             Span("b.2", 6.5, 8.0, 3, 0)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 1.5, 1.0, 1.5]


def test_wrapped_calls_nest_and_count():
    t = Tracer()
    inner = t.wrap("inner", lambda x: [x] * x,
                   count=lambda tr, args, res: tr.counts.__setitem__(
                       "items", tr.counts["items"] + len(res)))
    outer = t.wrap("outer", lambda: inner(2) + inner(3))
    t.op = 7
    assert outer() == [2, 2, 3, 3, 3]
    assert [s.name for s in t.spans] == ["outer", "inner", "inner"]
    assert [s.parent for s in t.spans] == [None, 0, 0]
    assert {s.op for s in t.spans} == {7}
    assert t.counts["items"] == 5
    own = self_times(t.spans)
    assert own[0] <= t.spans[0].end - t.spans[0].start
    assert all(x >= 0 for x in own)


def test_fail_share_counts_every_failed_op():
    recs = [OpRecord(0, 1.0, True), OpRecord(1, 2.0, False, "deadline"),
            OpRecord(2, 1.0, True), OpRecord(3, 1.0, False, "wrong cost")]
    assert fail_share(recs) == 0.5
    m = end_to_end(recs, setup_s=0.2, peak_rss_mb=50.0, cost_ops=2)
    assert m["fail_share"] == (0.5, "ratio")
    assert m["cal_ops_per_s"] == (4 / 5.0, "1/s")
    assert m["cal_op_s.p50"] == (1.0, "s")
    assert "cal_op_s.tail" not in m


class _SlowCli:
    @staticmethod
    def run(argv):
        time.sleep(5.0)
        return 0


def test_timed_out_op_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "DEADLINE_S", 0.05)
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        rec = run.run_op(WORKLOADS["dense-14"], _SlowCli, 1, 0, tmp_path)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert not rec.ok and "deadline" in rec.reason
    assert rec.seconds < 1.0
    good = [OpRecord(i, 1.0, True, cost=5.0) for i in range(1, 4)]
    assert verdict(good) == {"correct": True, "attempted": 3, "failed": 0}
    assert verdict([rec] + good) == {"correct": False, "attempted": 4, "failed": 1}


class _BusyCli:
    @staticmethod
    def run(argv):
        end = time.process_time() + 0.2
        while time.process_time() < end:
            pass
        return 3


def test_op_is_timed_without_its_speed_samples(tmp_path):
    t0 = time.perf_counter()
    rec = run.run_op(WORKLOADS["dense-14"], _BusyCli, 1, 0, tmp_path)
    outside = time.perf_counter() - t0
    assert not rec.ok and "exited 3" in rec.reason
    assert 0.1 < rec.seconds < outside and rec.cal_s != CAL_S
    speed = run.SpeedSamples()
    speed(signal.SIGPROF, None)
    speed(signal.SIGPROF, None)
    assert len(speed.samples) == 2 and speed.spent >= sum(speed.samples)


def test_solution_cost_sums_the_fixed_prefix():
    recs = [OpRecord(i, 1.0, True, cost=float(i)) for i in range(30)]
    m = end_to_end(recs, 0.2, 50.0, cost_ops=4)
    assert m["solution_cost"] == (0.0 + 1 + 2 + 3, "dist")
    assert m["cal_op_s.tail"] == (1.0, "s") and m["cal_op_s.tail_pct"][0] == pytest.approx(100 * 20 / 30)


def test_calibrated_time_scales_by_the_loop_run_alongside():
    recs = [OpRecord(0, 3.0, True, cal_s=2 * CAL_S), OpRecord(1, 1.0, True),
            OpRecord(2, 2.0, True, cal_s=CAL_S / 2)]
    m = end_to_end(recs, 0.2, 50.0, cost_ops=3)
    assert m["cal_op_s.p50"] == (1.5, "s") and m["wall_op_s.p50"] == (2.0, "s")
    assert m["cal_ops_per_s"] == (3 / 6.5, "1/s")
    assert m["wall_ops_per_s"] == (3 / 6.0, "1/s")


INSTANCE = {"r": 1.0, "targets": [[0.0, 0.0], [3.0, 0.0]],
            "stations": [[0.0, 2.0], [3.0, -4.0]]}


def _solution(tmp_path, placements, total):
    path = tmp_path / "sol.json"
    path.write_text(json.dumps({"total_cost": total, "placements": placements}))
    return path


def test_check_solution_accepts_a_valid_schedule(tmp_path):
    ps = [{"x": 0.0, "y": 1.0, "station": 0, "weight": 1.0},
          {"x": 3.0, "y": -1.0, "station": 1, "weight": 3.0}]
    assert check_solution(INSTANCE, _solution(tmp_path, ps, 4.0)) == ("", 4.0)


@pytest.mark.parametrize("ps, total, why", [
    ([{"x": 0.0, "y": 1.0, "station": 0, "weight": 1.0}], 1.0, "not covered"),
    ([{"x": 0.0, "y": 1.0, "station": 0, "weight": 0.5},
      {"x": 3.0, "y": -1.0, "station": 1, "weight": 3.0}], 3.5, "weight"),
    ([{"x": 0.0, "y": 1.0, "station": 0, "weight": 1.0},
      {"x": 3.0, "y": -1.0, "station": 1, "weight": 3.0}], 3.9, "total_cost"),
])
def test_check_solution_rejects(tmp_path, ps, total, why):
    reason, _ = check_solution(INSTANCE, _solution(tmp_path, ps, total))
    assert why in reason


def _audit_report(tmp_path, optimum, selected):
    path = tmp_path / "audit.json"
    path.write_text(json.dumps([
        {"algorithm": "refine-audit", "counters": {"discrete_opt": optimum}},
        {"algorithm": "shift-audit", "counters": {"minimum": selected}}]))
    return path


def test_check_audit(tmp_path):
    assert check_audit(0, _audit_report(tmp_path, 10.0, 19.0), 4) == ("", 19.0, 10.0)
    assert "exceeds" in check_audit(0, _audit_report(tmp_path, 10.0, 20.5), 4)[0]
    assert "exited 2" in check_audit(2, _audit_report(tmp_path, 10.0, 10.0), 4)[0]
