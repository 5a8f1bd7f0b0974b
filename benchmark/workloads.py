"""The benchmark's workloads and their seeded instances.

Each workload is a closed loop with one client: it runs one in-process CLI
verb with `--jobs 1`, waits for it, checks its output, then runs the next.
Instances are drawn with the law of `sinkcover.gen_uniform` (targets then
stations, uniform in an extent x extent box) from a generator seeded by the
workload name, the run's seed and the op index, and are handed to the
program only as instance files.

Why these workloads (measured on a 2-vCPU x86-64 VM, Python 3.11, whose
CPU speed changes by up to 1.6x with load from other tenants; wall times
below are as measured, and the benchmark reports op times scaled to
calibration speed, see metrics.calibrate):

- sparse-400: `solve --m 4`, n=400, k=10, r=1, 63x63 box (the roadmap's
  sparse density, 0.1 targets per unit area).  The quadratic candidate-site
  front end (`sites`) takes about 90% of a 1.3-1.9 s op; `strip_dp` sees
  hundreds of tiny cells per op, so a DP change that adds per-call cost
  shows here too.
- dense-14: `solve --m 4`, n=14, k=2, r=1, 8x8 box.  `strip_dp` is the
  largest layer; p50 about 7 ms, and one op in about a thousand runs 0.3-1.2 s
  from strip-DP state growth, the roadmap's dense defect in a form no
  deadline trips over.  Those few draws make the mean, and so throughput,
  spread about 22% across seeds even at calibration speed, which is why
  BENCHMARK.json declares the median op time and not `cal_ops_per_s`.
- audit-12: `audit --m 4` at the default pitch r/200, n=12, k=2, r=1, 6x6
  box.  The `oracle` layer (the numpy grid sweep, then branch and bound over
  the distinct cover sets) takes about 97% of a 0.5-0.8 s op, so a 30 s run
  holds about 40 ops.

Left out, with what was measured on the same machine:

- Sparse n=1000 (k=10, 100x100 box): 11-19 s per op, so a 30 s run holds
  2-3 ops, and op_s.p50, ops_per_s and solution_cost spread 24-26% across
  five seeds.  At n=200 and n=250 (0.3-0.7 s ops) op_s.p50 spread 23-26%:
  short ops each land in one of the machine's fast or slow spells, so the
  run median jumps between the two; longer ops average over them.
- Sparse n=5000: the quadratic front end makes it about 25 times the n=1000
  cost, beyond one run.
- Dense n=30 at m=4, the failing row of the roadmap: per-op time spreads
  over 0.05 s, 12.6 s and more than 25 s across 12 seeds, and under a 600 MB
  address cap it computed for 10 minutes without failing, so no deadline
  gives a steady failure count.
- Dense n=16 to n=24 at m=4 (and n=16 at m=6 or m=8, n=20 at m=3, n=24 at
  m=2): strip_dp takes 60-94% of op time, but the tail is heavy.  n=16 ran
  2.4-4.8 s on 5 of 10,000 draws; n=17 ran 8.9 s and n=20 more than 10 s on
  one draw in 300.  Over the thousands of ops in a run the op mean then
  spreads 17-35% from seed to seed, and a deadline would count failures.
- `audit` on dense n=24: branch and bound over unpruned grid sites averages
  about 21 s per op.  At n=20 ops take 1.4-5.2 s, too few per run to give a
  steady mean; at n=16 in an 8x8 box they take 1.0-1.5 s, about 20 per run,
  and op_s.p50 spread 0.29 (IQR/median) across ten seeds in one set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

M = 4              # shifting rounds of every verb
DEADLINE_S = 30.0  # an op still running after this counts as failed


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str           # "solve" or "audit"
    n: int
    k: int
    extent: float
    cost_ops: int       # a run always completes this many ops; solution_cost sums them

    def argv(self, instance_path: str, output_path: str) -> list[str]:
        return [self.verb, "--in", instance_path, "--out", output_path,
                "--m", str(M), "--jobs", "1"]

    def instance(self, seed: int, index: int) -> dict:
        rng = random.Random(f"{self.name}/{seed}/{index}")
        targets = [[rng.uniform(0, self.extent), rng.uniform(0, self.extent)]
                   for _ in range(self.n)]
        stations = [[rng.uniform(0, self.extent), rng.uniform(0, self.extent)]
                    for _ in range(self.k)]
        return {"r": 1.0, "targets": targets, "stations": stations,
                "metadata": {"generator": "uniform", "n": self.n, "k": self.k,
                             "r": 1.0, "extent": self.extent}}


WORKLOADS = {w.name: w for w in (
    Workload("sparse-400", "solve", n=400, k=10, extent=63.25, cost_ops=15),
    Workload("dense-14", "solve", n=14, k=2, extent=8.0, cost_ops=1000),
    Workload("audit-12", "audit", n=12, k=2, extent=6.0, cost_ops=30),
)}
