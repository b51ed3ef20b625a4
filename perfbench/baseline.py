#!/usr/bin/env python3
"""Re-measure the single-job baseline table of ROADMAP.md.

    python3 perfbench/baseline.py

Runs each job of the table in this process, one after another with numpy
pinned to one thread, and prints the median wall time over REPEATS runs next
to the job's exact work count where it has one. Jobs marked long run once.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import adderbound as ab  # noqa: E402

REPEATS = 3
COARSE = ab.OptimizerConfig(grid_points=256, refine_iters=40)


def _search(n, budget):
    res = ab.exhaustive_pair_search(n, budget_secs=budget)
    return f"{res.nodes:,} nodes, product {res.product}, exact={res.exact}"


def _log3_15():
    u = ab.log3_construction(15)
    assert ab.validate_system(u) is None
    return f"{u.m0 * u.m1 * u.m2:,} sums"


# (job, callable returning a work note, long-running)
JOBS = (
    ("ul_bound(1.0), default config", lambda: f"{ab.ul_bound(1.0):.6f}", False),
    ("main_bound(1.0), default config", lambda: f"{ab.main_bound(1.0):.6f}", False),
    ("main_bound(1.0), config (256, 40)", lambda: f"{ab.main_bound(1.0, COARSE):.6f}", False),
    ("curve(0.9, 1.0, 11), config (256, 40)", lambda: f"{len(ab.curve(0.9, 1.0, 11, COARSE).rows)} rows", False),
    ("run_all()", lambda: f"{sum(len(v) for v in ab.run_all().values())} checks", False),
    ("exhaustive_pair_search(3)", lambda: _search(3, 10.0), False),
    ("exhaustive_pair_search(4, budget_secs=1.0)", lambda: _search(4, 1.0), False),
    ("exhaustive_pair_search(4), 10 s budget", lambda: _search(4, 10.0), True),
    ("log3_construction(15) + validate_system", _log3_15, True),
)


def main():
    for job, fn, long_running in JOBS:
        times = []
        for _ in range(1 if long_running else REPEATS):
            t0 = time.perf_counter()
            note = fn()
            times.append(time.perf_counter() - t0)
        print(f"{job:45s} median {statistics.median(times):8.3f} s  min {min(times):8.3f} s  "
              f"n={len(times)}  {note}", flush=True)


if __name__ == "__main__":
    main()
