#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and repeatability of traces.

    python3 perfbench/spread.py --workloads bounds,search --seeds 1-10
    python3 perfbench/spread.py --workloads systems --seeds 3 --trace-repeat

For each workload it runs run.py once per seed, one run at a time, and
prints every end-to-end metric's median and quartiles over the runs with
the spread (third minus first quartile, over the median) next to the bound
in BENCHMARK.json. It exits with code 1 if any spread, setup_s's included,
is above its bound, and marks the spreads that are within the bound but
above a third of it. With --trace-repeat it instead makes two traced runs
per seed and checks that every count repeats exactly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{' '.join(cmd)} reported incorrect output:\n{proc.stdout}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", required=True, help="comma-separated workload names")
    p.add_argument("--seeds", default="1-10", help="a seed or an inclusive range like 1-10")
    p.add_argument("--trace-repeat", action="store_true")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    ok = True
    for workload in args.workloads.split(","):
        if args.trace_repeat:
            counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
            for seed in _seeds(args.seeds):
                a, b = (_run(workload, seed, seconds, 1) for _ in range(2))
                diff = sorted(k for k in counts if a[k] != b[k])
                ok &= not diff
                print(f"{workload} seed {seed}: {len(counts)} counts, "
                      + (f"DIFFER: {', '.join(diff)}" if diff else "all repeat exactly"))
            continue
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(_run(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: " + json.dumps(runs[-1]), flush=True)
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok &= spread <= m["bound"]
            verdict = "WIDE" if spread > m["bound"] else "ok" if spread < m["bound"] / 3 else "ok, above bound/3"
            print(f"{workload:10s} {m['name']:12s} median {med:12.6g} {m['unit']:4s} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {spread:.4f} bound {m['bound']} {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
