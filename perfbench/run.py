#!/usr/bin/env python3
"""Benchmark of the adderbound library: four seeded closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bounds --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One run imports the library from ``src/``, builds its inputs from the seed,
does one untimed warm-up op, then runs ops one after another until
``--seconds`` have passed and a whole batch of ops is done (pairs for
bounds). Every op's output is checked. With ``--trace 0``
it reports the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` it instead runs the warm-up op again untraced and then twice
under the per-layer tracer (see tracing.py), checks that all four outputs are
identical and that both traced passes count the same work, and reports the
per-layer metrics. Times are in reference seconds (see CAL_REF_S), with the
wall seconds printed next to them. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. See
README.md.
"""

import os

# numpy's thread pools are sized when it loads: pin them to one thread here,
# before anything imports it (child processes inherit the setting)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("bounds", "search", "systems", "selfcheck")

# On a shared host the CPU's speed drifts: on the 2-core VM this benchmark was
# built on, the time of a fixed pure-Python loop varied by up to a factor of
# two within a quarter of an hour, and even within one op, far more than any
# bound a benchmark could hold. So a SpeedSampler times CAL_ITERS steps of
# such a loop every SAMPLE_EVERY_S seconds, and each timed span is reported in
# reference seconds: the time it would have taken at the speed at which the
# loop takes CAL_REF_S, from the samples taken during the span.
CAL_ITERS = 4_000
CAL_REF_S = 0.0005
SAMPLE_EVERY_S = 0.1


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _src_lines():
    total = 0
    for d, _, files in os.walk(os.path.join(SRC, "adderbound")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(d, f), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


class SpeedSampler:
    """Samples the host's speed from a SIGALRM handler while it is entered.

    The handler runs in the main thread between two bytecodes of whatever is
    running, so each sample times the calibration loop alone. It adds about
    1 % to the wall time of every span it samples.
    """

    def __init__(self):
        self.samples = []  # (perf_counter at the end of the loop, loop seconds)

    def _sample(self, *_):
        t0 = time.perf_counter()
        acc, d = 0, {}
        for i in range(CAL_ITERS):
            acc += (i * 7) % 13
            d[i & 1023] = acc
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def to_ref(self, t0, t1):
        """Reference seconds of the wall span [t0, t1]: its wall time times
        CAL_REF_S times the mean speed (1 / loop time) sampled inside it."""
        inv = [1.0 / d for t, d in self.samples if t0 <= t <= t1]
        if not inv:  # shorter than the sampling interval: the nearest sample
            inv = [1.0 / min(self.samples, key=lambda s: abs(s[0] - t1))[1]]
        return (t1 - t0) * CAL_REF_S * sum(inv) / len(inv)

    def loop_ms(self):
        return [d * 1e3 for _, d in self.samples]


def _setup(name, seed):
    """Import, input generation and one warm-up op, timed together.

    Returns the workload, its inputs, the warm-up output (None if the op
    raised; the traceback goes to stderr) and the set-up time as
    (wall seconds, reference seconds).
    """
    with SpeedSampler() as sp:
        t0 = time.perf_counter()
        import workloads

        w = workloads.WORKLOADS[name]
        inputs = w.inputs(seed)
        try:
            out = w.op(inputs[0])
        except Exception:
            traceback.print_exc()
            out = None
        t1 = time.perf_counter()
    return w, inputs, out, (t1 - t0, sp.to_ref(t0, t1))


def _check(w, inp, out):
    if out is None:
        return ["raised"]
    try:
        return w.check(inp, out)
    except Exception:
        return [traceback.format_exc(limit=3)]


def _percentile(values, q):
    # nearest-rank percentile over the sorted sample
    s = sorted(values)
    return s[min(len(s) - 1, max(0, -(-q * len(s) // 100) - 1))]


def _emit(correct, attempted, failed, metrics, spec_key):
    """Print the result line with exactly the metrics BENCHMARK.json names."""
    out = {}
    for m in _spec()[spec_key]:
        if m["name"] not in metrics:
            _fail(f"metric {m['name']} was not measured")
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            _fail(f"metric {m['name']} measured in {unit}, BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))


def _header(args, trace):
    import numpy

    print(
        f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={trace} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"nproc={len(os.sched_getaffinity(0))} src_lines={_src_lines()}"
    )


def _work_totals(w, done):
    totals = {}
    for inp, out in done:
        for k, v in w.work(inp, out).items():
            totals[k] = totals.get(k, 0) + v
    return totals


def run_timed(args):
    w, inputs, out0, setup = _setup(args.workload, args.seed)
    failures = [f"op 0: {m}" for m in _check(w, inputs[0], out0)]
    attempted, failed = 1, int(bool(failures))

    spans, outs, k = [], [], 1
    clock = time.perf_counter
    with SpeedSampler() as sp:
        start = clock()
        while True:
            t0 = clock()
            try:
                outs.append(w.op(inputs[k]))
            except Exception:
                outs.append(None)
                failures.append(f"op {k}: {traceback.format_exc(limit=3)}")
            t1 = clock()
            spans.append((t0, t1))
            k += 1
            if (t1 - start >= args.seconds and (k - 1) % w.batch == 0) or k == len(inputs):
                break
    ok = 0
    for i, out in enumerate(outs, start=1):
        bad = _check(w, inputs[i], out)
        if out is not None:  # an op that raised is already in failures
            failures += [f"op {i}: {m}" for m in bad]
        ok += not bad
    attempted += len(outs)
    failed += len(outs) - ok
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    lats = [t1 - t0 for t0, t1 in spans]
    ref = [sp.to_ref(t0, t1) for t0, t1 in spans]
    metrics = {
        "setup_s": (setup[1], "s"),
        "ops_per_s": (ok / sum(ref), "1/s"),
        "op_p50_s": (statistics.median(ref), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }

    _header(args, 0)
    n, wall = len(lats), sum(lats)
    above_p90 = sum(1 for x in ref if x > _percentile(ref, 90))
    print("times in reference seconds (see README); wall seconds in brackets")
    print(f"setup_s          {setup[1]:.4f} s    [{setup[0]:.4f}]")
    print(f"ops_per_s        {metrics['ops_per_s'][0]:.5f} 1/s  ({ok} ops passed in {sum(ref):.3f} s [{wall:.3f} s])")
    print(f"op_p50_s         {metrics['op_p50_s'][0]:.4f} s    [{statistics.median(lats):.4f}] (n={n})")
    if above_p90 >= 10:
        print(f"op_p90_s         {_percentile(ref, 90):.4f} s    [{_percentile(lats, 90):.4f}] "
              f"(n={n}, {above_p90} above)")
    else:
        print(f"op_p90_s         undefined  (n={n}; needs 10 ops above p90, has {above_p90})")
    print(f"ops_failed_frac  {failed / attempted:.4f}      ({failed} of {attempted} ops attempted)")
    print(f"peak_rss_mb      {rss_mb:.3f} MB")
    loop = sp.loop_ms()
    print(f"speed samples    {len(loop)}, loop {min(loop):.3f} to {max(loop):.3f} ms, "
          f"median {statistics.median(loop):.3f} ms (reference {CAL_REF_S * 1e3:g} ms)")
    work = _work_totals(w, [(inp, out) for inp, out in zip(inputs[1:], outs) if out is not None])
    if work:
        print("work             " + ", ".join(f"{k}={v:,} ({v / wall:,.0f}/s wall)" for k, v in work.items()))
    if args.workload == "bounds":
        print("r1 per op        " + ", ".join(
            f"{inputs[i]:.6f} ({r:.3f} s [{x:.3f}])" for i, (r, x) in enumerate(zip(ref, lats), 1)))
    for f in failures:
        print(f"FAILED {f}")
    _emit(not failures, attempted, failed, metrics, "end_to_end")


def run_traced(args):
    w, inputs, out_u, _ = _setup(args.workload, args.seed)
    if out_u is None:
        _fail("the warm-up op raised, so there is nothing to trace")
    import tracing

    clock = time.perf_counter
    ref = []
    with SpeedSampler() as sp:
        t0 = clock()
        out_ref = w.op(inputs[0])
        untraced_s = clock() - t0
        ref.append(sp.to_ref(t0, t0 + untraced_s))
        passes = []
        for _ in range(2):
            tr = tracing.Tracer()
            tr.op = 0
            with tr.installed():
                t0 = clock()
                out = w.op(inputs[0])
                wall = clock() - t0
            ref.append(sp.to_ref(t0, t0 + wall))
            tr.spans.append({"op": 0, "name": f"op.{w.name}", "args": [inputs[0]], "wall_s": wall})
            passes.append((tr, out, wall))
    (tr_a, out_a, traced_a), (tr_b, out_b, traced_b) = passes

    failures, failed = [], 0
    for label, out in (("warm-up", out_u), ("untraced", out_ref), ("traced 1", out_a), ("traced 2", out_b)):
        bad = _check(w, inputs[0], out)
        failures += [f"{label}: {m}" for m in bad]
        failed += bool(bad)
    if not repr(out_u) == repr(out_ref) == repr(out_a) == repr(out_b):
        failures.append("traced output differs from untraced output")
    if tr_a.counts() != tr_b.counts():
        failures.append("counts differ between the two traced passes")
    # in reference seconds, so that a drift of the host's speed between the
    # passes does not show as overhead
    overhead = (ref[1] + ref[2]) / (2 * ref[0]) - 1.0
    metrics = tr_a.metrics()
    metrics["trace.overhead_frac"] = (overhead, "frac")

    _header(args, 1)
    print(f"op 0 input       {inputs[0]!r}")
    print(f"wall             untraced {untraced_s:.4f} s, traced {traced_a:.4f} s and {traced_b:.4f} s; "
          f"trace.overhead_frac {overhead:.4f}")
    if tr_a.missing:
        print("not in the library (reported as 0): " + ", ".join(tr_a.missing))
    for name, (value, unit) in metrics.items():
        if value:
            print(f"  {name:58s} {value:>16,.6g} {unit}" if unit in ("s", "1/s", "frac")
                  else f"  {name:58s} {value:>16,} {unit}")
    for span in tr_a.spans:
        print("span " + json.dumps(span))
    for f in failures:
        print(f"FAILED {f}")
    _emit(not failures, 4, failed, metrics, "per_layer")


def run_all(args):
    """Every workload in its own process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            _fail(f"workload {name} exited with code {proc.returncode}")
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
        print()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=_spec()["run_seconds"],
                   help="timed wall per run (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "adderbound", "__init__.py")):
        _fail(f"no adderbound sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    if args.workload == "all":
        run_all(args)
    elif args.trace:
        run_traced(args)
    else:
        run_timed(args)


if __name__ == "__main__":
    main()
