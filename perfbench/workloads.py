"""The four benchmark workloads: seeded inputs, one op, and its output check.

Each workload is a closed loop with one caller. Inputs come only from the
workload seed (stdlib ``random``, so generating them needs no numpy). An op
calls the library's public functions at their default settings and returns
plain Python values, so that two runs of the same op can be compared bit for
bit through ``repr``. Library functions are looked up on their modules at
call time, which lets the traced run swap in wrappers from outside.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import random
import re
from typing import Callable, NamedTuple

bounds = importlib.import_module("adderbound.bounds")
families = importlib.import_module("adderbound.families")
systems = importlib.import_module("adderbound.systems")
verify = importlib.import_module("adderbound.verify")

# op k of a run uses input k; op 0 is the untimed warm-up op
INPUTS_PER_RUN = 4096

# paper reference values at r1 = 1 (arXiv 1412.8415)
UL_AT_1 = 0.492160
MAIN_AT_1 = 0.479830

# the CLI `curve` default range
R1_LO, R1_HI = 0.9, 1.0

SEARCH_BUDGET_SECS = 1.0
SEARCH_N4_NODES = 150_000  # what exhaustive_pair_search makes of SEARCH_BUDGET_SECS

SYSTEM_N = 12
SYSTEM_PAIRS = math.comb(SYSTEM_N, 2 * SYSTEM_N // 3)  # 495
SYSTEM_TOTAL_RATE = (math.log2(SYSTEM_PAIRS) + 2 * SYSTEM_N // 3) / SYSTEM_N


def _spread_sums(f1, f2):
    """Element-wise vector sums a + c as tuples, independent of the library."""
    n = f1.n
    return [tuple((a >> i & 1) + (c >> i & 1) for i in range(n)) for a in f1.members for c in f2.members]


# -------------------------------------------------------------------- bounds


def bounds_inputs(seed):
    # r1 = 1.0 first, then antithetic pairs 0.9 + 0.1 u, 1.0 - 0.1 u: every
    # r1 is uniform on [0.9, 1.0], and since op time grows with r1, a pair
    # costs about the same whatever the seed (runs time whole pairs)
    rng = random.Random(seed)
    out = [R1_HI]
    while len(out) < INPUTS_PER_RUN:
        d = (R1_HI - R1_LO) * rng.random()
        out += [R1_LO + d, R1_HI - d]
    return out


def bounds_op(r1):
    return (r1, bounds.ul_bound(r1), bounds.main_bound(r1))


def bounds_check(r1, out):
    _, ul, main = out
    simple = max(1.5 - r1, 0.0)
    bad = []
    if r1 == 1.0 and (abs(ul - UL_AT_1) > 1e-6 or abs(main - MAIN_AT_1) > 1e-6):
        bad.append(f"r1=1: ul={ul!r}, main={main!r}, want {UL_AT_1}, {MAIN_AT_1}")
    if not (main <= ul + 1e-6 <= simple + 2e-6):
        bad.append(f"r1={r1!r}: main={main!r} ul={ul!r} simple={simple!r} out of order")
    if not all(0.0 <= v <= 1.0 for v in (ul, main)):
        bad.append(f"r1={r1!r}: bound outside [0, 1]")
    return bad


def bounds_work(r1, out):
    # counting objective evaluations needs the traced run
    return {}


# -------------------------------------------------------------------- search


def search_inputs(seed):
    # the search is deterministic, so the seed goes unused
    return [None] * INPUTS_PER_RUN


def search_op(_):
    out = []
    for res in (
        families.exhaustive_pair_search(3),
        families.exhaustive_pair_search(4, budget_secs=SEARCH_BUDGET_SECS),
    ):
        out.append((res.product, res.exact, res.nodes, res.f1, res.f2))
    return tuple(out)


def search_check(_, out):
    bad = []
    for (product, exact, nodes, f1, f2), n, want in zip(out, (3, 4), (14, 36)):
        sums = _spread_sums(f1, f2)
        if product != len(f1) * len(f2) or len(set(sums)) != len(sums):
            bad.append(f"n={n}: pair is not union-free or product {product} is wrong")
        if n == 3 and not (exact and product == want):
            bad.append(f"n=3: exact={exact}, product={product}, want exact 14")
        if n == 4 and (product < want or nodes > SEARCH_N4_NODES):
            bad.append(f"n=4: product {product} < {want} or {nodes} nodes > {SEARCH_N4_NODES}")
    return bad


def search_work(_, out):
    return {"nodes": sum(nodes for _, _, nodes, _, _ in out)}


# ------------------------------------------------------------------- systems


def systems_inputs(seed):
    # (kept pair, position overwritten by its copy)
    rng = random.Random(seed)
    return [tuple(rng.sample(range(SYSTEM_PAIRS), 2)) for _ in range(INPUTS_PER_RUN)]


def systems_op(dup):
    u = systems.log3_construction(SYSTEM_N)
    text = systems.system_to_json(u)
    parsed = systems.system_from_json(text)
    reason = systems.validate_system(parsed)
    keep, over = dup
    pairs = list(parsed.pairs)
    pairs[over] = pairs[keep]
    bad_reason = systems.validate_system(systems.UnionFreeSystem(parsed.n, tuple(pairs)))
    return (
        reason,
        systems.system_rates(parsed).total,
        parsed == u,
        len(text.encode()),
        hashlib.sha256(text.encode()).hexdigest(),
        parsed.m0 * parsed.m1 * parsed.m2,
        bad_reason,
    )


def systems_check(dup, out):
    reason, total, roundtrip, _, _, _, bad_reason = out
    bad = []
    if reason is not None:
        bad.append(f"log3 system rejected: {reason}")
    if abs(total - SYSTEM_TOTAL_RATE) > 1e-12:
        bad.append(f"total rate {total!r}, want {SYSTEM_TOTAL_RATE!r}")
    if not roundtrip:
        bad.append("JSON round trip changed the system")
    named = {int(x) for x in re.findall(r"\d+", bad_reason or "")}
    if not set(dup) <= named:
        bad.append(f"duplicate pair {dup} not named in rejection {bad_reason!r}")
    return bad


def systems_work(_, out):
    return {"sums_validated": out[5], "json_bytes": out[3]}


# ----------------------------------------------------------------- selfcheck


def selfcheck_inputs(seed):
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(INPUTS_PER_RUN)]


def selfcheck_op(s):
    # the same per-suite seeds as verify.run_all(s)
    return tuple(
        (name, r.name, r.passed, r.samples, r.max_violation, r.tolerance)
        for i, name in enumerate(verify.SUITE_NAMES)
        for r in verify.run_suite(name, s + i)
    )


def selfcheck_check(s, out):
    bad = [f"seed {s}: {suite}/{name} failed" for suite, name, passed, *_ in out if not passed]
    if {row[0] for row in out} != set(verify.SUITE_NAMES):
        bad.append(f"seed {s}: a suite returned no checks")
    return bad


def selfcheck_work(_, out):
    return {"checks": len(out)}


class Workload(NamedTuple):
    name: str
    inputs: Callable  # seed -> list of op inputs
    op: Callable  # input -> plain Python values
    check: Callable  # (input, output) -> list of failure messages
    work: Callable  # (input, output) -> {count name: exact work count}
    batch: int  # a run times whole batches of this many ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bounds", bounds_inputs, bounds_op, bounds_check, bounds_work, 2),
        Workload("search", search_inputs, search_op, search_check, search_work, 1),
        Workload("systems", systems_inputs, systems_op, systems_check, systems_work, 1),
        Workload("selfcheck", selfcheck_inputs, selfcheck_op, selfcheck_check, selfcheck_work, 1),
    )
}
