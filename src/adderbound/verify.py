"""Seeded self-checks behind the `verify` subcommand.

Each check draws a fixed number of samples from a deterministic generator,
measures its worst violation of a stated inequality, and passes iff that
violation stays within tolerance. Counting checks (exact combinatorial
agreement) report the number of failures instead, with tolerance 0. Given
the same seed the suites produce bit-identical results on one host.

Draws become Python floats and ints once, by .tolist(), with the same
generator calls and so the same samples. A drawn family or joint is trusted
by construction, built without the checks that its draw already meets. Each
cross-check against the envelope J collects its samples and evaluates J in
one array call, whose elements carry the scalar calls' bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from .bounds import conditional_sum_envelope, sum_rate_envelope
from .distributions import (
    AuxBinaryJoint,
    attaining_joint,
    bernoulli_sum_entropy,
    cond_envelope_via_moments,
    entropy_at_variance,
    entropy_triplet,
    joint_from_system,
    quad_entropy_envelope,
    symmetrize,
)
from .entropy import _integer, binary_convolve, binary_entropy, binary_entropy_inv
from .families import (
    Family,
    _multiplicities,
    exhaustive_pair_search,
    is_multiset_union_free,
    max_k_shattered,
    shattering_profile,
    shift_monotonize,
    soft_sauer_bound,
)
from .systems import (
    derive_system,
    is_valid_system,
    log3_construction,
    system_from_json,
    system_rates,
    system_to_json,
)

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    passed: bool
    samples: int
    max_violation: float
    tolerance: float


def _check(name: str, samples: int, violation: float, tol: float) -> CheckResult:
    return CheckResult(name, bool(violation <= tol), samples, float(violation), tol)


def _random_family(rng, max_n=10, max_size=60) -> Family:
    n = int(rng.integers(1, max_n + 1))
    space = 1 << n
    size = int(rng.integers(1, min(space, max_size) + 1))
    return Family._trusted(n, tuple(sorted(rng.choice(space, size=size, replace=False).tolist())))


def _random_joint(rng, max_support=4) -> AuxBinaryJoint:
    m = int(rng.integers(1, max_support + 1))
    masses = tuple(rng.dirichlet(np.ones(m)).tolist())
    tq = tuple(rng.uniform(0.0, 1.0, 2 * m).tolist())  # the doubles of two draws of m, in order
    return AuxBinaryJoint._trusted(masses, tq[:m], tq[m:])


# ------------------------------------------------------------------- entropy


def _entropy_suite(seed: int) -> List[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    ps = rng.uniform(0.0, 1.0, 2000).tolist() + [0.0, 1.0, 0.5, 1e-12]
    viol = max(abs(binary_entropy(p) - binary_entropy(1.0 - p)) for p in ps)
    out.append(_check("binary-entropy-symmetry", len(ps), viol, 4e-15))

    xs = rng.uniform(0.0, 1.0, 2000).tolist()
    viol = 0.0
    for x in xs:
        p = binary_entropy_inv(x)
        viol = max(viol, abs(binary_entropy(p) - x))
        if not 0.0 <= p <= 0.5:
            viol = math.inf
    out.append(_check("entropy-inverse-roundtrip", len(xs), viol, 1e-9))

    # convolution moves probabilities toward 1/2, so entropy cannot drop
    pq = rng.uniform(0.0, 1.0, (2000, 2)).tolist()
    viol = 0.0
    for p, q in pq:
        gain = binary_entropy(binary_convolve(p, q)) - max(
            binary_entropy(p), binary_entropy(q)
        )
        viol = max(viol, -gain)
    out.append(_check("convolution-never-sharpens", len(pq), viol, 1e-12))

    grid = np.linspace(0.0, 0.5, 1001)
    vals = sum_rate_envelope(grid)
    viol = max(
        float(np.max(np.diff(vals, 2))),
        abs(float(sum_rate_envelope(1.0 / 3.0)) - math.log2(3.0)),
    )
    out.append(_check("sum-envelope-concave-peak", len(grid), viol, 1e-10))
    return out


# ------------------------------------------------------------------ families


def _naive_union_free(f1: Family, f2: Family) -> bool:
    sums = set()
    for a in f1.members:
        for c in f2.members:
            key = tuple((a >> i & 1) + (c >> i & 1) for i in range(f1.n))
            sums.add(key)
    return len(sums) == len(f1) * len(f2)


def _families_suite(seed: int) -> List[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    bad = 0
    compared = 0
    for _ in range(300):  # every draw is made, so later checks see the same families
        f1 = _random_family(rng, max_n=4, max_size=6)
        f2 = _random_family(rng, max_n=4, max_size=6)
        if f1.n != f2.n:
            continue
        compared += 1
        if is_multiset_union_free(f1, f2) != _naive_union_free(f1, f2):
            bad += 1
    out.append(_check("union-free-matches-naive", compared, float(bad), 0.0))

    bad = 0
    trials = 300
    caps: Dict[Tuple[int, int, int], float] = {}  # each (n, d, k) bound once
    for _ in range(trials):
        f = _random_family(rng, max_n=10, max_size=60)
        prof = shattering_profile(f, tuple(k for k in (1, 2, 4) if len(f) >= k))
        for k, (mask, size) in prof.items():
            if size >= f.n:
                continue
            if (key := (f.n, size + 1, k)) not in caps:
                caps[key] = soft_sauer_bound(*key).value
            if len(f) > caps[key]:
                bad += 1
    out.append(_check("soft-sauer-soundness", trials, float(bad), 0.0))

    bad = 0
    trials = 200
    for _ in range(trials):
        f = _random_family(rng, max_n=6, max_size=20)
        g = shift_monotonize(f)
        if len(g) != len(f):
            bad += 1
            continue
        # down-closed: each member less any one element is a member, so by induction every submask is
        members = set(g.members)
        if any(m & ~(1 << i) not in members for m in members for i in range(g.n) if m >> i & 1):
            bad += 1
            continue
        # the k in (1, 2, 3) with s k-shattered by g but not by f; each is
        # <= |f|, as no cell of g holds more than |g| = |f| members
        for mg, mf in zip(_multiplicities(g), _multiplicities(f)):
            bad += max(0, min(mg, 3) - min(mf, 3))
    out.append(_check("shift-shattering-transfer", trials, float(bad), 0.0))

    bad = 0
    best = {1: 2, 2: 6, 3: 14}
    for n, want in best.items():
        res = exhaustive_pair_search(n)
        if (
            not res.exact
            or res.product != want
            or res.product != len(res.f1) * len(res.f2)
            or not is_multiset_union_free(res.f1, res.f2)
        ):
            bad += 1
    out.append(_check("search-desk-ground-truth", len(best), float(bad), 0.0))
    return out


# ------------------------------------------------------------------- systems


def _desk_systems() -> List:
    systems = [log3_construction(3), log3_construction(6)]
    for n in (2, 3):
        res = exhaustive_pair_search(n)
        mask, size = max_k_shattered(res.f1, 1)
        if 0 < size < n:
            u, _ = derive_system(res.f1, res.f2, mask, 1)
            systems.append(u)
    return systems


def _systems_suite(seed: int) -> List[CheckResult]:
    # every check here is exhaustive over fixed systems, so the seed goes unused
    out = []

    totals = []
    bad = 0
    for n in (3, 6, 9):
        u = log3_construction(n)
        if not is_valid_system(u):
            bad += 1
        totals.append(system_rates(u).total)
    if not all(a < b for a, b in zip(totals, totals[1:])):
        bad += 1
    out.append(_check("log3-construction-validity", 3, float(bad), 0.0))

    systems = _desk_systems()
    bad = sum(1 for u in systems if not is_valid_system(u))
    out.append(_check("derived-system-validity", len(systems), float(bad), 0.0))

    bad = sum(1 for u in systems if system_from_json(system_to_json(u)) != u)
    out.append(_check("system-json-roundtrip", len(systems), float(bad), 0.0))

    viol = 0.0
    for u in systems:
        t = entropy_triplet(joint_from_system(u))
        r = system_rates(u)
        viol = max(
            viol,
            r.r0 + r.r1 + r.r2 - t.hs,
            r.r1 + r.r2 - t.hs_cond,
            r.r1 - t.h1_cond,
        )
    out.append(_check("rates-within-entropy-region", len(systems), viol, 1e-9))
    return out


# ------------------------------------------------------------- distributions


def _envelope_gap(rows) -> float:
    """max |value - J(p1, eta)| over rows of (value, p1, eta), from 0.0 in row order."""
    values, p1s, etas = zip(*rows)
    return max(0.0, *np.abs(np.subtract(values, conditional_sum_envelope(p1s, etas))).tolist())


def _distributions_suite(seed: int) -> List[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    viol = 0.0
    trials = 2000
    for y1, z1, y2, z2, w in rng.uniform(0.0, 1.0, (trials, 5)).tolist():
        mid = bernoulli_sum_entropy(w * y1 + (1 - w) * y2, w * z1 + (1 - w) * z2)
        avg = w * bernoulli_sum_entropy(y1, z1) + (1 - w) * bernoulli_sum_entropy(y2, z2)
        viol = max(viol, avg - mid)
    out.append(_check("sum-entropy-concavity", trials, viol, 1e-12))

    grid = np.linspace(0.0, 0.25, 500)
    gv = np.array([quad_entropy_envelope(y) for y in grid.tolist()])
    qv = np.array([entropy_at_variance(y) for y in grid.tolist()])
    viol = max(
        float(np.max(np.diff(gv, 2))),
        float(np.max(np.diff(qv, 2))),
        float(np.max(np.diff(gv))),
        float(np.max(np.diff(qv))),
    )
    out.append(_check("moment-envelopes-concave-decreasing", len(grid), viol, 1e-12))

    viol = 0.0
    trials = 500
    for _ in range(trials):
        d = _random_joint(rng)
        s = symmetrize(d)
        td, ts = entropy_triplet(d), entropy_triplet(s)
        viol = max(
            viol,
            abs(td.hs_cond - ts.hs_cond),
            abs(td.h1_cond - ts.h1_cond),
            abs(d.mismatch_probability - s.mismatch_probability),
            abs(s.x1_marginal - 0.5),
            td.hs - ts.hs,
        )
    out.append(_check("symmetrize-invariants", trials, viol, 1e-12))

    viol = 0.0
    trials = 500
    for _ in range(trials):
        d = symmetrize(_random_joint(rng))
        floor = binary_entropy_inv(entropy_triplet(d).h1_cond)
        viol = max(viol, floor - d.mismatch_probability)
    out.append(_check("disagreement-floor", trials, viol, 1e-9))

    viol = 0.0
    trials = 500
    for _ in range(trials):
        m = int(rng.integers(2, 6))
        pts = rng.uniform(-0.5, 0.5, m)
        w = rng.dirichlet(np.ones(m))
        pts = pts - float(np.dot(w, pts))
        top = float(np.max(np.abs(pts)))
        if top > 0.5:
            pts = pts * (0.5 / top)
        rho = float(np.dot(w, [binary_entropy(0.5 + x) for x in pts.tolist()]))
        ex2 = float(np.dot(w, pts * pts))
        viol = max(viol, rho - entropy_at_variance(min(ex2, 0.25)))
    out.append(_check("variance-cap", trials, viol, 1e-12))

    rows = []
    etas = np.linspace(0.0, 0.5, 100).tolist()
    for eta in etas:
        t = entropy_triplet(attaining_joint(eta))
        rows.append((t.hs_cond, 0.5 * (1.0 - math.sqrt(max(1.0 - 2.0 * eta, 0.0))), eta))
    out.append(_check("attaining-joint-meets-envelope", len(etas), _envelope_gap(rows), 1e-9))

    rows = []
    trials = 300
    for _ in range(trials):
        r1 = rng.uniform(0.0, 1.0)
        p1 = binary_entropy_inv(r1)
        eta = rng.uniform(p1, 0.5)
        rows.append((cond_envelope_via_moments(r1, eta), p1, eta))
    out.append(_check("moment-chain-matches-envelope", trials, _envelope_gap(rows), 1e-9))
    return out


_SUITES: Dict[str, Callable[[int], List[CheckResult]]] = {
    "entropy": _entropy_suite,
    "families": _families_suite,
    "systems": _systems_suite,
    "distributions": _distributions_suite,
}

SUITE_NAMES: Tuple[str, ...] = tuple(_SUITES)


def run_suite(name: str, seed: int = 0) -> List[CheckResult]:
    """Run one named suite with a fixed seed."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if (seed := _integer(seed, "seed")) < 0:
        raise ValueError(f"seed={seed} must be non-negative")
    return _SUITES[name](seed)


def run_all(seed: int = 0) -> Dict[str, List[CheckResult]]:
    """Run every suite; the per-suite seeds are offset so samples differ."""
    seed = _integer(seed, "seed")
    return {name: run_suite(name, seed + i) for i, name in enumerate(SUITE_NAMES)}
