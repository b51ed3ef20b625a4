"""End-to-end acceptance checks for the shipped guarantees.

One test per guarantee, asserting the stated tolerance and printing a
single PASS line with the measured numbers, so `pytest -s` reads as a
checklist. The two point reproductions, the 101-point curve sweep and the
byte pins of two short curves run; the point reproductions are wall-clock
limited.
"""

import hashlib
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from adderbound.bounds import (
    conditional_sum_envelope,
    curve,
    main_bound,
    sum_rate_bound,
    ul_bound,
)
from adderbound.distributions import (
    AuxBinaryJoint,
    attaining_joint,
    bernoulli_sum_entropy,
    entropy_at_variance,
    entropy_triplet,
    quad_entropy_envelope,
    symmetrize,
)
from adderbound.entropy import binary_entropy, binary_entropy_inv
from adderbound.families import (
    Family,
    exhaustive_pair_search,
    hamming_ball,
    is_multiset_union_free,
    max_k_shattered,
    shattering_profile,
    shift_monotonize,
    soft_sauer_bound,
)
from adderbound.systems import (
    derive_system,
    is_valid_system,
    log3_construction,
    system_rates,
)

# point values computed once, reused by later checks
_cache = {}


def _ok(label: str, detail: str) -> None:
    print(f"PASS {label}: {detail}")


def test_ul_point_reproduction():
    t0 = time.perf_counter()
    v = ul_bound(1.0)
    dt = time.perf_counter() - t0
    _cache["ul"] = v
    assert 0.491 <= v <= 0.4922
    assert dt < 10.0
    _ok("ul point", f"ul_bound(1.0) = {v:.6f} in [0.491, 0.4922], {dt:.1f}s < 10s")


def test_main_point_reproduction():
    t0 = time.perf_counter()
    v = main_bound(1.0)
    dt = time.perf_counter() - t0
    _cache["main"] = v
    assert 0.477 <= v <= 0.4799
    assert dt < 60.0
    _ok("main point", f"main_bound(1.0) = {v:.6f} in [0.477, 0.4799], {dt:.1f}s < 60s")


def test_curve_ordering_and_reference_points():
    # both bounds stop at the time-sharing endpoint wherever they equal the
    # sum-rate bound, so 101 points take well under a second
    bc = curve(0.9, 1.0, 101)
    assert len(bc.rows) == 101
    worst = 0.0
    for _, simple, ul, main in bc.rows:
        worst = max(worst, main - ul, ul - simple)
        assert main <= ul + 1e-6
        assert ul <= simple + 1e-6
    main1 = _cache.get("main") or main_bound(1.0)
    assert main1 + 1.0 >= 1.31781
    assert main1 >= 0.25
    _ok(
        "curve ordering",
        f"main <= ul <= simple at 101 points on [0.9, 1.0] within 1e-6 "
        f"(worst gap {worst:.1e}); main_bound(1)+1 = {main1 + 1:.5f} >= 1.31781",
    )


# `adderbound curve --from 0.99 --to 1.0 --steps 11` as the grid-plus-golden
# solver of the first release printed it; the bisection prints the same bytes
CURVE_NEAR_ONE_CSV = """\
r1,simple,ul,main
0.990000,0.510000,0.510000,0.510000
0.991000,0.509000,0.509000,0.509000
0.992000,0.508000,0.508000,0.508000
0.993000,0.507000,0.507000,0.506994
0.994000,0.506000,0.506000,0.505900
0.995000,0.505000,0.505000,0.504245
0.996000,0.504000,0.504000,0.502145
0.997000,0.503000,0.503000,0.499568
0.998000,0.502000,0.502000,0.496303
0.999000,0.501000,0.501000,0.491774
1.000000,0.500000,0.492160,0.479830
"""


def test_curve_bytes_at_default_config():
    t0 = time.perf_counter()
    text = curve(0.99, 1.0, 11).to_csv()
    dt = time.perf_counter() - t0
    assert text == CURVE_NEAR_ONE_CSV
    _ok("curve bytes", f"curve(0.99, 1.0, 11) is byte-identical, {dt:.1f}s")


# sha256 of curve(0.9994, 1.0, 61).to_csv(), recorded with the plain kappa
# bisection: 53 of its 61 rows lie above _UL_DEPARTURE, where ul solves,
# against one row of CURVE_NEAR_ONE_CSV
CURVE_UL_BAND_SHA256 = "8ff5447d4838d63964f28b22745bd889d0313be680c27467923e39123f24be54"


def test_curve_bytes_where_ul_solves():
    t0 = time.perf_counter()
    text = curve(0.9994, 1.0, 61).to_csv()
    dt = time.perf_counter() - t0
    assert hashlib.sha256(text.encode()).hexdigest() == CURVE_UL_BAND_SHA256
    _ok("curve bytes where ul solves", f"curve(0.9994, 1.0, 61) is byte-identical, {dt:.1f}s")


def test_sum_rate_reduction_and_log3_progression():
    worst = 0.0
    for r1 in (0.0, 0.25, 0.5, 0.75, 1.0):
        worst = max(worst, abs(sum_rate_bound(0.0, r1) - 1.5))
    assert worst <= 1e-5

    totals = []
    for n in (3, 6, 9, 12):
        u = log3_construction(n)
        assert is_valid_system(u)
        totals.append(system_rates(u).total)
    assert all(b > a for a, b in zip(totals, totals[1:]))
    assert totals[-1] < math.log2(3.0)
    _ok(
        "sum-rate reduction / log3 growth",
        f"r_sigma(0, r1) = 1.5 within {worst:.1e} <= 1e-5 at five r1; "
        f"log3 totals {', '.join(f'{t:.4f}' for t in totals)} strictly rise "
        f"toward log2(3) = {math.log2(3.0):.4f}, all systems valid",
    )


def test_soft_sauer_soundness_and_ball_tightness():
    rng = np.random.default_rng(2026)
    checked = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 13))
        cap = min(1 << n, 300)
        size = min(4 + int(rng.exponential(12.0)), cap)
        masks = rng.choice(1 << n, size=size, replace=False)
        f = Family(n, tuple(int(m) for m in masks))
        for k, (_, shat) in shattering_profile(f, (1, 2, 4)).items():
            d = shat + 1
            if d > n:
                continue
            assert len(f) <= soft_sauer_bound(n, d, k).exact, (n, size, k, d)
            checked += 1

    ball_checked = 0
    worst_mult = Fraction(0)
    for n in range(1, 13):
        for radius in range(n + 1):
            f = hamming_ball(n, radius)
            ks = [k for k in (1, 2, 4) if k <= len(f)]
            for k, (_, shat) in shattering_profile(f, ks).items():
                d = shat + 1
                if d > n:
                    continue
                exact = soft_sauer_bound(n, d, k).exact
                assert len(f) <= exact, (n, radius, k, d)
                # tightness in multiples of the guaranteed factor (1 + n/d);
                # small d pays the harmonic tail, see the d <= 3 allowance
                mult = exact / ((1 + Fraction(n, d)) * len(f))
                if d >= 4:
                    assert mult <= 1, (n, radius, k, d, mult)
                else:
                    assert mult <= 3, (n, radius, k, d, mult)
                worst_mult = max(worst_mult, mult)
                ball_checked += 1
    _ok(
        "soft-Sauer soundness",
        f"0 violations over 10000 random families (n <= 12, k in 1/2/4, "
        f"{checked} measured-d checks) and all {ball_checked} ball cases; "
        f"ball bound within (1 + n/d) for d >= 4, worst multiple "
        f"{float(worst_mult):.2f} <= 3 for d <= 3",
    )


def _min_mult(members, s_mask):
    cells = 1 << s_mask.bit_count()
    counts = Counter(m & s_mask for m in members)
    if len(counts) < cells:
        return 0
    return min(counts.values())


def test_shifting_suite():
    rng = np.random.default_rng(77)
    transfers = 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        cap = min(1 << n, 48)
        size = int(rng.integers(1, cap + 1))
        masks = rng.choice(1 << n, size=size, replace=False)
        f = Family(n, tuple(int(m) for m in masks))
        g = shift_monotonize(f)
        assert len(g) == len(f)
        present = set(g.members)
        for m in g.members:
            sub = m
            while sub:
                sub = (sub - 1) & m
                assert sub in present, (f.members, m)
        # transfer, exhaustively over S: whatever the shifted family
        # k-shatters (k <= 4) the original must k-shatter too
        for s_mask in range(1 << n):
            ms = _min_mult(g.members, s_mask)
            if ms == 0:
                continue
            assert _min_mult(f.members, s_mask) >= min(ms, 4), (f.members, s_mask)
            transfers += 1
    _ok(
        "shifting suite",
        f"1000 families n <= 8: sizes preserved, outputs monotone, "
        f"shattering transfer exhaustive over S and k <= 4 ({transfers} "
        f"shattered-set comparisons)",
    )


def test_entropy_envelope_lemma_suite():
    rng = np.random.default_rng(11)

    # joint concavity of the sum entropy, random convex combinations
    pts = rng.uniform(size=(10_000, 5))
    worst_conc = 0.0
    for y1, z1, y2, z2, lam in pts:
        mid = bernoulli_sum_entropy(
            lam * y1 + (1 - lam) * y2, lam * z1 + (1 - lam) * z2
        )
        ends = lam * bernoulli_sum_entropy(y1, z1) + (1 - lam) * bernoulli_sum_entropy(y2, z2)
        worst_conc = max(worst_conc, ends - mid)
    assert worst_conc <= 1e-12

    # envelope grids: concave and strictly decreasing on [0, 1/4]
    ys = np.linspace(0.0, 0.25, 1000)
    for fn in (quad_entropy_envelope, entropy_at_variance):
        vals = np.array([fn(y) for y in ys])
        assert np.diff(vals, 2).max() <= 1e-12
        assert np.all(np.diff(vals) < 0.0)

    # variance cap: exact on two-point laws, never exceeded by random ones
    worst_tight = max(
        abs(entropy_at_variance((0.5 - p) ** 2) - binary_entropy(p))
        for p in np.linspace(0.0, 0.5, 401)
    )
    assert worst_tight <= 1e-12
    for _ in range(1000):
        a, b = rng.uniform(0.0, 0.5, size=2)
        s = rng.uniform(0.0, 1.0)
        # masses b*s at -a, a*s at +b, rest at 0: zero mean by construction
        norm = s * (a + b) + (1 - s)
        mean_h = (
            s * b * binary_entropy(0.5 - a)
            + s * a * binary_entropy(min(0.5 + b, 1.0))
            + (1 - s) * 1.0
        ) / norm
        ex2 = s * a * b * (a + b) / norm
        assert mean_h <= entropy_at_variance(ex2) + 1e-12

    # feasibility floor: a symmetrized joint's disagreement rate is at
    # least the inverse entropy of its conditional first-bit entropy
    for _ in range(1000):
        support = int(rng.integers(1, 5))
        masses = tuple(rng.dirichlet(np.ones(support)))
        t = tuple(rng.uniform(size=support))
        q = tuple(rng.uniform(size=support))
        d = symmetrize(AuxBinaryJoint(masses, t, q))
        trip = entropy_triplet(d)
        assert d.mismatch_probability >= binary_entropy_inv(trip.h1_cond) - 1e-9

    # the attaining joint meets the conditional envelope on its branch; the
    # envelope argument is the conditional bias, not the (always 1/2) marginal
    worst_att = 0.0
    for eta in np.linspace(0.005, 0.5, 100):
        d = attaining_joint(eta)
        trip = entropy_triplet(d)
        want = conditional_sum_envelope(binary_entropy_inv(trip.h1_cond), eta)
        worst_att = max(worst_att, abs(trip.hs_cond - want))
    assert worst_att <= 1e-9
    _ok(
        "entropy envelope suite",
        f"sum-entropy concavity worst {worst_conc:.1e} <= 1e-12 over 1e4 "
        f"combinations; envelope grids concave/decreasing; variance cap "
        f"exact on two-point laws ({worst_tight:.1e}) and holds on 1000 "
        f"random ones; disagreement floor holds on 1000 joints within 1e-9; "
        f"attaining joint meets the envelope within {worst_att:.1e} <= 1e-9",
    )


def test_desk_scale_search_ground_truth():
    expected = {1: 2, 2: 6, 3: 14}
    details = []
    for n in (1, 2, 3):
        res = exhaustive_pair_search(n, budget_secs=30.0)
        assert res.exact, n
        assert res.product == expected[n]
        assert res.product <= 3**n
        assert is_multiset_union_free(res.f1, res.f2)
        mask, _ = max_k_shattered(res.f1, 1)
        if mask == (1 << n) - 1:
            mask = 0
        u, rates = derive_system(res.f1, res.f2, mask, 1)
        assert is_valid_system(u)
        details.append(f"n={n}: product {res.product}, derived total {rates.total:.3f}")
    _ok("desk-scale search", "; ".join(details))


def test_exact_search_at_n4():
    t0 = time.perf_counter()
    res = exhaustive_pair_search(4)
    dt = time.perf_counter() - t0
    assert (res.product, res.exact) == (36, True)
    assert (res.f1.members, res.f2.members) == ((0, 1, 2, 7, 13, 14), (3, 4, 7, 8, 11, 12))
    assert res.nodes == 1_614
    assert is_multiset_union_free(res.f1, res.f2)
    _ok("exact n=4 search", f"product 36 = 6 x 6, exact in {res.nodes:,} nodes, {dt:.3f}s")


def test_exact_search_at_n5_and_past_138_at_n6():
    # n = 5 ends exact at the default budget; n = 6 at the default budget
    # returns at least its product seed 216 = 18 x 12 (the n = 2 and n = 4
    # optima on disjoint coordinates), past the 196 of the unseeded search
    t0 = time.perf_counter()
    res = exhaustive_pair_search(5)
    dt = time.perf_counter() - t0
    assert (res.product, res.exact, res.nodes) == (90, True, 250_368)
    assert res.f1.members == (0, 3, 12, 21, 26, 31)
    assert res.f2.members == (0, 6, 7, 9, 11, 13, 14, 15, 16, 17, 18, 20, 22, 24, 25)
    assert is_multiset_union_free(res.f1, res.f2)
    six = exhaustive_pair_search(6)
    assert six.product >= 216 and six.product == len(six.f1) * len(six.f2)
    assert (six.product, six.exact, six.nodes) == (216, False, 1_500_000)
    assert (len(six.f1), len(six.f2)) == (18, 12)
    assert is_multiset_union_free(six.f1, six.f2)
    _ok(
        "exact n=5 search",
        f"product 90 = 6 x 15, exact in {res.nodes:,} nodes, {dt:.2f}s; n=6 reaches 216 = 18 x 12",
    )
