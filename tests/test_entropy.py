import importlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from adderbound.bounds import (
    curve,
    main_bound,
    simple_bound,
    sum_rate_bound,
    ul_bound,
    ul_sum_bound,
    weldon_bound,
    weldon_nonsystematic_bound,
)
from adderbound.distributions import (
    EntropyTriplet,
    bernoulli_sum_entropy,
    cond_envelope_via_moments,
    moment_ratio_floor,
)
from adderbound.entropy import (
    _as_prob,
    binary_convolve,
    binary_entropy,
    binary_entropy_inv,
    entropy,
)
from adderbound.families import exhaustive_pair_search, shattering_guarantee

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_base_two():
    # logs are base 2 everywhere
    assert entropy((0.5, 0.5)) == 1.0
    assert binary_entropy(0.5) == 1.0


def test_edge_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy_inv(0.0) == 0.0
    assert binary_entropy_inv(1.0) == 0.5


@given(st.floats(min_value=1e-4, max_value=1.0, allow_nan=False))
@settings(max_examples=300)
def test_symmetry(p):
    assert abs(binary_entropy(p) - binary_entropy(1.0 - p)) <= 1e-15


@given(probs)
@settings(max_examples=300)
def test_symmetry_full_range(p):
    # For p below ~1e-4 the rounding of 1-p perturbs the small argument by
    # up to half an ulp of 1, which moves h by ~|log2 p| * 2^-54; near the
    # representation floor (p ~ 2^-53) that gap reaches a few 1e-15, so the
    # tail gets a looser budget than the mid-range check above.
    assert abs(binary_entropy(p) - binary_entropy(1.0 - p)) <= 4e-15


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=300)
def test_inverse_roundtrip(x):
    p = binary_entropy_inv(x)
    assert 0.0 <= p <= 0.5
    assert abs(binary_entropy(p) - x) <= 1e-10


def test_inverse_against_root_finder():
    # independent oracle: scipy's brentq on the same equation
    for x in np.linspace(0.01, 0.99, 25):
        want = brentq(lambda p: binary_entropy(p) - x, 1e-15, 0.5, xtol=1e-14)
        got = binary_entropy_inv(float(x))
        assert abs(got - want) <= 1e-9, (x, got, want)


def test_inverse_known_value():
    assert abs(binary_entropy_inv(0.5) - 0.110028) <= 1e-6


def test_inverse_ends_at_adjacent_floats_below():
    # p is on [0, 1/2] with h(p) <= x, and either p = 1/2 or h is above x
    # one float higher: the last float on the side where the bounds that
    # take p = h_inv(r1) are sound. 1 - 1e-9 is where a tolerance stop lands
    # above x, and the float below 1 where it stops short of 1/2
    rng = np.random.default_rng(20141231)
    edges = [0.0, 1.0, 0.5, 5e-324, 1e-300, 1e-15, 1e-12, 1.0 - 1e-9, 1.0 - 1e-12]
    edges += [math.nextafter(1.0, 0.0), -1e-13, 1.0 + 1e-13]
    for x in edges + [float(x) for x in rng.uniform(0.0, 1.0, 20_000)]:
        p, xc = binary_entropy_inv(x), min(max(x, 0.0), 1.0)
        assert type(p) is float and 0.0 <= p <= 0.5, x
        assert binary_entropy(p) <= xc, x
        assert p == 0.5 or binary_entropy(math.nextafter(p, 1.0)) > xc, x
    for bad in (float("nan"), -1e-9, 1.0 + 1e-9, math.inf):
        with pytest.raises(ValueError, match=rf"^entropy value {bad!r} outside \[0, 1\]$"):
            binary_entropy_inv(bad)


def plain_bisection_inv(x):
    # the oracle: binary_entropy_inv as plain bisection of [0, 1/2] with the same float h
    x = min(max(x, 0.0), 1.0)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if -mid * math.log2(mid) - (1.0 - mid) * math.log2(1.0 - mid) <= x:
            lo = mid
        else:
            hi = mid
    return lo


def test_inverse_bits_match_plain_bisection(monkeypatch):
    # binary_entropy_inv starts its bisection deeper where Newton steps place a
    # safe bracket; every returned bit must be the plain bisection's
    entropy_module = importlib.import_module("adderbound.entropy")
    started = []
    real_cell = entropy_module._bisection_cell
    monkeypatch.setattr(
        entropy_module, "_bisection_cell", lambda a, b: started.append(a) or real_cell(a, b)
    )
    rng = np.random.default_rng(20141229)
    uniform = rng.uniform(0.0, 1.0, 100_000)
    for x in map(float, uniform):
        assert binary_entropy_inv(x).hex() == plain_bisection_inv(x).hex(), x
    # the deeper start is what ran: on most uniform x
    assert len(started) > 0.95 * len(uniform)
    xs = [
        *rng.uniform(0.0, 1.0, 40_000) ** 8,  # near 0
        *1.0 - rng.uniform(0.0, 1.0, 40_000) ** 8,  # near 1
        *1e-9 * rng.uniform(0.5, 2.0, 10_000),  # around the 1e-9 floor
        *2.0**-8 * rng.uniform(0.99, 1.01, 8_000),  # around where the bracket is first tried
        *5e-324 * rng.integers(1, 2**52, 2_000).astype(float),  # subnormals
        0.0, 1.0, 5e-324, 2.0**-1022, 1e-300, 1e-9, 2.0**-8, math.nextafter(2.0**-8, 1.0),
        math.nextafter(1.0, 0.0), 1.0 - 2.0**-40, 0.5, 1e-12, -1e-13, 1.0 + 1e-13,
    ]
    assert len(uniform) + len(xs) >= 200_000
    for x in map(float, xs):
        assert binary_entropy_inv(x).hex() == plain_bisection_inv(x).hex(), x


def test_bisection_cell_is_where_plain_bisection_first_lands_inside():
    entropy_module = importlib.import_module("adderbound.entropy")
    rng = np.random.default_rng(7)
    ps = [*rng.uniform(1e-6, 0.499, 3_000), 0.25, 0.125, 0.375, 2.0**-20, 0.3 + 2.0**-40]
    brackets = [(p * (1.0 - rel), p * (1.0 + rel)) for p in ps for rel in (2.0**-40, 2.0**-12, 0.0)]
    # a itself the dyadic of least denominator
    brackets += [(p, p * (1.0 + 2.0**-40)) for p in (0.25, 0.375, 0.3125, 3 * 2.0**-30)]
    for a, b in brackets:
        lo, hi = 0.0, 0.5
        while not a <= (mid := 0.5 * (lo + hi)) <= b:
            lo, hi = (mid, hi) if mid < a else (lo, mid)
        assert entropy_module._bisection_cell(a, b) == (lo, hi), (a, b)


def test_vectorized_matches_scalar():
    ps = np.linspace(0.0, 1.0, 257)
    vec = binary_entropy(ps)
    for p, v in zip(ps, vec):
        assert v == binary_entropy(float(p))


def test_input_clamping_and_rejection():
    assert binary_entropy(-1e-13) == 0.0
    assert binary_entropy(1.0 + 1e-13) == 0.0
    with pytest.raises(ValueError):
        binary_entropy(-1e-9)
    with pytest.raises(ValueError):
        binary_entropy(1.1)
    with pytest.raises(ValueError):
        binary_entropy(float("nan"))
    with pytest.raises(ValueError):
        binary_entropy_inv(1.0 + 1e-9)
    with pytest.raises(ValueError):
        entropy((0.3, 0.3))
    with pytest.raises(ValueError):
        entropy((0.5, -0.1, 0.6))
    with pytest.raises(ValueError):
        entropy(())


def two_pass_entropy(pmf):
    # entropy() reading every mass first and summing in a second pass: the
    # reference its one pass must match
    masses = [_as_prob(m, "mass") for m in pmf]
    if not masses:
        raise ValueError("empty pmf")
    total = 0.0
    acc = 0.0
    for mm in masses:
        total += mm
        if mm > 0.0:
            acc -= mm * math.log2(mm)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"pmf sums to {total!r}, not 1")
    return acc


def test_entropy_matches_the_two_pass_reference():
    rng = np.random.default_rng(44)
    pmfs = []
    for _ in range(300):
        w = rng.dirichlet(np.ones(int(rng.integers(1, 7))))
        w[rng.random(len(w)) < 0.2] = 0.0  # zero masses
        w = w / w.sum() if w.any() else w
        pmfs += [tuple(w.tolist()), w]  # plain floats, then numpy float64 masses
    pmfs += [
        (0, 1), (1,), (1, 0, 0), (0.5, 0.5, 0),  # int masses
        (1 + 5e-13,), (-5e-13, 1.0), (0.5, 0.5 + 5e-13), (np.float64(1 + 5e-13),),  # clamped
        (), (0.5, 0.5 + 2e-12), (0.5, 0.5 - 2e-12), (0.3, 0.3),  # empty, sums off
        (0.5, -0.1, 1.5), (0.5, 2.0, "a"), (float("nan"), -1.0), (True, 0.0), (0.5, None, 0.5),
        (0.5, float("inf")), (np.float64(-0.5), 1.5),  # the first bad mass names the error
    ]

    def outcome(fn, pmf):
        try:
            return fn(pmf).hex()
        except Exception as exc:  # the type and message must match too
            return type(exc), str(exc)

    for pmf in pmfs:
        want = outcome(two_pass_entropy, pmf)
        assert outcome(entropy, pmf) == want, pmf
        assert outcome(entropy, (m for m in list(pmf))) == want, pmf  # a generator is read once
    assert outcome(entropy, (0.5, -0.1, 1.5)) == (ValueError, "mass=-0.1 outside [0, 1.0]")
    assert outcome(entropy, ()) == (ValueError, "empty pmf")
    assert sum(isinstance(outcome(entropy, p), str) for p in pmfs) >= 550  # most give a value


@given(probs, probs)
@settings(max_examples=300)
def test_convolve_commutative(p, q):
    assert abs(binary_convolve(p, q) - binary_convolve(q, p)) <= 1e-15


@given(probs, probs, probs)
@settings(max_examples=300)
def test_convolve_associative(p, q, r):
    a = binary_convolve(p, binary_convolve(q, r))
    b = binary_convolve(binary_convolve(p, q), r)
    assert abs(a - b) <= 1e-15


def test_convolve_fixed_point():
    # a uniform bit absorbs anything
    for p in np.linspace(0, 1, 11):
        assert abs(binary_convolve(float(p), 0.5) - 0.5) <= 1e-15


def _random_pmf3(rng):
    m = rng.random(3)
    return m / m.sum()


def test_grouping_rule():
    rng = np.random.default_rng(7)
    for _ in range(500):
        p0, p1, p2 = _random_pmf3(rng)
        if p0 >= 1.0 - 1e-12:
            continue
        want = binary_entropy(p0) + (1.0 - p0) * binary_entropy(p1 / (1.0 - p0))
        got = entropy((p0, p1, p2))
        assert abs(got - want) <= 1e-12, (p0, p1, p2)


def test_grouping_upper_bound_and_equality():
    rng = np.random.default_rng(8)
    for _ in range(500):
        p0, p1, p2 = _random_pmf3(rng)
        val = entropy((p0, p1, p2))
        cap = binary_entropy(p0) + 1.0 - p0
        assert val <= cap + 1e-12
        # the gap scales like (p1-p2)^2, so only assert strictness where it
        # is numerically visible
        if abs(p1 - p2) > 1e-4:
            assert val < cap - 1e-12, (p0, p1, p2)
    # equality exactly at p1 = p2
    for p0 in (0.1, 0.5, 0.9):
        half = (1.0 - p0) / 2.0
        val = entropy((p0, half, half))
        cap = binary_entropy(p0) + 1.0 - p0
        assert abs(val - cap) <= 1e-12


# ------------------------------------------------------------ argument readers


# name, a good whole value, and a call that reads it
REAL_PARAMETERS = {
    "binary_entropy": ("p", 1, lambda v: binary_entropy(v)),
    "binary_entropy_inv": ("x", 1, lambda v: binary_entropy_inv(v)),
    "binary_convolve": ("q", 1, lambda v: binary_convolve(0.25, v)),
    "sum_rate_bound_r0": ("r0", 1, lambda v: sum_rate_bound(v, 0.5)),
    "sum_rate_bound_r1": ("r1", 1, lambda v: sum_rate_bound(0.1, v)),
    "simple_bound": ("r1", 1, lambda v: simple_bound(v)),
    "weldon_bound": ("r1", 1, lambda v: weldon_bound(v)),
    "weldon_nonsystematic_bound": ("r1", 1, lambda v: weldon_nonsystematic_bound(v)),
    "ul_sum_bound": ("r1", 1, lambda v: ul_sum_bound(v)),
    "ul_bound": ("r1", 1, lambda v: ul_bound(v)),
    "main_bound": ("r1", 1, lambda v: main_bound(v)),
    "curve_r1_lo": ("r1_lo", 0, lambda v: curve(v, 0.5, 3)),
    "curve_r1_hi": ("r1_hi", 1, lambda v: curve(0.9, v, 3)),
    "shattering_guarantee_rate": ("rate", 1, lambda v: shattering_guarantee(v, 0.25, 12)),
    "shattering_guarantee_alpha": ("alpha", 0, lambda v: shattering_guarantee(0.5, v, 12)),
    "exhaustive_pair_search": ("budget_secs", 1, lambda v: exhaustive_pair_search(2, v)),
    "moment_ratio_floor_mu": ("mu", 1, lambda v: moment_ratio_floor(v, 0.5)),
    "moment_ratio_floor_max_ex2": ("max_ex2", 1, lambda v: moment_ratio_floor(0.5, v)),
    "EntropyTriplet_hs": ("hs", 1, lambda v: EntropyTriplet(v, 0.5, 0.25)),
    "EntropyTriplet_hs_cond": ("hs_cond", 0, lambda v: EntropyTriplet(1.0, v, 0.25)),
    "EntropyTriplet_h1_cond": ("h1_cond", 1, lambda v: EntropyTriplet(1.0, 0.5, v)),
    "bernoulli_sum_entropy": ("z", 1, lambda v: bernoulli_sum_entropy(0.25, v)),
    "cond_envelope_via_moments": ("r1", 0, lambda v: cond_envelope_via_moments(v, 0.25)),
}


@pytest.mark.parametrize("name, good, call", REAL_PARAMETERS.values(), ids=REAL_PARAMETERS.keys())
def test_real_parameters_reject_non_reals(name, good, call):
    # text, even numeric text, a bool or None is a one-line ValueError naming
    # the parameter, never a TypeError or a bool read as 0 or 1; an int, a
    # numpy float and a Fraction give what a float gives; a real past the
    # float range is a one-line ValueError that does not print its digits
    # (an int budget_secs stays exact: test_families.py)
    for bad in ("a", "0.5", True, None):
        with pytest.raises(ValueError) as exc:
            call(bad)
        assert str(exc.value) == f"{name}={bad!r} is not a real number"
    for huge in (10**400, -(10**400), Fraction(10**400, 3)):
        if name != "budget_secs":
            with pytest.raises(ValueError) as exc:
                call(huge)
            assert str(exc.value) == f"{name} is outside the float range"
    want = call(float(good))
    for same in (int(good), np.float64(good), Fraction(good)):
        assert call(same) == want
