import hashlib
import itertools
import math

import mpmath
import numpy as np
import pytest

from adderbound import bounds
from adderbound.bounds import (
    LOG2_3,
    BoundCurve,
    EvaluationError,
    conditional_sum_envelope,
    curve,
    main_bound,
    simple_bound,
    sum_rate_bound,
    sum_rate_envelope,
    ul_bound,
    ul_mixture_entropy,
    ul_sum_bound,
    weldon_bound,
    weldon_nonsystematic_bound,
    _dh,
    _j_kernel,
    _kink,
    _kink_gdg,
    _kink_objective,
    _l_kernel,
    _main_objective,
    _mixture_gdg,
    _mixture_slope,
    _resolved_max,
    _sampled_minimize,
    _sum_rate_gdg,
    _sum_rate_objective,
    _sum_rate_sign,
    _ul_inner_max,
    _ul_objective,
)
from adderbound.entropy import (
    _h_half,
    _sum_entropy,
    binary_convolve,
    binary_entropy,
    binary_entropy_inv,
)

# regression fixtures, recorded once; the tests compare within 1e-6
UL_AT_ONE = 0.4921598855455906
MAIN_AT_ONE = 0.4798303244974113


# ---------------------------------------------------------------- solver


def _counted(pos):
    # pos, and a list holding the number of times it was asked
    calls = [0]

    def counting(x):
        calls[0] += 1
        return pos(x)

    return counting, calls


def _bisect(pos, lo, hi):
    """Shrink every bracket [lo, hi] to two adjacent floats, at once: the
    plain bisection, kept as the reference for _resolved_max.

    lo moves only to points where pos is true and hi only to points where it
    is false, so where pos is true below some point and false above it, that
    point ends in [lo, hi]. Each step asks pos at one point per bracket:
    strictly inside it while it is wider, else at its lo, with the answer
    ignored. The halving runs on the int64 bit patterns of the endpoints,
    nonnegative finite floats with lo <= hi: at most 64 steps, no tolerance.
    """
    a, b = (np.array(v + 0.0).view(np.int64) for v in np.broadcast_arrays(lo, hi))
    while (wide := b - a > 1).any():
        m = a + (b - a) // 2
        up = pos(m.view(float))
        a, b = np.where(wide & up, m, a), np.where(wide & ~up, m, b)
    return a.view(float), b.view(float)


def _plain_max(f, g, gdg, lo, hi, x0=math.nan, args=(), outer=None):
    # _resolved_max by plain bisection on g > 0, neither g' nor x0 used, and
    # every bracket finished
    a, b = _bisect(lambda x: g(x, *args) > 0.0, lo, hi)
    return np.maximum(f(a, *args), f(b, *args)), a


def _ends(g, gdg, lo, hi, x0=math.nan, args=()):
    # the two adjacent floats _resolved_max ends every bracket on: with
    # f(x) = x its value is the upper one
    hi, lo = _resolved_max(lambda x, *_: x, g, gdg, lo, hi, x0, args)
    return lo, hi


def _halving(g):
    # g and (g, g') with a NaN slope, which makes every Newton round the
    # midpoint, each counted apart: the rounds that ask only g (the 2 probes
    # and the halvings), and the Newton rounds
    g_counted, calls = _counted(g)
    gdg, steps = _counted(lambda x: (g(x), np.full(np.shape(x), np.nan)))
    return g_counted, gdg, calls, steps


def test_bisect_ends_at_adjacent_floats():
    # a sign change anywhere from 0 up to the largest float: lo and hi end
    # one float apart around it within 64 Newton rounds and 64 halvings,
    # brackets touching 0 and a -0.0 end included
    big = np.finfo(float).max
    roots = np.array([0.0, 5e-324, 1e-300, 1.0 / 3.0, 0.5, 1.0, 1e300])
    g, gdg, calls, steps = _halving(lambda x: roots - x)
    lo, hi = _ends(g, gdg, -0.0, np.where(roots < 1.0, 1.0, big))
    assert (np.nextafter(lo, np.inf) == hi).all()
    assert ((lo < roots) | (lo == 0.0)).all() and (roots <= hi).all()
    assert steps[0] <= 64 and calls[0] <= 2 + 64


def test_bisect_all_true_all_false_and_degenerate():
    # lo moves only where g > 0 and hi only where it is not, so with one
    # sign everywhere one end stays put; [x, x] stays as it is, unasked
    lo, hi = np.array([0.0, 0.25, 0.7, 0.0]), np.array([1.0, 0.5, 0.7, 0.0])
    for sign in (True, False):
        g, gdg, calls, steps = _halving(lambda x: np.full(x.shape, 1.0 if sign else -1.0))
        a, b = _ends(g, gdg, lo, hi)
        assert (a == np.where(sign & (lo < hi), np.nextafter(hi, -1.0), lo)).all(), sign
        assert (b == np.where((not sign) & (lo < hi), np.nextafter(lo, 2.0), hi)).all(), sign
        assert steps[0] <= 64 and calls[0] <= 2 + 64
    g, gdg, calls, steps = _halving(lambda x: 0.7 - x)
    assert _ends(g, gdg, 0.7, 0.7) == (0.7, 0.7) and calls[0] == steps[0] == 0


def test_bisect_bad_bracket():
    g, gdg, _, _ = _halving(lambda x: 0.5 - x)
    for lo, hi in ((1.0, 0.0), (-1.0, 0.5), (0.0, [1.0, -1.0]), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="^bad bracket"):
            _ends(g, gdg, lo, hi)


def test_resolved_max_quadratic():
    # one bracket per peak, solved together; the last bracket ends before
    # its peak, so its maximum is the endpoint
    peaks = np.array([0.1, 0.5, 0.9])
    gdg = lambda x: (peaks - x, -np.ones(x.shape))
    val, x = _resolved_max(lambda x: -((x - peaks) ** 2), lambda x: peaks - x, gdg, 0.0, [1.0, 1.0, 0.6])
    assert val[0] == val[1] == 0.0
    assert val[2] == -((0.6 - 0.9) ** 2)
    assert (x == np.nextafter([0.1, 0.5, 0.6], 0.0)).all()


def test_resolved_max_entropy_peak():
    # h(eta) + 1 - eta peaks at eta = 1/3 with value log2(3); its slope is
    # h'(eta) - 1 = log2((1 - eta)/eta) - 1, and h''(eta) = -1/(eta (1 - eta) ln2)
    slope = lambda e: np.log2((1.0 - e) / e) - 1.0
    gdg = lambda e: (slope(e), -1.0 / (e * (1.0 - e) * math.log(2.0)))
    val, eta = _resolved_max(sum_rate_envelope, slope, gdg, 0.0, 0.5)
    assert abs(val - LOG2_3) <= 1e-15 and abs(eta - 1.0 / 3.0) <= 1e-15


def test_nonfinite_objective_raises():
    def bad(x):
        return np.where(x > 0.5, np.nan, x)

    with pytest.raises(EvaluationError) as ei:
        _resolved_max(bad, lambda x: 0.7 - x, lambda x: (0.7 - x, -np.ones(x.shape)), 0.0, 1.0)
    assert ei.value.argument > 0.5
    assert math.isnan(ei.value.value)


def test_nonfinite_envelope_raises_from_bound(monkeypatch):
    # a NaN from the envelope only flips a sign during the bisection, and
    # surfaces when the objective is taken at the final ends
    monkeypatch.setattr(bounds, "_l_kernel", lambda e: np.full(np.shape(e), np.nan)[()])
    with pytest.raises(EvaluationError):
        main_bound(1.0)


def _eta_solves(r1):
    # (f, g, gdg, lo, hi, args) of _sum_rate_max on main_bound's first outer grid
    p1 = binary_entropy_inv(r1)
    alpha = np.linspace(0.0, p1, bounds._GRID_POINTS)
    ratio = np.clip((p1 - alpha) / (1.0 - alpha), 0.0, 0.5)
    r0, u = alpha / (1.0 - alpha), 1.0 - 2.0 * ratio
    lo = np.maximum(ratio, 1.0 / 3.0)
    return _sum_rate_objective, _sum_rate_sign, _sum_rate_gdg, lo, np.full(alpha.shape, 0.5), (r0, u)


def _beta_solves(rho):
    # (f, g, gdg, lo, hi, args) of ul_mixture_entropy
    return _sum_entropy, _mixture_slope, _mixture_gdg, np.zeros_like(rho), np.ones_like(rho), (rho,)


def _kink_solves(rho, p1):
    # (f, g, gdg, lo, hi, args) of _ul_inner_max: the kink root in b = rho + kappa
    args = ul_mixture_entropy(rho), rho, p1, binary_entropy(rho)
    return _kink_objective, _kink, _kink_gdg, rho, np.full(rho.shape, 0.5), args


# the p1 = h_inv(r1) of the UL differential tests: 0, inner values, the
# h_inv at the float below r1 = 1 (4.4e-9 below 1/2) and 1/2
UL_P1S = (0.0, 0.1, 0.25, 0.4, 0.49, binary_entropy_inv(math.nextafter(1.0, 0.0)), 0.5)


def test_newton_narrowed_solves_match_plain_bisection():
    # after the Newton rounds, _resolved_max still ends every bracket on
    # adjacent floats across a sign change of g (an end that never moved
    # excepted), and each inner value lies within 1e-15 of the plain
    # bisection's: eta solves on main's first grid at 40 seeded r1 above
    # _MAIN_DEPARTURE, r1 = 1 and the float above the departure; beta
    # solves at 5,000 seeded rho, 0 and 1/2; kink solves at 1,000 seeded
    # rho, 0 and 1/2 for each of the UL p1
    rng = np.random.default_rng(20261021)
    r1s = rng.uniform(bounds._MAIN_DEPARTURE, 1.0, 40).tolist()
    r1s += [1.0, math.nextafter(bounds._MAIN_DEPARTURE, 2.0)]
    rho = np.concatenate([rng.uniform(0.0, 0.5, 5000), [0.0, 0.5]])
    solves = [_eta_solves(r1) for r1 in r1s] + [_beta_solves(rho)]
    solves += [_kink_solves(rho[-1002:], p1) for p1 in UL_P1S]
    for f, g, gdg, lo, hi, args in solves:
        a, b = _ends(g, gdg, lo, hi, args=args)
        assert ((np.nextafter(a, 2.0) == b) | (lo == hi)).all()
        assert ((g(a, *args) > 0.0) | (a == lo)).all() and ((g(b, *args) <= 0.0) | (b == hi)).all()
        plain = _plain_max(f, g, gdg, lo, hi, args=args)[0]
        assert np.abs(_resolved_max(f, g, gdg, lo, hi, args=args)[0] - plain).max() <= 1e-15


def test_newton_bracket_without_a_usable_slope():
    # a NaN slope makes every Newton round the midpoint, which still narrows
    # each bracket around its root by the sign rule: every later point g is
    # asked at, the probes and the halvings, lies in the bracket the Newton
    # rounds and probes leave, so 64 midpoints of [0, 1] keep the roots near
    # 0 in [0, 2.7e-20], and the others within 2 _ULPS floats
    roots = np.array([0.0, 1e-300, 1.0 / 3.0, 0.5, 1.0])
    sign = lambda x: roots - x
    asked = []
    g = lambda x: (asked.append(x), sign(x))[1]
    a, b = _ends(g, lambda x: (sign(x), np.full(x.shape, np.nan)), 0.0, 1.0)
    assert ((sign(a) > 0.0) | (a == 0.0)).all() and ((sign(b) <= 0.0) | (b == 1.0)).all()
    asked = np.array(asked)  # one row per probe and halving
    bits = asked.view(np.int64)
    assert (asked[:, :2] < 3e-20).all()
    assert (bits.max(axis=0) - bits.min(axis=0))[2:].max() <= 2 * bounds._ULPS
    g, gdg, _, _ = _halving(lambda x: 0.5 - x)
    assert _ends(g, gdg, 0.25, 0.25) == (0.25, 0.25)
    for lo, hi in ((1.0, 0.0), (-1.0, 0.5), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            _ends(g, gdg, lo, hi)


def test_newton_slopes_match_central_differences():
    # g' of the eta solve on both branches of J (they split at
    # eta = 2p(1 - p)) and of the beta solve for rho in [0, 1/2]; the g that
    # comes with it is the sign functions' own, bit for bit
    step = 1e-6
    branches = np.zeros(2, dtype=int)
    for p in (0.0, 0.05, 0.2, 0.3, 0.45, 0.499):
        u = 1.0 - 2.0 * p
        etas = np.linspace(p + 2.0 * step, 0.5 - 2.0 * step, 1001)
        split = 2.0 * p * (1.0 - p)
        etas = etas[np.abs(etas - split) > 10.0 * step]  # g'' jumps where the branches meet
        branches += [(etas >= split).sum(), (etas < split).sum()]
        g = lambda e: _l_kernel(e) - _j_kernel(e, u) - 0.1
        central = (g(etas + step) - g(etas - step)) / (2.0 * step)
        got, slope = _sum_rate_gdg(etas, 0.1, u)
        assert (got == g(etas)).all(), p
        assert (np.abs(central - slope) <= 1e-6 * (1.0 + np.abs(central))).all(), p
    assert (branches > 1000).all()
    betas = np.linspace(0.01, 0.99, 1001)
    for rho in np.linspace(0.0, 0.5, 51):
        central = (_mixture_slope(betas + step, rho) - _mixture_slope(betas - step, rho)) / (2.0 * step)
        got, curvature = _mixture_gdg(betas, rho)
        assert (got == _mixture_slope(betas, rho)).all(), rho
        assert np.abs(central / curvature - 1.0).max() <= 1e-6, rho


def test_sum_rate_slope_limit_at_one_half():
    # at eta = 1/2, where w = 0, the slope takes its limit -2/ln2; just
    # below it, on J's first branch, it tends there
    limit = -2.0 / math.log(2.0)
    for p in (0.0, 0.3, 0.45):
        u = 1.0 - 2.0 * p
        slope = lambda e: _sum_rate_gdg(np.array(e), 0.0, u)[1]
        assert abs(slope(0.5) - limit) <= 1e-15, p
        gaps = [abs(slope(0.5 - d) - limit) for d in (1e-4, 1e-6, 1e-8)]
        assert gaps[0] <= 1e-3 and gaps[1] <= 1e-5 and gaps[2] <= 1e-7, (p, gaps)


@pytest.mark.parametrize("fault", [lambda d: 10.0 * d, lambda d: -d], ids=["times_10", "negated"])
def test_wrong_newton_slopes_change_no_result(monkeypatch, fault):
    # soundness never rests on g': with g' scaled by 10 or negated Newton
    # only wastes steps, and the bounds, g* and the UL inner maxima stay
    # within 1e-15 of what plain bisection gives. Every g' (eta, beta and the
    # kink) is faulted where _resolved_max receives it, in the (g, g')
    # pair that gdg returns
    def faulted(gdg):
        def gdg_fault(x, *args):
            gx, dgx = gdg(x, *args)
            return gx, fault(dgx)

        return gdg_fault

    resolved = bounds._resolved_max
    monkeypatch.setattr(bounds, "_resolved_max", _plain_max)
    plain = _newton_results()
    solve = lambda f, g, gdg, lo, hi, x0, *rest: resolved(f, g, faulted(gdg), lo, hi, x0, *rest)
    monkeypatch.setattr(bounds, "_resolved_max", solve)
    assert np.abs(_newton_results() - plain).max() <= 1e-15


def _newton_results():
    # main_bound at r1 = 1, 0.9995 and the float above its departure,
    # ul_bound at 1 and 0.9996, g* and the UL inner maxima at p1 = 1/2 over
    # 101 rho
    r1s = [1.0, 0.9995, math.nextafter(bounds._MAIN_DEPARTURE, 2.0)]
    rho = np.linspace(0.0, 0.5, 101)
    values = [main_bound(r1) for r1 in r1s] + [ul_bound(1.0), ul_bound(0.9996)]
    return np.concatenate([values, ul_mixture_entropy(rho), _ul_inner_max(rho, 0.5)[0]])


def _recorded_solves(monkeypatch, bound, r1):
    # every inner solve bound(r1) makes, in order, as (f, g, gdg, lo, hi, x0,
    # outer, result), with f, g and gdg bound to the solve's args
    calls, resolved = [], bounds._resolved_max

    def recording(f, g, gdg, lo, hi, x0=math.nan, args=(), outer=None):
        out = resolved(f, g, gdg, lo, hi, x0, args, outer)
        bind = lambda k: lambda x: k(x, *args)
        calls.append((bind(f), bind(g), bind(gdg), lo, hi, x0, outer, out))
        return out

    monkeypatch.setattr(bounds, "_resolved_max", recording)
    bound(r1)
    monkeypatch.setattr(bounds, "_resolved_max", resolved)
    return calls


def test_warm_started_solves_match_cold_ones(monkeypatch):
    # passes 2 and 3 of each outer minimum start Newton at the previous
    # pass's roots, interpolated, and pass 1 at the midpoint. Every solve of
    # main_bound at 6 seeded r1 above _MAIN_DEPARTURE and of ul_bound at 2
    # above _UL_DEPARTURE, and of both at r1 = 1, is run from its own start
    # and from the midpoint: both end on adjacent floats across a sign change
    # of g (an end that never moved excepted), within 1e-15 of each other
    rng = np.random.default_rng(20261022)
    cases = [(main_bound, r1) for r1 in rng.uniform(bounds._MAIN_DEPARTURE, 1.0, 6).tolist() + [1.0]]
    cases += [(ul_bound, r1) for r1 in rng.uniform(bounds._UL_DEPARTURE, 1.0, 2).tolist() + [1.0]]
    warm = 0
    for bound, r1 in cases:
        for f, g, gdg, lo, hi, x0, _, _ in _recorded_solves(monkeypatch, bound, r1):
            values = []
            for start in (x0, math.nan):
                a, b = _ends(g, gdg, lo, hi, start)
                assert ((np.nextafter(a, 2.0) == b) | (lo == hi)).all(), (bound.__name__, r1)
                assert ((g(a) > 0.0) | (a == lo)).all() and ((g(b) <= 0.0) | (b == hi)).all()
                values.append(np.maximum(f(a), f(b)))
            assert np.abs(values[0] - values[1]).max() <= 1e-15, (bound.__name__, r1)
            warm += bool(np.isfinite(x0).all())
    assert warm == 7 * 2 + 3 * 4  # passes 2 and 3: one solve each for main, two for ul


def test_outer_minimum_comes_from_a_finished_bracket(monkeypatch):
    # in every pass of main's outer minimum, the least sample and its two
    # neighbours are finished, and the least ended on adjacent floats across
    # g's sign change (an end that never moved excepted), its value the
    # better of f at the two; at 5 seeded r1, r1 = 1 and the float above the
    # departure, where the cut leaves most samples unfinished
    rng = np.random.default_rng(20261024)
    r1s = rng.uniform(bounds._MAIN_DEPARTURE, 1.0, 5).tolist() + [1.0, math.nextafter(bounds._MAIN_DEPARTURE, 2.0)]
    left = []
    for r1 in r1s:
        solves = _recorded_solves(monkeypatch, main_bound, r1)
        assert len(solves) == 3, r1
        for f, g, gdg, lo, hi, x0, outer, (v, root) in solves:
            i = int(np.argmin(outer(v)))
            assert np.isfinite(v[max(i - 1, 0) : i + 2]).all(), r1
            lo_i, hi_i = np.broadcast_to(lo, v.shape)[i], np.broadcast_to(hi, v.shape)[i]
            a, b = root, root.copy()
            b[i] = a[i] if lo_i == hi_i else np.nextafter(a[i], 2.0)
            assert (g(a)[i] > 0.0 or a[i] == lo_i) and (g(b)[i] <= 0.0 or b[i] == hi_i), r1
            assert v[i] == max(f(a)[i], f(b)[i]), r1
            left.append(int(np.isinf(v).sum()))
    assert min(left) > 500, left


RESOLVED_MAX = bounds._resolved_max


def _iterate_fault(f, g, gdg, lo, hi, x0=math.nan, args=(), outer=None):
    # _resolved_max with f 1 too low at the first 100 samples in its first
    # call, which with outer is the one at the Newton iterates
    calls = itertools.count()

    def f_fault(x, *a):
        v = f(x, *a)
        return v - (np.arange(v.size) < 100) if outer is not None and next(calls) == 0 else v

    return RESOLVED_MAX(f_fault, g, gdg, lo, hi, x0, args, outer)


CUT_FAULTS = {
    "iterate_values": lambda monkeypatch: monkeypatch.setattr(bounds, "_resolved_max", _iterate_fault),
    "no_rounding_room": lambda monkeypatch: monkeypatch.setattr(bounds, "_ROUNDING", math.inf),
}


@pytest.mark.parametrize("fault", CUT_FAULTS.values(), ids=CUT_FAULTS.keys())
def test_failed_cut_check_finishes_every_bracket(monkeypatch, fault):
    # a planted fault makes the cut's check fail in every pass: values at the
    # Newton iterates 1 too low at samples far from the minimum, so the cut
    # finishes those and leaves the minimum; or no room at all for f's
    # rounding. Every bracket is then finished, as the count of g's elements
    # after Newton at r1 = 1 shows (the full solve's probes and halvings
    # ask 6,144 and 15,360), and main_bound keeps its bits
    r1s = [1.0, 0.999, 0.9995, math.nextafter(bounds._MAIN_DEPARTURE, 2.0)]
    want = [repr(main_bound(r1)) for r1 in r1s]
    fault(monkeypatch)
    assert [repr(main_bound(r1)) for r1 in r1s] == want
    seen, _ = _count_evaluations(monkeypatch, main_bound, 1.0)
    assert seen[5] + seen[7] > 6_144 + 15_360, seen


@pytest.mark.parametrize("live", [1, 2, 2048])
def test_cut_at_any_newton_round_keeps_the_bits(monkeypatch, live):
    # the cut is made once at most 1 in _CUT_LIVE brackets is still in
    # Newton: with 1 before the first round, so the kept samples finish
    # their Newton rounds after it and the check fails in most passes; with
    # 2 in the middle of the first pass; with 2048 after the last round
    r1s = [1.0, 0.999, 0.9995, 0.995, math.nextafter(bounds._MAIN_DEPARTURE, 2.0)]
    want = [repr(main_bound(r1)) for r1 in r1s]
    monkeypatch.setattr(bounds, "_CUT_LIVE", live)
    assert [repr(main_bound(r1)) for r1 in r1s] == want


ADVERSARIAL_STARTS = {
    "nan": lambda lo, hi, x0: math.nan,
    "inf": lambda lo, hi, x0: math.inf,
    "minus_inf": lambda lo, hi, x0: -math.inf,
    "below": lambda lo, hi, x0: np.asarray(lo) - 1.0,
    "above": lambda lo, hi, x0: np.asarray(hi) + 1.0,
    "at_lo": lambda lo, hi, x0: lo,
    "at_hi": lambda lo, hi, x0: hi,
    "reversed": lambda lo, hi, x0: np.flip(x0),
}


@pytest.mark.parametrize("start", ADVERSARIAL_STARTS.values(), ids=ADVERSARIAL_STARTS.keys())
def test_adversarial_newton_starts_change_no_result(monkeypatch, start):
    # the start is only Newton's first iterate: one that is NaN, infinite,
    # outside or at an end of its bracket, or the interpolated roots in
    # reverse order, moves no bound, g* or UL inner maximum by more than 1e-15
    want = _newton_results()
    resolved = bounds._resolved_max
    adversarial = lambda f, g, gdg, lo, hi, x0, *rest: resolved(f, g, gdg, lo, hi, start(lo, hi, x0), *rest)
    monkeypatch.setattr(bounds, "_resolved_max", adversarial)
    assert np.abs(_newton_results() - want).max() <= 1e-15


def test_every_solve_passes_module_level_functions(monkeypatch):
    # the one calling convention: every _resolved_max and _sampled_minimize
    # call made by the bounds, g* and R_sigma takes functions of
    # adderbound.bounds, with its parameters in args, not captured: 2 outer
    # minima, 6 + 3 inner solves in their passes, then g* and R_sigma
    seen, resolved, sampled = [], bounds._resolved_max, bounds._sampled_minimize

    def resolved_recording(f, g, gdg, *rest):
        seen.append((f, g, gdg))
        return resolved(f, g, gdg, *rest)

    def sampled_recording(f, *rest):
        seen.append((f,))
        return sampled(f, *rest)

    monkeypatch.setattr(bounds, "_resolved_max", resolved_recording)
    monkeypatch.setattr(bounds, "_sampled_minimize", sampled_recording)
    ul_bound(1.0), main_bound(1.0), ul_mixture_entropy(np.linspace(0.0, 0.5, 11)), sum_rate_bound(0.1, 0.9)
    assert [len(fns) for fns in seen].count(1) == 2 and len(seen) == 2 + 6 + 3 + 1 + 1
    for fn in itertools.chain.from_iterable(seen):
        assert getattr(bounds, fn.__name__, None) is fn, fn


# ---------------------------------------------------------------- envelopes


def test_sum_rate_envelope_values():
    assert sum_rate_envelope(0.5) == 1.5
    assert sum_rate_envelope(0.0) == 1.0
    assert abs(sum_rate_envelope(1.0 / 3.0) - LOG2_3) <= 1e-15
    with pytest.raises(ValueError):
        sum_rate_envelope(0.6)
    with pytest.raises(ValueError):
        sum_rate_envelope(-0.1)


def test_conditional_envelope_at_half():
    # 2 h(1/2) - 1/2 = 3/2 for every p
    for p in (0.0, 0.1, 0.25, 0.4, 0.5):
        assert abs(conditional_sum_envelope(p, 0.5) - 1.5) <= 1e-15


def test_conditional_envelope_at_zero():
    assert conditional_sum_envelope(0.0, 0.0) == 0.0


def test_conditional_envelope_branch_continuity():
    # the two branch formulas agree at eta = p*p
    for p in np.linspace(0.0, 0.5, 100):
        p = float(p)
        if p >= 0.5 - 1e-9:
            assert abs(conditional_sum_envelope(0.5, 0.5) - 1.5) <= 1e-12
            continue
        s = binary_convolve(p, p)
        if s - 1e-11 <= 2.0 * p * p:
            # no room below the boundary where the second branch is defined
            continue
        at_boundary = conditional_sum_envelope(p, s)
        just_below = conditional_sum_envelope(p, s - 1e-11)
        assert abs(at_boundary - just_below) <= 1e-9, p


def test_conditional_envelope_vectorized_matches_scalar():
    p = 0.3
    etas = np.linspace(binary_convolve(p, p) / 2.0, 0.5, 101)
    vec = conditional_sum_envelope(p, etas)
    for e, v in zip(etas, vec):
        assert v == conditional_sum_envelope(p, float(e))
    # seeded p on [0, 1/2] with 0, 1/4 and 1/2, each with eta at p, at 1/2, at
    # the branch point p * p and seeded on [p, 1/2]: one 1-d call carries every
    # scalar call's bits, which verify's batched cross-checks rely on
    rng = np.random.default_rng(40)
    ps = np.repeat(np.concatenate([[0.0, 0.25, 0.5], rng.uniform(0.0, 0.5, 300)]), 4)
    etas = ps + (0.5 - ps) * rng.uniform(0.0, 1.0, ps.size) ** 3
    etas[0::4], etas[1::4], etas[2::4] = ps[0::4], 0.5, binary_convolve(ps[2::4], ps[2::4])
    upper = etas >= binary_convolve(ps, ps)
    assert 0 < upper[3::4].sum() < upper[3::4].size
    scalar = [conditional_sum_envelope(p, e) for p, e in zip(ps.tolist(), etas.tolist())]
    assert conditional_sum_envelope(ps, etas).tobytes() == np.array(scalar).tobytes()


def test_kernels_match_public_envelopes_bit_for_bit():
    # the unchecked kernels the solves run must give the checked functions'
    # bits; q, eta and p include the ends of [0, 1/2]
    rng = np.random.default_rng(2024)
    q = np.concatenate([[0.0, 0.5, 5e-324, 1e-300], rng.uniform(0.0, 0.5, 4000)])
    assert _h_half(q).tobytes() == binary_entropy(q).tobytes()
    for x in q[:200]:
        assert _h_half(float(x)) == binary_entropy(float(x))
    assert _l_kernel(q).tobytes() == sum_rate_envelope(q).tobytes()
    # eta on [p, 1/2], the inner solve's bracket: both J branches
    p = rng.uniform(0.0, 0.5, 4000)
    p[:3] = 0.0, 0.5, 0.25
    eta = p + (0.5 - p) * rng.uniform(0.0, 1.0, p.size) ** 3
    upper = eta >= binary_convolve(p, p)
    assert 0 < upper.sum() < upper.size
    got = _j_kernel(eta, 1.0 - 2.0 * p)
    assert got.tobytes() == conditional_sum_envelope(p, eta).tobytes()
    for mask in (upper, ~upper):  # all of one branch at once
        sub = _j_kernel(eta[mask], 1.0 - 2.0 * p[mask])
        assert sub.tobytes() == conditional_sum_envelope(p[mask], eta[mask]).tobytes()
    # 0-d arguments, as in a scalar solve
    for pi, ei in zip(p[:100], eta[:100]):
        want = conditional_sum_envelope(float(pi), float(ei))
        assert _j_kernel(np.array(ei), 1.0 - 2.0 * pi) == want
        assert _l_kernel(np.array(ei)) == sum_rate_envelope(float(ei))


def _mp_h(q):
    # h in mpmath
    return -q * mpmath.log(q, 2) - (1 - q) * mpmath.log(1 - q, 2) if q > 0 else mpmath.mpf(0)


def _j_reference(p, eta):
    # the two-branch formula of J in mpmath, at the exact floats p and eta
    p, e = mpmath.mpf(p), mpmath.mpf(eta)
    s = 2 * p * (1 - p)
    if e >= s:
        return 2 * _mp_h((1 - mpmath.sqrt(1 - 2 * e)) / 2) - e
    gap, denom = 1 - e - s, 1 - 2 * s
    return 2 * _mp_h((1 - gap / mpmath.sqrt(denom)) / 2) - (1 - gap * gap / denom) / 2


def test_conditional_envelope_matches_high_precision_reference():
    # J within 2e-15 of its two-branch formula at 50 digits: 4,000 seeded
    # (p, eta) with eta on [p, 1/2] on both branches, and 1,000 with 1/2 - p
    # log-uniform on [1e-9, 1e-3], where 1 - eta - 2p(1 - p) and
    # 1 - 4p(1 - p) cancel in float
    rng = np.random.default_rng(20261021)
    p = np.concatenate([rng.uniform(0.0, 0.5, 4000), 0.5 - 10.0 ** rng.uniform(-9.0, -3.0, 1000)])
    eta = p + (0.5 - p) * rng.uniform(0.0, 1.0, p.size) ** 3
    upper = eta >= binary_convolve(p, p)
    assert 1000 < upper.sum() < p.size - 1000
    got = conditional_sum_envelope(p, eta)
    with mpmath.workdps(50):
        err = max(abs(mpmath.mpf(g) - _j_reference(pi, ei)) for g, pi, ei in zip(got, p, eta))
    assert err <= 2e-15, float(err)
    assert math.isfinite(conditional_sum_envelope(0.5 - 1e-9, 0.5 - 5e-10))


def test_conditional_envelope_domain_errors():
    # the second branch is undefined at p = 1/2 below eta = 1/2 (w = inf) and
    # far below eta = 2p^2 (w > 1)
    for p, eta in ((0.5, 0.3), (0.4, 0.01), (0.5, 0.1), (0.3, 0.05)):
        with pytest.raises(ValueError, match="^eta below the valid range of the second branch$"):
            conditional_sum_envelope(p, eta)
        with pytest.raises(ValueError, match="^eta below the valid range of the second branch$"):
            conditional_sum_envelope(np.array([0.25, p]), np.array([0.5, eta]))


# ---------------------------------------------------------------- r_sigma


def test_sum_rate_bound_at_r0_zero():
    for r1 in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert abs(sum_rate_bound(0.0, r1) - 1.5) <= 1e-12


def test_sum_rate_bound_degenerate_at_r1_one():
    # h_inv(1) = 1/2 exactly, so the eta interval collapses to {1/2} and the
    # value is min{3/2, 3/2 + r0} = 3/2 for every r0
    assert sum_rate_bound(0.1, 1.0) == 1.5
    assert sum_rate_bound(5.0, 1.0) == 1.5


def test_sum_rate_bound_rejects_nan_r0():
    # NaN fails r0 >= 0 at the boundary instead of surfacing from the solve
    with pytest.raises(ValueError, match=r"^r0=nan must be nonnegative$"):
        sum_rate_bound(float("nan"), 0.5)
    with pytest.raises(ValueError, match=r"^r0=-1.0 must be nonnegative$"):
        sum_rate_bound(-1.0, 0.5)
    assert abs(sum_rate_bound(math.inf, 0.5) - LOG2_3) <= 1e-15


def test_sum_rate_bound_large_r0_hits_cap():
    # once r0 dwarfs the conditional term the min is the envelope L, whose
    # max is log2(3)
    v = sum_rate_bound(2.0, 0.0)
    assert abs(v - LOG2_3) <= 1e-9


def test_sum_rate_bound_against_dense_grid():
    # independent oracle: plain dense grid, no refinement; the solver can
    # only improve on a grid
    for r0, r1 in ((0.1, 0.9), (0.3, 0.5), (0.05, 0.2)):
        p = binary_entropy_inv(r1)
        etas = np.linspace(p, 0.5, 200001)
        vals = np.minimum(
            sum_rate_envelope(etas), conditional_sum_envelope(p, etas) + r0
        )
        want = float(vals.max())
        got = sum_rate_bound(r0, r1)
        assert abs(got - want) <= 1e-6, (r0, r1, got, want)
        assert got >= want - 1e-12

    betas = np.linspace(0.0, 1.0, 200001)
    for rho in (0.05, 0.2, 0.45):
        pmf = ((1 - rho) * (1 - betas), rho * (1 - betas) + (1 - rho) * betas, rho * betas)
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = sum(np.where(m > 0.0, -m * np.log2(m), 0.0) for m in pmf)
        want = float(ent.max())
        got = float(ul_mixture_entropy(rho))
        assert abs(got - want) <= 1e-6, (rho, got, want)
        assert got >= want - 1e-12

    # the UL inner max over the formula's full kappa range [0, 1]; the
    # solver only searches [0, 1 - h_inv(r1)]
    kappas = np.linspace(0.0, 1.0, 200001)
    for rho, r1 in ((0.05, 0.9), (0.2, 0.99), (0.3, 1.0), (0.45, 0.5)):
        p1 = binary_entropy_inv(r1)
        g = float(ul_mixture_entropy(rho))
        b = np.minimum(rho + kappas, 0.5)
        a = np.clip(1.0 - p1 - kappas, 0.0, 0.5)
        vals = binary_entropy(a) - binary_entropy(rho) + np.minimum(g, b + binary_entropy(b))
        want = float(vals.max())
        got = float(_ul_inner_max(rho, p1)[0])
        assert abs(got - want) <= 1e-6, (rho, r1, got, want)
        assert got >= want - 1e-12


def _worst_second_difference(vals):
    return float(np.max(vals[:-2] - 2.0 * vals[1:-1] + vals[2:]))


def test_inner_objectives_are_concave():
    # each inner objective rises up to its maximum and falls after it, which
    # is what lets one sign bisection find the maximum; an under-resolved
    # inner maximum would invalidly lower an upper bound: pin concavity on
    # 20,001-point grids
    r1s = np.linspace(0.0, 1.0, 41)
    worst = -math.inf
    for r1 in r1s:
        p = binary_entropy_inv(float(r1))
        etas = np.linspace(p, 0.5, 20001)
        for r0 in (0.0, 0.05, 0.2, 1.0):
            worst = max(worst, _worst_second_difference(_sum_rate_objective(etas, r0, 1.0 - 2.0 * p)))
    assert worst <= 1e-12, ("r_sigma", worst)

    worst = -math.inf
    betas = np.linspace(0.0, 1.0, 20001)
    for rho in np.linspace(0.0, 0.5, 11):
        worst = max(worst, _worst_second_difference(_sum_entropy(betas, rho)))
    assert worst <= 1e-12, ("g*", worst)

    worst = -math.inf
    for rho in np.linspace(0.0, 0.5, 11):
        g = float(ul_mixture_entropy(rho))
        for r1 in r1s:
            p1 = binary_entropy_inv(float(r1))
            kappas = np.linspace(0.0, 1.0 - p1, 20001)
            objective = _ul_objective(kappas, rho, g, p1, binary_entropy(rho))
            worst = max(worst, _worst_second_difference(objective))
    assert worst <= 1e-12, ("ul", worst)


def test_sum_rate_sign_facts():
    # _sum_rate_max searches only [max(p, 1/3), 1/2] and takes L - J - r0 to
    # fall there: L rises up to 1/3 and falls after, and J(p, .) never falls
    # on [p, 1/2], on either branch, p near 0 and near 1/2 included; the last
    # p below 1/2 is h_inv at the float below r1 = 1, 4.4e-9 from 1/2
    etas = np.linspace(0.0, 0.5, 30001)
    l_vals = _l_kernel(etas)
    peak = np.searchsorted(etas, 1.0 / 3.0)
    assert (np.diff(l_vals[:peak]) >= 0.0).all() and (np.diff(l_vals[peak:]) <= 0.0).all()
    near_half = [0.5 - 1e-5, 0.5 - 1e-7, 0.5 - 1e-9, binary_entropy_inv(math.nextafter(1.0, 0.0)), 0.5]
    ps = np.concatenate([[0.0, 1e-12, 1e-6, 1e-3], np.linspace(0.01, 0.49, 49), near_half])
    branches = np.zeros(2, dtype=int)
    for p in ps:
        etas = np.linspace(p, 0.5, 20001)
        s = binary_convolve(p, p)
        branches += [(etas >= s).sum(), (etas < s).sum()]
        assert (np.diff(_j_kernel(etas, 1.0 - 2.0 * p)) >= 0.0).all(), p
    assert (branches > 100_000).all()
    # the UL kink: b + h(b) increases, so b + h(b) < g holds below one point
    b = np.linspace(0.0, 0.5, 100001)
    assert (np.diff(b + _h_half(b)) > 0.0).all()


def _ul_slope(kappa, rho, g, p1):
    # the right slope of _ul_objective in kappa: -h'(1 - p1 - kappa) where
    # that is below 1/2, plus 1 + h'(b) where b = rho + kappa < 1/2 and
    # b + h(b) < g; nonincreasing, as the objective is concave
    x, b = 1.0 - p1 - kappa, np.minimum(rho + kappa, 0.5)
    climbing = (b < 0.5) & (b + _h_half(b) < g)
    return np.where(climbing, 1.0 + _dh(b), 0.0) - np.where(x < 0.5, _dh(x), 0.0)


def test_slopes_are_nonincreasing_and_bracket_the_difference_quotients():
    # dH/dbeta, the sign ul_mixture_entropy solves on, and the UL right
    # slope in kappa, which the reference kappa bisection below solves on.
    # Each is nonincreasing on its bracket, and, the objectives being
    # concave, lies between the forward and the backward difference quotient
    step = 1e-6
    betas = np.linspace(0.0, 1.0, 20001)
    for rho in np.linspace(0.0, 0.5, 51):
        slope = _mixture_slope(betas, rho)
        assert (np.diff(slope) <= 0.0).all(), rho
        x = betas[1:-1][::97]
        fwd = (_sum_entropy(x + step, rho) - _sum_entropy(x, rho)) / step
        bwd = (_sum_entropy(x, rho) - _sum_entropy(x - step, rho)) / step
        assert (fwd - 1e-7 <= slope[1:-1][::97]).all() and (slope[1:-1][::97] <= bwd + 1e-7).all(), rho
    for rho in np.linspace(0.0, 0.5, 21):
        g, h_rho = float(ul_mixture_entropy(rho)), float(binary_entropy(rho))
        for r1 in np.linspace(0.0, 1.0, 21):
            p1 = binary_entropy_inv(float(r1))
            kappas = np.linspace(0.0, 1.0 - p1, 20001)
            slope = _ul_slope(kappas, rho, g, p1)
            assert (np.diff(slope) <= 0.0).all(), (rho, r1)
            x, sx = kappas[1:-1][::97], slope[1:-1][::97]
            f = lambda k: _ul_objective(k, rho, g, p1, h_rho)
            fwd, bwd = (f(x + step) - f(x)) / step, (f(x) - f(x - step)) / step
            assert (fwd - 1e-7 <= sx).all() and (sx <= bwd + 1e-7).all(), (rho, r1)


def test_ul_kink_structure():
    # what _ul_inner_max's single root rests on. Below the kink
    # b + h(b) = g*(rho), b = rho + kappa, the kappa-slope
    # 1 + h'(b) - h'(c - b) [c - b < 1/2], c = 1 - p1 + rho, is positive
    # exactly for b < s, the smaller root of b^2 - (c + 3) b + 2c: there
    # 1 + h'(b) = h'(c - b), i.e. 2(1 - b)/b = (1 - x)/x with x = c - b.
    # s lies at least 0.029 above the kink (closest at p1 = 1/2, rho = 0.25),
    # so the objective rises all the way to the kink. And the kink is
    # interior to [rho, 1/2] for rho < 1/2, as rho + h(rho) < g*(rho) < 3/2
    rho, p1 = np.meshgrid(np.linspace(0.0, 0.5, 2001), np.linspace(0.0, 0.5, 51))
    c = 1.0 - p1 + rho
    s = 4.0 * c / (c + 3.0 + np.sqrt((c - 1.0) ** 2 + 8.0))
    x = c - s
    lhs, rhs = 2.0 * (1.0 - s) / s, (1.0 - x) / x
    assert (np.abs(lhs - rhs) <= 1e-12 * rhs).all()
    g = ul_mixture_entropy(rho[0])
    kink = _bisect(lambda b: g - (b + _h_half(b)) > 0.0, rho[0], 0.5)[1]
    assert (s - kink).min() > 0.028
    rho = np.concatenate([np.linspace(0.0, 0.5, 20001)[:-1], 0.5 - np.geomspace(1e-4, 1e-6, 5)])
    g = ul_mixture_entropy(rho)
    assert (rho + _h_half(rho) < g).all() and (g < 1.5).all()


def test_ul_inner_max_matches_kappa_bisection():
    # the kink-root max lies within 1e-15 of the plain bisection of the
    # kappa-slope on [0, 1 - p1], at 5,000 seeded rho, 0 and 1/2
    rng = np.random.default_rng(20261022)
    rho = np.concatenate([rng.uniform(0.0, 0.5, 5000), [0.0, 0.5]])
    g, h_rho = ul_mixture_entropy(rho), binary_entropy(rho)
    for p1 in UL_P1S:
        a, b = _bisect(lambda k: _ul_slope(k, rho, g, p1) > 0.0, np.zeros_like(rho), 1.0 - p1)
        objective = lambda k: _ul_objective(k, rho, g, p1, h_rho)
        want = np.maximum(objective(a), objective(b))
        assert np.abs(_ul_inner_max(rho, p1)[0] - want).max() <= 1e-15, p1


def test_ul_objective_nonincreasing_in_p1():
    # ul_sum_bound returns 3/2 up to _UL_DEPARTURE without sampling; sound
    # because 3/2 is the value at rho = 1/2, and tight because every
    # kappa-objective falls as p1 = h_inv(r1) grows (its bracket [0, 1 - p1]
    # shrinks too), so the bound stays 3/2 on an interval of r1 from 0
    kappas = np.linspace(0.0, 1.0, 201)
    p1s = np.linspace(0.0, 0.5, 401)[:, None]
    valid = kappas <= 1.0 - p1s
    for rho in np.linspace(0.0, 0.5, 201):
        g = float(ul_mixture_entropy(rho))
        v = _ul_objective(kappas, rho, g, p1s, binary_entropy(rho))
        rises = (v[1:] > v[:-1]) & valid[1:]
        assert not rises.any(), rho


def test_sum_rate_bound_range_and_monotonicity():
    r0s = np.linspace(0.0, 0.8, 9)
    r1s = np.linspace(0.0, 1.0, 11)
    table = {}
    for r0 in r0s:
        for r1 in r1s:
            v = sum_rate_bound(float(r0), float(r1))
            assert 1.5 - 1e-6 <= v <= LOG2_3 + 1e-9, (r0, r1, v)
            table[(float(r0), float(r1))] = v
    for r1 in r1s:
        col = [table[(float(r0), float(r1))] for r0 in r0s]
        assert all(b >= a - 1e-6 for a, b in zip(col, col[1:])), r1
    for r0 in r0s:
        row = [table[(float(r0), float(r1))] for r1 in r1s]
        assert all(b <= a + 1e-6 for a, b in zip(row, row[1:])), r0


# ---------------------------------------------------------------- closed forms


def test_simple_bound():
    assert simple_bound(1.0) == 0.5
    assert simple_bound(0.5) == 1.0
    assert simple_bound(0.0) == 1.5
    with pytest.raises(ValueError):
        simple_bound(1.5)


def test_weldon_bound():
    assert weldon_bound(1.0) == 0.0
    assert abs(weldon_bound(0.0) - 1.0) == 0.0  # clamped from log2(3)
    # rate pair (r1, 1) forces r1 <= 1 - 1/log2(3) ~ 0.369
    r1_star = 1.0 - 1.0 / LOG2_3
    assert abs(weldon_bound(r1_star) - 1.0) <= 1e-12
    assert weldon_bound(r1_star + 0.01) < 1.0


def test_weldon_nonsystematic_bound():
    assert abs(weldon_nonsystematic_bound(1.0) - 0.5 * LOG2_3) <= 1e-12
    # raw expression always exceeds the sum-rate cap: strictly looser bound
    for r1 in np.linspace(0.0, 1.0, 21):
        raw = (1.0 - binary_entropy_inv(float(r1))) * LOG2_3
        assert raw + r1 > 1.5, r1


def test_ul_mixture_entropy():
    assert abs(ul_mixture_entropy(0.0) - 1.0) <= 1e-9
    assert abs(ul_mixture_entropy(0.5) - 1.5) <= 1e-9
    for rho in (0.1, 0.3):
        v = ul_mixture_entropy(rho)
        assert 1.0 <= v <= LOG2_3 + 1e-9


# ---------------------------------------------------------------- headline bounds


def test_ul_bound_regression():
    assert abs(ul_bound(1.0) - UL_AT_ONE) <= 1e-6


def test_main_bound_regression():
    assert abs(main_bound(1.0) - MAIN_AT_ONE) <= 1e-6


def test_main_bound_below_ul_at_one():
    assert main_bound(1.0) < ul_bound(1.0) - 1e-3


def test_bounds_equal_simple_away_from_one():
    # the minimax bounds improve on the sum-rate bound only near r1 = 1
    for r1 in (0.9, 0.95):
        assert abs(ul_bound(r1) - simple_bound(r1)) <= 1e-9
        assert abs(main_bound(r1) - simple_bound(r1)) <= 1e-9


def test_ul_sum_bound_never_above_simple_sum():
    for r1 in (0.0, 0.5, 0.9, 1.0):
        assert ul_sum_bound(r1) <= 1.5 + 1e-9


def test_bounds_deterministic():
    a = ul_bound(0.997)
    b = ul_bound(0.997)
    assert a == b
    c = main_bound(0.997)
    d = main_bound(0.997)
    assert c == d


# repr of (ul_bound, main_bound): the solver's outputs pinned to the bit,
# so any change to the arithmetic of the inner or outer solves shows here;
# up to r1 = 0.99 both are exactly the sum-rate bound
BOUND_PINS = {
    0.0: ("1.0", "1.0"),
    0.25: ("1.0", "1.0"),
    0.5: ("1.0", "1.0"),
    0.9: ("0.6", "0.6"),
    0.93: ("0.57", "0.57"),
    0.95: ("0.55", "0.55"),
    0.99: ("0.51", "0.51"),
    0.999: ("0.501", "0.49177435127535335"),
    1.0: ("0.49215988554559065", "0.4798303244979504"),
}

# repr of sum_rate_bound(r0, r1); the solves at (0.1, 0.9) and (0.02, 0.99)
# evaluate points on both branches of J
SUM_RATE_PINS = {
    (0.1, 0.9): "1.5318491081950985",
    (0.3, 0.5): "1.5755026415050102",
    (0.02, 0.99): "1.5068237313720498",
    (math.inf, 0.5): "1.5849625007211563",
}

MIXTURE_101_SHA256 = "c6d5785268f6f8821a47a25728464689e91f6340b4e76b34c4f7f1731584b5b8"

# sha256 of the lines repr((ul_bound(r1), main_bound(r1))) over _sweep_r1s()
SWEEP_SHA256 = "94c085c727bfafb2180a7fb80fe6c30ffd937a3fef87b73b1119118b913b4db3"


def _sweep_r1s():
    # 64 seeded r1 where main solves, 4 where ul solves too, and the float
    # above each departure point
    rng = np.random.default_rng(20261023)
    r1s = rng.uniform(bounds._MAIN_DEPARTURE, 1.0, 64).tolist()
    r1s += rng.uniform(bounds._UL_DEPARTURE, 1.0, 4).tolist()
    return r1s + [math.nextafter(bounds._MAIN_DEPARTURE, 2.0), math.nextafter(bounds._UL_DEPARTURE, 2.0)]


@pytest.mark.parametrize("r1", sorted(BOUND_PINS))
def test_bound_bit_pins(r1):
    assert (repr(ul_bound(r1)), repr(main_bound(r1))) == BOUND_PINS[r1]


def test_bound_bit_sweep():
    # BOUND_PINS holds two r1 where main solves and one where ul does, and
    # the curve CSVs keep 6 decimals: this pins both bounds to the bit at 70 r1
    text = "\n".join(repr((ul_bound(r1), main_bound(r1))) for r1 in _sweep_r1s())
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_SHA256


def test_sum_rate_and_mixture_bit_pins():
    for (r0, r1), want in SUM_RATE_PINS.items():
        assert repr(sum_rate_bound(r0, r1)) == want, (r0, r1)
    g = ul_mixture_entropy(np.linspace(0.0, 0.5, 101))
    assert hashlib.sha256(g.tobytes()).hexdigest() == MIXTURE_101_SHA256


def _count_evaluations(monkeypatch, bound, r1):
    # [calls, elements] of the objective evaluations, which all pass
    # bounds._checked, then of Newton's evaluations of (g, g'), then of the
    # probes, the first two evaluations of g in each solve, then of the
    # halvings' sign evaluations, the rest; and the number of (g, g')
    # evaluations of each _resolved_max call, in order
    seen, steps = [0] * 8, []
    checked, resolved = bounds._checked, bounds._resolved_max

    def tally(i, x):
        seen[i] += 1
        seen[i + 1] += np.size(x)

    def counting(f, i):
        def counted(x, *args):
            tally(i, x)
            return f(x, *args)

        return counted

    def resolved_counted(f, g, gdg, lo, hi, x0, args=(), outer=None):
        before, asked = seen[2], itertools.count()

        def g_counted(x, *args):
            tally(4 if next(asked) < 2 else 6, x)
            return g(x, *args)

        out = resolved(f, g_counted, counting(gdg, 2), lo, hi, x0, args, outer)
        steps.append(seen[2] - before)
        return out

    monkeypatch.setattr(bounds, "_checked", lambda v, x: (tally(0, v), checked(v, x))[1])
    monkeypatch.setattr(bounds, "_resolved_max", resolved_counted)
    bound(r1)
    return seen, steps


@pytest.mark.parametrize(
    "bound, work, solves",
    [
        (ul_bound, [15, 15_360, 19, 19_456, 12, 12_288, 30, 30_720], 2),
        (main_bound, [12, 3_561, 10, 10_240, 5, 323, 5, 785], 1),
    ],
    ids=["ul_bound", "main_bound"],
)
def test_solver_work_counts(monkeypatch, bound, work, solves):
    # the solver's work at r1 = 1: 3 outer grids of 1024 points, each inner
    # solve two objective evaluations at the end. Newton narrows every
    # bracket (main's eta, and for ul the beta of g* and the kink root in
    # b = rho + kappa) in a few evaluations of (g, g') and two probes of g,
    # and the bisection finishes in about 5 sign evaluations. Passes 2 and 3
    # start Newton at the previous pass's roots, so each of their solves
    # takes fewer steps than the same solve in pass 1. main's eta solve
    # takes the cut: its first pass stops Newton after 5 rounds, as 103
    # brackets, none near the minimum, are still in it; one more objective
    # evaluation per pass, at the iterates; and of the 1,024 samples only
    # 3, 3 and 157 are finished (their ends and the outer check:
    # 3 * 1024 + 3 * 163 elements)
    seen, steps = _count_evaluations(monkeypatch, bound, 1.0)
    assert seen == work
    first, *zooms = np.reshape(steps, (3, solves))
    assert all((zoom < first).all() for zoom in zooms), steps


@pytest.mark.parametrize("bound, calls, elems", [(ul_bound, 0, 0), (main_bound, 0, 0)])
def test_endpoint_work_counts(monkeypatch, bound, calls, elems):
    # at r1 = 0.95, below both departure points, neither bound solves
    # anything: no objective, Newton or sign evaluations
    assert _count_evaluations(monkeypatch, bound, 0.95) == ([calls, elems] * 4, [])


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo, hi, iters):
    # the golden-section search the bounds ran before the bisection, kept as
    # a reference: the best value f takes over iters steps on every bracket
    # [lo, hi], below the maximum by at most the slope times
    # (hi - lo) 0.618**iters. Once every bracket is down to adjacent floats,
    # each further step would only evaluate a or b again, so it stops there
    a, b = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi))
    t = _INVPHI * (b - a)
    c, d = b - t, a + t
    fc, fd = f(c), f(d)
    best = np.maximum(np.maximum(f(a), f(b)), np.maximum(fc, fd))
    for _ in range(iters):
        if (np.nextafter(a, np.inf) >= b).all():
            break
        # keep [a, d] where f(c) >= f(d), else [c, b]; the surviving inner
        # point becomes d or c, and one new point is evaluated per bracket
        left = fc >= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        t = _INVPHI * (b - a)
        x = np.where(left, b - t, a + t)
        v = f(x)
        best = np.maximum(best, v)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, v, fd), np.where(left, fc, v)
    return best[()]


def _golden_sum_rate_max(r0, p, iters):
    return _golden_max(lambda eta: _sum_rate_objective(eta, r0, 1.0 - 2.0 * p), p, 0.5, iters)


def _golden_main_objective(alpha, p1, iters):
    # _main_objective with its inner maximum by _golden_max, and no roots
    ratio = np.clip((p1 - alpha) / (1.0 - alpha), 0.0, 0.5)
    r_sigma = _golden_sum_rate_max(alpha / (1.0 - alpha), ratio, iters)
    return (1.0 - alpha) * (r_sigma - _h_half(ratio)), ()


def _golden_mixture_entropy(rho, iters):
    rho = np.asarray(rho, dtype=float)
    return _golden_max(lambda beta: _sum_entropy(beta, rho), np.zeros_like(rho), 1.0, iters)


def _golden_ul_inner_max(rho, p1, iters):
    g, h_rho = _golden_mixture_entropy(rho, iters), binary_entropy(rho)
    objective = lambda kappa: _ul_objective(kappa, rho, g, p1, h_rho)
    return _golden_max(objective, np.zeros_like(rho), 1.0 - p1, iters), ()


def _sampled_ul(r1, inner=_ul_inner_max):
    # ul_bound through the sampled outer minimum, whatever r1
    p1 = binary_entropy_inv(r1)
    v = _sampled_minimize(inner, 0.0, 0.5, (p1,))[0]
    return min(max(v - r1, 0.0), 1.0)


def _sampled_main(r1, objective=_main_objective):
    # main_bound through the sampled outer minimum, whatever r1
    p1 = binary_entropy_inv(r1)
    v = _sampled_minimize(objective, 0.0, p1, (p1,))[0]
    return min(max(v, 0.0), 1.0, 1.5 - r1)


def test_outer_argmin_and_inner_roots_at_one():
    # each outer minimum returns its value, its argmin and the inner roots
    # there: at r1 = 1, main's alpha* and eta*, and ul's rho* and the beta*
    # and b* = rho* + kappa* of its g* and kink solves. The argmin is a
    # finished sample: solved alone from a cold start, it gives the minimum
    p1 = binary_entropy_inv(1.0)
    v, alpha, (eta,) = _sampled_minimize(_main_objective, 0.0, p1, (p1,))
    assert v == main_bound(1.0)
    assert abs(alpha - 0.125337) <= 5e-7 and abs(eta - 0.462133) <= 5e-7
    assert abs(_main_objective(np.array([alpha]), p1)[0][0] - v) <= 1e-15
    v, rho, (beta, b) = _sampled_minimize(_ul_inner_max, 0.0, 0.5, (p1,))
    assert v == ul_sum_bound(1.0)
    assert abs(rho - 0.357121) <= 5e-7 and abs(beta - 0.538263) <= 5e-7 and abs(b - 0.474352) <= 5e-7
    assert abs(_ul_inner_max(np.array([rho]), p1)[0][0] - v) <= 1e-15


def test_bounds_match_golden_section_reference():
    # every inner maximum, resolved to adjacent floats, lands within 1e-15 of
    # a 200-step golden-section search on the same outer grid: at 200 seeded
    # r1 where main solves, 30 more where ul solves too, and the edge values
    rng = np.random.default_rng(20261020)
    r1s = rng.uniform(bounds._MAIN_DEPARTURE, 1.0, 200).tolist()
    r1s += rng.uniform(bounds._UL_DEPARTURE, 1.0, 30).tolist()
    r1s += [math.nextafter(bounds._MAIN_DEPARTURE, 2.0), math.nextafter(bounds._UL_DEPARTURE, 2.0)]
    r1s += [math.nextafter(1.0, 0.0), 1.0]
    ref_ul = lambda rho, p1: _golden_ul_inner_max(rho, p1, 200)
    ref_main = lambda alpha, p1: _golden_main_objective(alpha, p1, 200)
    solved = {ul_bound: 0, main_bound: 0}
    for r1 in r1s:
        for dep, bound, reference in (
            (bounds._UL_DEPARTURE, ul_bound, lambda r1: _sampled_ul(r1, ref_ul)),
            (bounds._MAIN_DEPARTURE, main_bound, lambda r1: _sampled_main(r1, ref_main)),
        ):
            if r1 > dep:
                got, want = bound(r1), reference(r1)
                assert abs(got - want) <= 1e-15, (bound.__name__, r1, got, want)
                solved[bound] += 1
    assert solved == {ul_bound: 46, main_bound: 234}


def test_sum_rate_and_mixture_match_golden_section_reference():
    for r0, r1 in SUM_RATE_PINS:
        want = _golden_sum_rate_max(r0, np.array(binary_entropy_inv(r1)), 200)
        assert abs(sum_rate_bound(r0, r1) - want) <= 1e-15, (r0, r1)
    rho = np.linspace(0.0, 0.5, 101)
    assert np.abs(ul_mixture_entropy(rho) - _golden_mixture_entropy(rho, 200)).max() <= 1e-15


def test_ul_departure_point():
    # _UL_DEPARTURE is the last r1 at which the sampled ul is exactly the
    # sum-rate bound; one float higher its outer grid falls into the dip
    # near rho = 0.39 and lands 2.9e-8 lower
    r1 = bounds._UL_DEPARTURE
    assert _sampled_ul(r1) == simple_bound(r1)
    above = math.nextafter(r1, 2.0)
    assert _sampled_ul(above) < simple_bound(above) - 2.9e-8
    assert ul_bound(above) == _sampled_ul(above)


def _main_slope_at_zero(p):
    # F'(0) in mpmath for main's outer objective F(alpha) = _main_objective(
    # alpha, p) = (1 - alpha)(r_sigma(alpha/(1 - alpha), q) - h(q)),
    # q = (p - alpha)/(1 - alpha): r_sigma(r0, q) = 3/2 + r0 ln2/2 + o(r0),
    # as L and J cross near eta = 1/2, and dq/dalpha = -(1 - p) at alpha = 0
    p = mpmath.mpf(p)
    return mpmath.log(2) / 2 + (1 - p) * mpmath.log((1 - p) / p, 2) - (mpmath.mpf(3) / 2 - _mp_h(p))


def test_main_slope_at_zero_matches_finite_differences():
    # the forward difference over alpha = 1e-6 p1 differs from F'(0) by about
    # alpha F''/2, which is 2.5e-7 to 3.6e-7 at these r1
    for r1 in (0.95, 0.99, 0.995, 0.999):
        p1 = binary_entropy_inv(r1)
        alpha = 1e-6 * p1
        f0, f1 = _main_objective(np.array([0.0, alpha]), p1)[0]
        with mpmath.workdps(40):
            want = float(_main_slope_at_zero(p1))
        assert abs((f1 - f0) / alpha - want) <= 4e-7, (r1, (f1 - f0) / alpha, want)


def test_main_departure_point():
    # _MAIN_DEPARTURE is r1* = h(p*) rounded down to a float, where p* is the
    # root of F'(0): below it main's outer objective rises from alpha = 0, so
    # the minimum is the endpoint value; just above it main_bound takes the
    # sampled path (checked at 12 points: each costs two sampled solves)
    with mpmath.workdps(40):
        lo, hi = mpmath.mpf("0.44"), mpmath.mpf("0.46")
        assert _main_slope_at_zero(lo) > 0 > _main_slope_at_zero(hi)
        p_star = mpmath.findroot(_main_slope_at_zero, (lo, hi), solver="anderson")
        assert lo < p_star < hi
        r1 = bounds._MAIN_DEPARTURE
        assert mpmath.mpf(r1) <= _mp_h(p_star) < mpmath.mpf(math.nextafter(r1, 2.0))
    assert main_bound(r1) == min(simple_bound(r1), 1.0)
    rng = np.random.default_rng(20261019)
    above = [math.nextafter(r1, 2.0)] + [r1 + 1e-9 * float(u) for u in rng.uniform(0.0, 1.0, 11)]
    assert all(x > r1 for x in above)
    for x in above:
        assert main_bound(x) == _sampled_main(x), x


def test_endpoint_shortcuts_match_sampled_path():
    # each shortcut returns the sum-rate bound where the sampled outer
    # minimum sits at the time-sharing endpoint: the sampled value differs
    # from it only by h(h_inv(r1)) - r1 and inner-solve float noise. Seeded
    # r1 on the curve's range, plus a band around each departure point
    rng = np.random.default_rng(20261018)
    seeded = [float(r1) for r1 in rng.uniform(0.9, 1.0, 200)]
    main_band = [float(r1) for r1 in np.linspace(0.9925, 0.9928, 61)]
    main_band += [float(bounds._MAIN_DEPARTURE + d) for d in np.linspace(-1e-10, 1e-10, 21)]
    ul_band = [float(r1) for r1 in np.linspace(0.99940, 0.99955, 61)]
    for bound, sampled, r1s in (
        (ul_bound, _sampled_ul, seeded + ul_band),
        (main_bound, _sampled_main, seeded + main_band),
    ):
        for r1 in r1s:
            got, cap = bound(r1), min(simple_bound(r1), 1.0)
            assert got <= cap, (bound.__name__, r1, got)
            if got == cap:  # otherwise got is the sampled value itself
                want = sampled(r1)
                assert abs(got - want) <= 2e-12, (bound.__name__, r1, got, want)


def test_bounds_continuous_into_one():
    # h_inv at the float below r1 = 1 is about 4.4e-9 below 1/2, so both
    # bounds there lie at most 1e-8 above their values at r1 = 1
    below = math.nextafter(1.0, 0.0)
    for bound in (ul_bound, main_bound):
        assert 0.0 <= bound(below) - bound(1.0) <= 1e-8, bound.__name__


def test_bounds_never_above_sum_rate_bound():
    # both bounds are capped by min(simple, 1), on the sampled path too
    for r1 in (0.0, 0.25, 0.5, 0.75, 0.9, 0.985, 0.993, 0.9995, 1.0):
        cap = min(simple_bound(r1), 1.0)
        assert ul_bound(r1) <= cap and main_bound(r1) <= cap, r1


@pytest.mark.parametrize("r1", [0.9, 0.95, 0.99, 0.995, 0.999, 0.9996, 1.0])
def test_default_grid_matches_dense_grid(monkeypatch, r1):
    # the default outer grid lands on the values of a 4096-point grid or at
    # most 1e-15 above them, never below: a sparser grid costs no soundness
    # here. Up to 0.99 both stop at the time-sharing endpoint; 0.995 and
    # above sample main's outer objective, and 0.9996 ul's too
    default = [bound(r1) for bound in (ul_bound, main_bound)]
    monkeypatch.setattr(bounds, "_GRID_POINTS", 4096)
    for bound, got in zip((ul_bound, main_bound), default):
        ref = bound(r1)
        assert ref <= got <= ref + 1e-15, (bound.__name__, ref, got)


# ---------------------------------------------------------------- curve


def test_curve_values_and_ordering():
    bc = curve(0.9, 1.0, 11)
    assert len(bc.rows) == 11
    r1, s, u, m = bc.rows[-1]
    assert r1 == 1.0
    assert abs(s - 0.5) <= 1e-3
    assert abs(u - 0.49216) <= 1e-3
    assert abs(m - 0.4798) <= 1e-3
    for r1, s, u, m in bc.rows:
        assert m <= u + 1e-6 and u <= s + 1e-6, r1


def test_curve_csv_roundtrip():
    bc = curve(0.95, 1.0, 3)
    text = bc.to_csv()
    assert text.splitlines()[0] == "r1,simple,ul,main"
    parsed = BoundCurve.from_csv(text)
    assert parsed.to_csv() == text


def test_curve_non_integer_steps():
    for steps in (3.0, 2.5, "3", None):
        with pytest.raises(ValueError) as exc:
            curve(0.9, 1.0, steps)
        assert str(exc.value) == f"steps {steps!r} is not an integer"
    assert len(curve(0.9, 1.0, np.int64(3)).rows) == 3


def test_curve_rejects_a_grid_that_does_not_increase(monkeypatch):
    # a range a few floats wide, or one past 1 by less than the slack (whose
    # grid is all 1.0), fails on its grid, before any bound is solved
    def no_solve(r1):
        raise AssertionError("solved a row")

    monkeypatch.setattr(bounds, "ul_bound", no_solve)
    monkeypatch.setattr(bounds, "main_bound", no_solve)
    for lo, hi, steps in ((0.9999999999999999, 1.0, 5), (1.0, 1.0000000000001, 3)):
        want = f"r1 grid of {steps} steps over [{lo!r}, {hi!r}] does not strictly increase"
        with pytest.raises(ValueError) as ei:
            curve(lo, hi, steps)
        assert str(ei.value) == want


def test_curve_validation():
    with pytest.raises(ValueError):
        curve(1.0, 0.9, 11)
    with pytest.raises(ValueError):
        curve(0.9, 1.0, 1)
    with pytest.raises(ValueError):
        BoundCurve(((0.5, 1.0, 1.0, 1.0), (0.5, 1.0, 1.0, 1.0)))
    with pytest.raises(ValueError):
        BoundCurve.from_csv("a,b\n1,2\n")
    # nan compares false, so it would pass the order and sign checks
    for text in ("nan,nan,inf,0\n", "0.5,1,1,1\nnan,1,1,1\n0.4,1,1,1\n"):
        with pytest.raises(ValueError, match="non-finite value in row"):
            BoundCurve.from_csv("r1,simple,ul,main\n" + text)
