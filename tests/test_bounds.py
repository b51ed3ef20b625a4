import hashlib
import math

import numpy as np
import pytest

from adderbound import bounds
from adderbound.bounds import (
    LOG2_3,
    BoundCurve,
    EvaluationError,
    OptimizerConfig,
    conditional_sum_envelope,
    curve,
    main_bound,
    scalar_maximize,
    simple_bound,
    sum_rate_bound,
    sum_rate_envelope,
    ul_bound,
    ul_mixture_entropy,
    ul_sum_bound,
    weldon_bound,
    weldon_nonsystematic_bound,
    _j_consts,
    _j_kernel,
    _l_kernel,
    _main_objective,
    _sampled_minimize,
    _sum_rate_objective,
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

# small config: the unit tests exercise correctness, not headline-digit accuracy
FAST = OptimizerConfig(grid_points=512, refine_iters=48)

# regression fixtures, recorded once from the default config
UL_AT_ONE = 0.4921598855455906
MAIN_AT_ONE = 0.4798303244974113


# ---------------------------------------------------------------- optimizer


def test_scalar_maximize_quadratic():
    arg, val = scalar_maximize(lambda x: -((x - 0.3) ** 2), 0.0, 1.0, FAST)
    assert abs(arg - 0.3) <= 1e-6
    assert abs(val) <= 1e-12
    # one bracket per peak, solved together; the last bracket ends before
    # its peak, so its maximum is the endpoint
    peaks = np.array([0.1, 0.5, 0.9])
    arg, val = scalar_maximize(lambda x: -((x - peaks) ** 2), 0.0, [1.0, 1.0, 0.6], FAST)
    assert np.all(np.abs(arg - [0.1, 0.5, 0.6]) <= 1e-6)
    assert val[2] == -((0.6 - 0.9) ** 2)


def test_scalar_maximize_degenerate_interval():
    arg, val = scalar_maximize(lambda x: x * 2.0, 0.7, 0.7, FAST)
    assert (arg, val) == (0.7, 1.4)


def test_scalar_maximize_entropy_peak():
    # h(eta) + 1 - eta peaks at eta = 1/3 with value log2(3)
    arg, val = scalar_maximize(sum_rate_envelope, 0.0, 0.5, FAST)
    assert abs(arg - 1.0 / 3.0) <= 1e-5
    assert abs(val - LOG2_3) <= 1e-9


def test_scalar_maximize_nonfinite_errors():
    def bad(x):
        return np.where(x > 0.5, np.nan, x)

    with pytest.raises(EvaluationError) as ei:
        scalar_maximize(bad, 0.0, 1.0, FAST)
    assert ei.value.argument > 0.5
    assert math.isnan(ei.value.value)


def test_scalar_maximize_bad_interval():
    with pytest.raises(ValueError):
        scalar_maximize(lambda x: x, 1.0, 0.0, FAST)
    with pytest.raises(ValueError):
        scalar_maximize(lambda x: x, 0.0, [1.0, -1.0], FAST)
    with pytest.raises(ValueError):
        scalar_maximize(lambda x: x, 0.0, math.inf, FAST)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(grid_points=8)
    with pytest.raises(ValueError):
        OptimizerConfig(refine_iters=0)
    # fixed caps far above any documented use
    OptimizerConfig(grid_points=1 << 20, refine_iters=1000)
    with pytest.raises(ValueError):
        OptimizerConfig(grid_points=(1 << 20) + 1)
    with pytest.raises(ValueError):
        OptimizerConfig(refine_iters=1001)


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
    got = _j_kernel(eta, *_j_consts(p))
    assert got.tobytes() == conditional_sum_envelope(p, eta).tobytes()
    for mask in (upper, ~upper):  # all of one branch at once
        sub = _j_kernel(eta[mask], *_j_consts(p[mask]))
        assert sub.tobytes() == conditional_sum_envelope(p[mask], eta[mask]).tobytes()
    # 0-d arguments, as in a scalar solve
    for pi, ei in zip(p[:100], eta[:100]):
        want = conditional_sum_envelope(float(pi), float(ei))
        assert _j_kernel(np.array(ei), *_j_consts(pi)) == want
        assert _l_kernel(np.array(ei)) == sum_rate_envelope(float(ei))


def test_conditional_envelope_domain_errors():
    # second branch is singular at p = 1/2 and invalid far below eta = 2p^2
    with pytest.raises(ValueError):
        conditional_sum_envelope(0.5, 0.3)
    with pytest.raises(ValueError):
        conditional_sum_envelope(0.4, 0.01)


# ---------------------------------------------------------------- r_sigma


def test_sum_rate_bound_at_r0_zero():
    for r1 in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert abs(sum_rate_bound(0.0, r1, FAST) - 1.5) <= 1e-12


def test_sum_rate_bound_degenerate_at_r1_one():
    # h_inv(1) = 1/2 exactly, so the eta interval collapses to {1/2} and the
    # value is min{3/2, 3/2 + r0} = 3/2 for every r0
    assert sum_rate_bound(0.1, 1.0, FAST) == 1.5
    assert sum_rate_bound(5.0, 1.0, FAST) == 1.5


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
    v = sum_rate_bound(2.0, 0.0, FAST)
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
        got = sum_rate_bound(r0, r1, FAST)
        assert abs(got - want) <= 1e-6, (r0, r1, got, want)
        assert got >= want - 1e-12

    betas = np.linspace(0.0, 1.0, 200001)
    for rho in (0.05, 0.2, 0.45):
        pmf = ((1 - rho) * (1 - betas), rho * (1 - betas) + (1 - rho) * betas, rho * betas)
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = sum(np.where(m > 0.0, -m * np.log2(m), 0.0) for m in pmf)
        want = float(ent.max())
        got = float(ul_mixture_entropy(rho, FAST))
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
        got = float(_ul_inner_max(rho, p1, FAST))
        assert abs(got - want) <= 1e-6, (rho, r1, got, want)
        assert got >= want - 1e-12


def _worst_second_difference(vals):
    return float(np.max(vals[:-2] - 2.0 * vals[1:-1] + vals[2:]))


def test_inner_objectives_are_concave():
    # scalar_maximize finds an inner maximum only if the objective is concave
    # on its bracket, and an under-resolved inner maximum would invalidly
    # lower an upper bound: pin concavity on 20,001-point grids
    r1s = np.linspace(0.0, 1.0, 41)
    worst = -math.inf
    for r1 in r1s:
        p = binary_entropy_inv(float(r1))
        etas = np.linspace(p, 0.5, 20001)
        for r0 in (0.0, 0.05, 0.2, 1.0):
            s, denom = _j_consts(np.full_like(etas, p))
            worst = max(worst, _worst_second_difference(_sum_rate_objective(etas, r0, s, denom)))
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
            v = sum_rate_bound(float(r0), float(r1), FAST)
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
    assert abs(ul_mixture_entropy(0.0, FAST) - 1.0) <= 1e-9
    assert abs(ul_mixture_entropy(0.5, FAST) - 1.5) <= 1e-9
    for rho in (0.1, 0.3):
        v = ul_mixture_entropy(rho, FAST)
        assert 1.0 <= v <= LOG2_3 + 1e-9


# ---------------------------------------------------------------- headline bounds


def test_ul_bound_regression():
    assert abs(ul_bound(1.0, FAST) - UL_AT_ONE) <= 1e-6


def test_main_bound_regression():
    assert abs(main_bound(1.0, FAST) - MAIN_AT_ONE) <= 1e-6


def test_main_bound_below_ul_at_one():
    assert main_bound(1.0, FAST) < ul_bound(1.0, FAST) - 1e-3


def test_bounds_equal_simple_away_from_one():
    # the minimax bounds improve on the sum-rate bound only near r1 = 1
    for r1 in (0.9, 0.95):
        assert abs(ul_bound(r1, FAST) - simple_bound(r1)) <= 1e-9
        assert abs(main_bound(r1, FAST) - simple_bound(r1)) <= 1e-9


def test_ul_sum_bound_never_above_simple_sum():
    for r1 in (0.0, 0.5, 0.9, 1.0):
        assert ul_sum_bound(r1, FAST) <= 1.5 + 1e-9


def test_bounds_deterministic():
    a = ul_bound(0.997, FAST)
    b = ul_bound(0.997, FAST)
    assert a == b
    c = main_bound(0.997, FAST)
    d = main_bound(0.997, FAST)
    assert c == d


# repr of (ul_bound, main_bound) at the default config: the solver's outputs
# pinned to the bit, so any change to the arithmetic of the inner or outer
# solves shows here; up to r1 = 0.99 both are exactly the sum-rate bound
BOUND_PINS = {
    0.0: ("1.0", "1.0"),
    0.25: ("1.0", "1.0"),
    0.5: ("1.0", "1.0"),
    0.9: ("0.6", "0.6"),
    0.93: ("0.57", "0.57"),
    0.95: ("0.55", "0.55"),
    0.99: ("0.51", "0.51"),
    0.999: ("0.501", "0.4917743512700185"),
    1.0: ("0.4921598855455893", "0.4798303244979498"),
}

# repr of sum_rate_bound(r0, r1); the solves at (0.1, 0.9) and (0.02, 0.99)
# evaluate points on both branches of J
SUM_RATE_PINS = {
    (0.1, 0.9): "1.5318491081950982",
    (0.3, 0.5): "1.5755026415050088",
    (0.02, 0.99): "1.50682373137205",
    (math.inf, 0.5): "1.5849625007211563",
}

MIXTURE_101_SHA256 = "a249fded21fea2e393619de9251a1464b13563a5ece4ae6ca07b9df53b1d2522"


@pytest.mark.parametrize("r1", sorted(BOUND_PINS))
def test_bound_bit_pins(r1):
    assert (repr(ul_bound(r1)), repr(main_bound(r1))) == BOUND_PINS[r1]


def test_sum_rate_and_mixture_bit_pins():
    for (r0, r1), want in SUM_RATE_PINS.items():
        assert repr(sum_rate_bound(r0, r1)) == want, (r0, r1)
    g = ul_mixture_entropy(np.linspace(0.0, 0.5, 101))
    assert hashlib.sha256(g.tobytes()).hexdigest() == MIXTURE_101_SHA256


def _count_evaluations(monkeypatch, bound, r1):
    # every objective evaluation passes bounds._checked: (calls, elements)
    seen = [0, 0]
    checked = bounds._checked

    def counting(f, x):
        seen[0] += 1
        seen[1] += x.size
        return checked(f, x)

    monkeypatch.setattr(bounds, "_checked", counting)
    bound(r1)
    return seen


@pytest.mark.parametrize("bound, calls, elems", [(ul_bound, 411, 420_864), (main_bound, 207, 211_968)])
def test_solver_work_counts(monkeypatch, bound, calls, elems):
    # the solver's work at the default config: 3 outer grids of 1024 points
    # and 68 evaluations per golden-section solve (ul runs two per outer grid)
    assert _count_evaluations(monkeypatch, bound, 1.0) == [calls, elems]


@pytest.mark.parametrize("bound, calls, elems", [(ul_bound, 0, 0), (main_bound, 0, 0)])
def test_endpoint_work_counts(monkeypatch, bound, calls, elems):
    # at r1 = 0.95, below both departure points, neither bound solves anything
    assert _count_evaluations(monkeypatch, bound, 0.95) == [calls, elems]


@pytest.mark.parametrize(
    "r1, cfg, was",
    [
        (0.99, OptimizerConfig(64, 1), 0.49976747153358275),
        (0.99, OptimizerConfig(64, 4), 0.5079533846210139),
        (0.95, OptimizerConfig(64, 1), 0.5492393542333651),
    ],
)
def test_coarse_config_keeps_sum_rate_bound(r1, cfg, was):
    # below _MAIN_DEPARTURE the config is not used: a sampled path with too
    # few golden-section steps under-resolved the inner maxima and returned
    # `was`, below the exact bound
    assert main_bound(r1, cfg) == simple_bound(r1) > was


def _sampled_ul(r1, cfg=bounds.DEFAULT_CONFIG):
    # ul_bound through the sampled outer minimum, whatever r1
    p1 = binary_entropy_inv(r1)
    v = _sampled_minimize(lambda rho: _ul_inner_max(rho, p1, cfg), 0.0, 0.5, cfg)
    return min(max(v - r1, 0.0), 1.0)


def _sampled_main(r1, cfg=bounds.DEFAULT_CONFIG):
    # main_bound through the sampled outer minimum, whatever r1
    p1 = binary_entropy_inv(r1)
    v = _sampled_minimize(lambda alpha: _main_objective(alpha, p1, cfg), 0.0, p1, cfg)
    return min(max(v, 0.0), 1.0, 1.5 - r1)


def test_ul_departure_point():
    # _UL_DEPARTURE is the last r1 at which the sampled ul is exactly the
    # sum-rate bound; one float higher its outer grid falls into the dip
    # near rho = 0.39 and lands 2.9e-8 lower
    r1 = bounds._UL_DEPARTURE
    assert _sampled_ul(r1) == simple_bound(r1)
    above = math.nextafter(r1, 2.0)
    assert _sampled_ul(above) < simple_bound(above) - 2.9e-8
    assert ul_bound(above) == _sampled_ul(above)


def _main_probe(r1, cfg=bounds.DEFAULT_CONFIG):
    # main_bound's former outer slope test, kept as the reference for
    # _MAIN_DEPARTURE: one single-bracket inner solve at alpha = 1e-6 h_inv(r1),
    # true where it is no lower than the objective at alpha = 0
    p1 = binary_entropy_inv(r1)
    obj = lambda alpha: _main_objective(alpha, p1, cfg)
    return p1 > 0.0 and bounds._checked(obj, np.array([1e-6 * p1]))[0] >= 1.5 - _h_half(p1)


def test_main_departure_point():
    # _MAIN_DEPARTURE is the largest r1 found at which the probe fires; just
    # above it the probe fails, and main_bound takes the sampled path (checked
    # at the first 12 points: each costs two sampled solves)
    r1 = bounds._MAIN_DEPARTURE
    assert _main_probe(r1)
    assert main_bound(r1) == min(simple_bound(r1), 1.0)
    rng = np.random.default_rng(20261019)
    above = [math.nextafter(r1, 2.0)] + [r1 + 1e-9 * float(u) for u in rng.uniform(0.0, 1.0, 160)]
    assert all(x > r1 for x in above)
    assert not any(_main_probe(x) for x in above)
    for x in above[:12]:
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


def test_bounds_never_above_sum_rate_bound():
    # both bounds are capped by min(simple, 1), on the sampled path too
    for r1 in (0.0, 0.25, 0.5, 0.75, 0.9, 0.985, 0.993, 0.9995, 1.0):
        cap = min(simple_bound(r1), 1.0)
        assert ul_bound(r1) <= cap and main_bound(r1) <= cap, r1
        assert main_bound(r1, FAST) <= cap and ul_bound(r1, FAST) <= cap, r1


@pytest.mark.parametrize("r1", [0.9, 0.95, 0.99, 0.995, 0.999, 0.9996, 1.0])
def test_default_grid_matches_dense_grid(r1):
    # the default outer grid lands on the (4096, 64) values or at most 1e-15
    # above them, never below: a sparser grid costs no soundness here. Up to
    # 0.99 both configs stop at the time-sharing endpoint; 0.995 and above
    # sample main's outer objective, and 0.9996 ul's too
    dense = OptimizerConfig(4096, 64)
    for bound in (ul_bound, main_bound):
        ref = bound(r1, dense)
        assert ref <= bound(r1) <= ref + 1e-15


# ---------------------------------------------------------------- curve


def test_curve_values_and_ordering():
    bc = curve(0.9, 1.0, 11, FAST)
    assert len(bc.rows) == 11
    r1, s, u, m = bc.rows[-1]
    assert r1 == 1.0
    assert abs(s - 0.5) <= 1e-3
    assert abs(u - 0.49216) <= 1e-3
    assert abs(m - 0.4798) <= 1e-3
    for r1, s, u, m in bc.rows:
        assert m <= u + 1e-6 and u <= s + 1e-6, r1


def test_curve_csv_roundtrip():
    bc = curve(0.95, 1.0, 3, FAST)
    text = bc.to_csv()
    assert text.splitlines()[0] == "r1,simple,ul,main"
    parsed = BoundCurve.from_csv(text)
    assert parsed.to_csv() == text


def test_curve_validation():
    with pytest.raises(ValueError):
        curve(1.0, 0.9, 11, FAST)
    with pytest.raises(ValueError):
        curve(0.9, 1.0, 1, FAST)
    with pytest.raises(ValueError):
        BoundCurve(((0.5, 1.0, 1.0, 1.0), (0.5, 1.0, 1.0, 1.0)))
    with pytest.raises(ValueError):
        BoundCurve.from_csv("a,b\n1,2\n")
