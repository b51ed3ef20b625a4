"""Upper bounds on the rate pairs (r1, r2) of multiset-union-free family pairs,
equivalently on the zero-error capacity region of the two-user binary adder
channel.

Three bounds on r2 as a function of r1 are provided:

  simple_bound   the sum-rate bound r1 + r2 <= 3/2,
  ul_bound       the Urbanke-Li minimax bound,
  main_bound     the envelope bound through r_sigma (strictly better near r1=1).

The minimax bounds are a sampled outer minimum of inner maxima. Each inner
objective rises while a smooth, falling g is positive and never rises after:
g is the objective's slope for g*, L - J - r0 (which side of min{L, J + r0}
is active) for r_sigma, and for the UL max over kappa the kink residual
g* - b - h(b) in b = rho + kappa, as the maximum sits at the kink. One
solve, _resolved_max, takes every bracket of a whole array, one per outer
point, to two adjacent floats across g's sign change, each round moving
an end by g's sign: Newton rounds on (g, g'), 2 probes of g, then
halvings; the inner value is the better of the objective at the two. g'
and Newton's start set only the pace: a solve takes 5 to 9 Newton rounds
from the midpoint or 2 to 3 from a close start, then about 5 halvings,
where halving alone takes about 51. There is no step count or tolerance:
an under-resolved inner max would invalidly lower an upper bound, and
tests pin the monotonicity the sign relies on. Each outer minimum samples
_GRID_POINTS points and then zooms in around the best sample, each pass
starting its inner solves at the previous pass's roots, interpolated;
every sample is itself an upper bound, so sampling stays sound without
any assumption on the outer objective. main's passes finish only the
samples that can still be the minimum, and their neighbours: those within
_CUT_MARGIN (2e-14) of the least outer value at the Newton iterates, if
every other lies more than _ROUNDING (1e-14) above the least finished
value, and else all; the cut is made once 7 in 8 samples are out of
Newton (see _resolved_max). An unfinished sample is never a value, so
this cannot lower a bound. Range checks run where values enter:
in the public functions, and once per inner solve on its parameters and
bracket; the objectives then run on unchecked kernels, as no solve point
leaves its bracket.
Every solve passes _resolved_max and _sampled_minimize module-level functions
and its parameters in args, never in a closure, so any objective can be called
alone with explicit parameters (the outer map of _main_objective is data).
Same inputs give bit-identical results on one host; across hosts numpy's SIMD
dispatch can move last bits (with AVX-512 off, one pinned g* value by 1 ulp).

Each bound is an upper bound only if J is not too low and p = h_inv(r1) is
not too high. J is one formula in u = 1 - 2p and v = 1 - 2 eta, which are
exact near p = 1/2, so its two branches do not cancel there. h_inv only
keeps float h(p) <= r1 < float h(next float): in 40-digit arithmetic p lies
above the exact inverse for 288-366 of 400 seeded r1 per band, by up to
1,291 ulps near r1 = 1, so the float bounds can sit up to about 2e-15 below
the exact minimax, which the 6-decimal output does not show.

At the time-sharing endpoint of its outer range (alpha = 0, rho = 1/2) each
minimax bound equals the sum-rate bound 3/2 - r1, and it goes below only near
r1 = 1. Up to _MAIN_DEPARTURE (main_bound) and _UL_DEPARTURE (ul_sum_bound)
each returns that endpoint value, neither sampling nor inverting h: sound
because 3/2 - r1 is an upper bound at every r1, and there it is also the
minimax value. Both bounds are capped by simple_bound.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .entropy import (
    PROB_SLACK,
    _as_prob,
    _as_prob_array,
    _h_half,
    _integer,
    _real,
    _sum_entropy,
    binary_entropy,
    binary_entropy_inv,
)

__all__ = [
    "LOG2_3",
    "EvaluationError",
    "MAX_CURVE_STEPS",
    "sum_rate_envelope",
    "conditional_sum_envelope",
    "sum_rate_bound",
    "simple_bound",
    "weldon_bound",
    "weldon_nonsystematic_bound",
    "ul_mixture_entropy",
    "ul_sum_bound",
    "ul_bound",
    "main_bound",
    "BoundCurve",
    "curve",
]

LOG2_3 = math.log2(3.0)


class EvaluationError(RuntimeError):
    """An objective returned a non-finite value; carries the offending argument."""

    def __init__(self, argument: float, value: float):
        self.argument = argument
        self.value = value
        super().__init__(f"objective returned {value!r} at x={argument!r}")


# a fixed cap, far above any documented use: a mistyped size fails at once
# instead of allocating gigabytes or solving for hours
MAX_CURVE_STEPS = 100_000

# outer minimum: samples per pass, and resampling passes after the first;
# each pass narrows the interval by a factor of about _GRID_POINTS / 2, so
# the third pass over [0, 1/2] is spaced about 1.9e-9 apart
_GRID_POINTS = 1024
_ZOOM_PASSES = 2

# the largest r1 at which the sampled ul_sum_bound returns exactly 3/2; one
# float higher it is 2.9e-8 lower (tests/test_bounds.py)
_UL_DEPARTURE = 0.9994783125464713

# h(p*) rounded down to a float, where p* = 0.44955626347567368 is the root
# of main's outer slope at alpha = 0 (see main_bound); below it the slope is
# positive and the minimum is the endpoint value (tests/test_bounds.py
# derives it in mpmath)
_MAIN_DEPARTURE = 0.9926454154151924

# _resolved_max's Newton stopping width and probe distance, in floats
_ULPS = 16

# _resolved_max's cut of an outer minimum's samples: the margin above the
# least value at the Newton iterates within which a sample is finished; a
# bound on how far f at any point of a bracket can exceed the bracket's
# finished max through rounding (a few 1e-16 on these objectives, near 3/2);
# and the share of samples still in Newton (1 in _CUT_LIVE) at which the cut
# is made: at r1 = 1 it skips main's last 4 first-pass rounds, which
# serve 103 of its 1,024 samples, none near the minimum
_CUT_MARGIN = 2e-14
_ROUNDING = 1e-14
_CUT_LIVE = 8


def _checked(v, x) -> np.ndarray:
    v = np.asarray(v, dtype=float)  # an objective's values at the points x
    if np.isfinite(v).all():
        return v
    i = int(np.argmax(~np.isfinite(v)))
    raise EvaluationError(float(x.flat[i]), float(v.flat[i]))


def _inside(step, a, b):
    # step strictly inside its bracket of bit patterns [a, b]; if not finite, the midpoint
    inner = np.minimum(np.maximum(step, (a + 1).view(float)), (b - 1).view(float))
    return np.where(np.isfinite(step), inner, 0.5 * (a.view(float) + b.view(float)))


def _resolved_max(f, g, gdg, lo, hi, x0=math.nan, args=(), outer=None):
    """The max of f on every bracket [lo, hi] of an array, at once, where f
    rises while g > 0 and never rises after: f at the better of two adjacent
    floats across g's sign change, and the lower of the two. f, g and gdg are
    module-level functions of (x, *args), every parameter in args; lo, hi, x0
    and each of args broadcast together, one element per bracket; a
    degenerate bracket stays as it is.

    Every round asks g at one point per bracket and moves lo there where
    g > 0, else hi, so the sign change never leaves [lo, hi]; the rounds
    differ only in the point. First a safeguarded Newton from x0 on
    gdg(x) = (g(x), g'(x)): each iterate is kept strictly inside its
    bracket, and a non-finite one becomes the midpoint, so x0 and g' set
    only the pace. A bracket stops once its step is at most _ULPS floats
    (so once its width is, as the last iterate is an end), as Newton would
    cycle in g's rounding noise (all stop within 64 rounds). Then, while a
    bracket is wider, g is probed _ULPS floats either side of the last
    iterate, and the int64 bit patterns of the ends, which order nonnegative
    floats like their values, are halved until the ends are adjacent floats:
    at most 64 halvings. Each bracket's path depends on it alone.

    With outer, the brackets are the samples of an outer minimum, in order,
    and outer(v) maps a whole array of inner values to outer values. Only
    the samples that can still be the minimum are finished. Once at most
    1 in _CUT_LIVE brackets is still in Newton, each sample's outer value
    is read at its current iterate. The samples within _CUT_MARGIN of the
    least of these among the brackets out of Newton, and their neighbours,
    finish their Newton rounds, probes and halvings; the others are left
    at +inf, with their iterate as root. f at any point of a bracket
    exceeds its finished max by at most _ROUNDING, so a left sample whose
    value at the iterate lies more than _ROUNDING above the least finished
    one is not the minimum. Where that fails for some left sample, or
    where the least finished sample has a neighbour left, every bracket is
    finished. A left sample is never a value, so the cut cannot lower a
    minimum; where it holds, the minimum and its neighbours' values and
    roots are the full solve's.

    Raises:
        ValueError: on a negative, non-finite or reversed bracket.
        EvaluationError: where f is not finite at an end, or with outer at
            an iterate.
    """
    a, b, *args = np.broadcast_arrays(lo, hi, *args)
    a, b = np.array(a + 0.0), np.array(b + 0.0)  # + 0.0 turns -0.0 into 0.0
    if not ((0.0 <= a) & (a <= b) & (b < math.inf)).all():
        raise ValueError(f"bad bracket [{lo!r}, {hi!r}]")
    a, b = a.view(np.int64), b.view(np.int64)

    def moved(p, gp, live, a, b):
        # the live brackets' ends, lo moved to p where g(p) > 0 and hi where not
        up = gp > 0.0
        return np.where(live & up, p, a), np.where(live & ~up, p, b)

    done = b - a <= _ULPS
    x = np.where(done, 0.5 * (a.view(float) + b.view(float)), _inside(x0, a, b))

    def newton(rounds, stop=0):
        # Newton rounds on the brackets not done, at most rounds of them,
        # while more than stop are live; returns how many ran
        nonlocal a, b, x, done
        ran = 0
        with np.errstate(all="ignore"):
            while ran < rounds and (~done).sum() > stop:
                (gx, dgx), xi = gdg(x, *args), x.view(np.int64)
                a, b = moved(xi, gx, ~done, a, b)
                x = np.where(done, x, _inside(x - gx / dgx, a, b))
                done = done | (np.abs(x.view(np.int64) - xi) <= _ULPS)
                ran += 1
        return ran

    def finished(i):
        # the brackets i, from their last iterates: probes, halvings, then f at both ends
        ai, bi, sub = a[i], b[i], [v[i] for v in args]
        probes = [x[i].view(np.int64) + d for d in (-_ULPS, _ULPS)]
        while (live := bi - ai > 1).any():
            p = np.where(live, np.clip(probes.pop(0), ai + 1, bi - 1), ai) if probes else ai + (bi - ai) // 2
            ai, bi = moved(p, g(p.view(float), *sub), live, ai, bi)
        lo, hi = ai.view(float), bi.view(float)
        return np.maximum(_checked(f(lo, *sub), lo), _checked(f(hi, *sub), hi)), lo

    ran = 0
    if outer is not None:
        ran = newton(64, x.size // _CUT_LIVE)
        rough = outer(_checked(f(x, *args), x))
        near = rough <= (rough[done] if done.any() else rough).min() + _CUT_MARGIN
        keep = np.convolve(near, (1, 1, 1))[1:-1] > 0
        left = ~done & ~keep  # still in Newton, and left
        done = done | ~keep
        newton(64 - ran)
        v, root = np.full(x.shape, math.inf), x.copy()
        v[keep], root[keep] = finished(keep)
        least = outer(v)
        i = int(np.argmin(least))
        if keep[max(i - 1, 0) : i + 2].all() and (rough[~keep] > least[i] + _ROUNDING).all():
            return v, root
        done = ~left  # the cut failed: finish every bracket
    newton(64 - ran)
    return finished(...)


def _sampled_minimize(f, lo: float, hi: float, args=()):
    # min of f on [lo, hi] from _GRID_POINTS samples, resampled across the best
    # sample's two neighbouring cells, with its argmin and the inner roots
    # there. f is a module-level function: f(xs, *args, *starts) returns its
    # values at xs, +inf where a sample cannot be the minimum, and the roots
    # of its inner solves, which start at the previous pass's roots
    best, xs, starts = (math.inf,), np.linspace(lo, hi, _GRID_POINTS), ()
    for _ in range(_ZOOM_PASSES + 1):
        vals, roots = f(xs, *args, *starts)
        solved = vals != math.inf
        _checked(vals[solved], xs[solved])
        i = int(np.argmin(vals))
        if vals[i] < best[0]:
            best = float(vals[i]), float(xs[i]), tuple(float(r[i]) for r in roots)
        zoom = np.linspace(xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)], _GRID_POINTS)
        xs, starts = zoom, [np.interp(zoom, xs, r) for r in roots]
    return best


def _dh(x):
    # h'(x) = log2((1 - x)/x) element-wise, +inf at x = 0
    with np.errstate(divide="ignore", over="ignore"):
        return np.log2((1.0 - x) / x)


def _xlog2(k, m):
    # k log2(m) element-wise, 0 where k = 0 (0 log 0 = 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(k == 0.0, 0.0, k * np.log2(m))


def _l_kernel(e):
    # a 0-d e becomes a scalar, so h takes its math.log2 path, as after the clamp
    return _h_half(e[()]) + 1.0 - e


def sum_rate_envelope(eta):
    """L(eta) = h(eta) + 1 - eta on [0, 1/2]: the largest sum rate compatible
    with sum-variable disagreement probability eta. Peaks at log2(3) at
    eta = 1/3. Element-wise over arrays."""
    return _l_kernel(_as_prob_array(eta, "eta", 0.5))[()]


def _j_w(e, u):
    # J(p, e) with u = 1 - 2p, in v = 1 - 2e: both lines of the envelope are
    # 2 h((1 - w)/2) - (1 - w^2)/2, with w = sqrt(v) on the first, where
    # e >= 2p(1 - p) = (1 - u^2)/2, i.e. sqrt(v) <= u, and w = (v + u^2)/(2u)
    # on the second; they meet at v = u^2. The second needs w <= 1 (_check_w;
    # J clips w to 1), and at p = 1/2 (u = 0) below e = 1/2 it has w = inf
    v = 1.0 - 2.0 * e
    r = np.sqrt(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(r <= u, r, (v + u * u) / (2.0 * u))


def _check_w(w):
    # w falls as e rises, so a solve checks only its bracket's low end
    if (w > 1.0 + 2.0 * PROB_SLACK).any():
        raise ValueError("eta below the valid range of the second branch")
    return w


def _j_of_w(w):
    w = np.minimum(w, 1.0)
    # h's array path even for a 0-d w, so scalar and array J agree bit for bit
    return 2.0 * _h_half(np.asarray(0.5 * (1.0 - w))) - 0.5 * (1.0 - w * w)


def _j_kernel(e, u):
    return _j_of_w(_j_w(e, u))


def conditional_sum_envelope(p, eta):
    """J(p, eta): upper envelope of the conditional sum entropy H(X1+X2|U)
    over joints with P(X1 != X2) = eta and H(X1|U) >= h(p).

    Two branches split at eta = p*p (binary convolution of p with itself);
    they agree at the boundary. Both are computed by one formula in
    u = 1 - 2p and v = 1 - 2 eta, which are exact for p, eta >= 1/4, so J
    keeps full precision up to p = 1/2. p and eta broadcast together
    element-wise.
    """
    p, e = np.broadcast_arrays(_as_prob_array(p, "p", 0.5), _as_prob_array(eta, "eta", 0.5))
    return _j_of_w(_check_w(_j_w(e, 1.0 - 2.0 * p)))[()]


def _sum_rate_objective(eta, r0, u):
    # min{L(eta), J(p, eta) + r0} on [p, 1/2], u = 1 - 2p
    return np.minimum(_l_kernel(eta), _j_kernel(eta, u) + r0)


def _sum_rate_gdg(eta, r0, u):
    # g = L - J(p, .) - r0 and g' from one w: L' = h'(eta) - 1, and
    # J' = (2 artanh(w)/ln2 - w)/d, as dJ/dw = w - 2 artanh(w)/ln2 and
    # dw/deta = -1/d, d = w on J's first branch and u on its second, i.e.
    # d = min(w, u); at eta = 1/2, where w = 0, J' tends to 2/ln2 - 1
    w = np.minimum(_j_w(eta, u), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        dj = (2.0 * np.arctanh(w) / math.log(2.0) - w) / np.minimum(w, u)
    dg = _dh(eta) - 1.0 - np.where(w > 0.0, dj, 2.0 / math.log(2.0) - 1.0)
    return _l_kernel(eta) - _j_of_w(w) - r0, dg


def _sum_rate_sign(eta, r0, u):
    # g = L - J(p, .) - r0, u = 1 - 2p
    return _l_kernel(eta) - _j_kernel(eta, u) - r0


def _sum_rate_max(r0, p, eta0=math.nan, outer=None):
    # R_sigma with p = h_inv(r1) given, and its eta; r0, p and Newton's start
    # eta0 broadcast together, and outer is _resolved_max's. L rises up to 1/3
    # and falls after, and J(p, .) never falls on [p, 1/2], so the max lies on
    # [max(p, 1/3), 1/2], where L - J - r0 falls: at its sign change, or at an end
    p = _as_prob_array(p, "p", 0.5)  # the solve's checks: [p, 1/2] in [0, 1/2], and w
    u, lo = 1.0 - 2.0 * p, np.maximum(p, 1.0 / 3.0)
    _check_w(_j_w(lo, u))
    return _resolved_max(_sum_rate_objective, _sum_rate_sign, _sum_rate_gdg, lo, 0.5, eta0, (r0, u), outer)


def sum_rate_bound(r0: float, r1: float) -> float:
    """R_sigma(r0, r1): max over eta in [h_inv(r1), 1/2] of
    min{L(eta), J(h_inv(r1), eta) + r0}.

    Bounds the total rate r0 + r1 + r2 of any multiset-union-free system whose
    first-family rate is r1 and pair-index rate is r0. Always in
    [3/2, log2(3)]; equals exactly 3/2 at r0 = 0.
    """
    if not (r0 := _real(r0, "r0")) >= 0.0:
        raise ValueError(f"r0={r0!r} must be nonnegative")
    p = binary_entropy_inv(_as_prob(r1, "r1"))
    return float(_sum_rate_max(r0, p)[0])


def simple_bound(r1: float) -> float:
    """r2 <= 3/2 - r1: the classical sum-rate bound, floored at 0."""
    return max(1.5 - _as_prob(r1, "r1"), 0.0)


def weldon_bound(r1: float) -> float:
    """r2 <= (1 - r1) log2(3), for systematic first families; clamped to [0,1]."""
    return min(max((1.0 - _as_prob(r1, "r1")) * LOG2_3, 0.0), 1.0)


def weldon_nonsystematic_bound(r1: float) -> float:
    """r2 <= (1 - h_inv(r1)) log2(3), dropping the systematic requirement;
    clamped to [0,1]. Looser than the sum-rate bound everywhere."""
    return min(max((1.0 - binary_entropy_inv(_as_prob(r1, "r1"))) * LOG2_3, 0.0), 1.0)


def _mixture_slope(beta, r):
    # dH/dbeta of the pmf (a, b, c) of ul_mixture_entropy:
    # (1-rho) log2 a - (1-2rho) log2 b - rho log2 c
    a, b, c = (1.0 - r) * (1.0 - beta), r * (1.0 - beta) + (1.0 - r) * beta, r * beta
    return _xlog2(1.0 - r, a) - _xlog2(1.0 - 2.0 * r, b) - _xlog2(r, c)


def _mixture_gdg(beta, r):
    # _mixture_slope and its derivative -[(1-rho)^2/a + (1-2rho)^2/b + rho^2/c]/ln2,
    # with (1-rho)^2/a = (1-rho)/(1-beta) and rho^2/c = rho/beta, finite inside (0, 1)
    with np.errstate(divide="ignore", over="ignore"):
        s = (1.0 - r) / (1.0 - beta) + (1.0 - 2.0 * r) ** 2 / (r + (1.0 - 2.0 * r) * beta) + r / beta
    return _mixture_slope(beta, r), -s / math.log(2.0)


def _mixture_max(rho, beta0=math.nan):
    # g*(rho) and its beta, from beta0; the pmf is linear in beta, so its entropy is concave
    r = _as_prob_array(rho, "rho", 0.5)
    return _resolved_max(_sum_entropy, _mixture_slope, _mixture_gdg, np.zeros_like(r), 1.0, beta0, (r,))


def ul_mixture_entropy(rho):
    """g*(rho) = max over beta in [0,1] of the entropy of the ternary pmf
    ((1-rho)(1-beta), rho(1-beta) + (1-rho)beta, rho*beta). Element-wise
    over arrays of rho."""
    return _mixture_max(rho)[0][()]


def _ul_objective(kappa, rho, g, p1, h_rho):
    # h(<1 - p1 - kappa>) - h(rho) + min{g, <rho+kappa> + h(<rho+kappa>)},
    # concave in kappa on [0, 1 - p1]
    b = np.minimum(rho + kappa, 0.5)
    first = _h_half(np.clip(1.0 - p1 - kappa, 0.0, 0.5))
    return first - h_rho + np.minimum(g, b + _h_half(b))


def _kink_objective(b, g, rho, p1, h_rho):
    # _ul_objective in b = rho + kappa
    return _ul_objective(b - rho, rho, g, p1, h_rho)


def _kink(b, g, *_):
    # the kink residual g* - (b + h(b)), falling in b
    return g - (b + _h_half(b))


def _kink_gdg(b, g, *_):
    # _kink and its derivative -1 - h'(b)
    return _kink(b, g), -1.0 - _dh(b)


def _ul_inner_max(rho, p1: float, beta0=math.nan, b0=math.nan):
    # max over kappa of _ul_objective in b = rho + kappa on [rho, 1/2], past
    # which it never rises, and the roots (beta, b) of its solves, from
    # (beta0, b0). Below the kink b + h(b) = g* its slope is positive up to the
    # smaller root of b^2 - (c + 3) b + 2c, c = 1 - p1 + rho, which lies above
    # the kink (tests/test_bounds.py); past it it never rises: the max is there
    (g, beta), h_rho = _mixture_max(rho, beta0), binary_entropy(rho)
    v, b = _resolved_max(_kink_objective, _kink, _kink_gdg, rho, 0.5, b0, (g, rho, p1, h_rho))
    return v, (beta, b)


def ul_sum_bound(r1: float) -> float:
    """The Urbanke-Li bound on the sum rate r1 + r2:

    min over rho in [0,1/2] of max over kappa in [0,1] of
        h(<1 - h_inv(r1) - kappa>) - h(rho)
        + min{ g*(rho), <rho+kappa> + h(<rho+kappa>) }

    where <a> = min(a, 1/2).

    The kappa-maximum is exactly 3/2 at rho = 1/2 and never rises with r1
    (each kappa-objective is nonincreasing in h_inv(r1)), so the minimum is
    3/2 on an interval of r1 from 0; up to _UL_DEPARTURE, where the sampled
    minimum is still 3/2, this returns 3/2 without sampling.
    """
    r1c = _as_prob(r1, "r1")
    if r1c <= _UL_DEPARTURE:
        return 1.5
    p1 = binary_entropy_inv(r1c)
    return _sampled_minimize(_ul_inner_max, 0.0, 0.5, (p1,))[0]


def ul_bound(r1: float) -> float:
    """The r2 value implied by the Urbanke-Li sum bound: ul_sum_bound(r1) - r1,
    clamped to [0, 1] and capped by simple_bound.

    Note this is a bound on the sum converted to a bound on r2; at r1 = 1 it
    evaluates to about 0.492.
    """
    r1c = _as_prob(r1, "r1")
    return min(max(ul_sum_bound(r1c) - r1c, 0.0), 1.0, 1.5 - r1c)


def _main_objective(alpha, p1: float, eta0=math.nan):
    # +inf at the alpha that cannot be the minimum (see _resolved_max), and
    # r_sigma's eta, from eta0. ratio = h_inv(Gamma) lies in [0, p1] for
    # alpha in [0, p1], so no singularity (alpha <= 1/2 < 1); r_sigma takes it
    ratio = np.clip((p1 - alpha) / (1.0 - alpha), 0.0, 0.5)
    gamma = _h_half(ratio)
    outer = lambda r_sigma: (1.0 - alpha) * (r_sigma - gamma)
    r_sigma, eta = _sum_rate_max(alpha / (1.0 - alpha), ratio, eta0, outer)
    return outer(r_sigma), (eta,)


def main_bound(r1: float) -> float:
    """The envelope bound on r2:

    min over alpha in [0, h_inv(r1)] of
        (1 - alpha) * (r_sigma(alpha/(1-alpha), Gamma) - Gamma),
    Gamma = h((h_inv(r1) - alpha)/(1 - alpha)).

    Clamped to [0, 1] and capped by simple_bound. Strictly below ul_bound near
    r1 = 1 (about 0.4798 at r1 = 1 versus 0.492).

    At alpha = 0 the objective equals 3/2 - h(h_inv(r1)), as
    r_sigma(0, .) = 3/2, and its slope there is
    ln2/2 + (1 - p) log2((1 - p)/p) - (3/2 - h(p)) with p = h_inv(r1),
    positive up to r1 of about 0.9926, where the minimum sits at alpha = 0.
    Up to _MAIN_DEPARTURE, the r1 of that slope's root rounded down, this
    returns simple_bound(r1), clamped to 1, without sampling: the sum-rate
    bound holds at every r1. Above it the minimum is sampled, and every
    sample is an upper bound.
    """
    r1c = _as_prob(r1, "r1")
    if r1c <= _MAIN_DEPARTURE:
        return min(1.5 - r1c, 1.0)
    p1 = binary_entropy_inv(r1c)
    v = _sampled_minimize(_main_objective, 0.0, p1, (p1,))[0]
    return min(max(v, 0.0), 1.0, 1.5 - r1c)


@dataclass(frozen=True)
class BoundCurve:
    """Rows of (r1, simple, ul, main), r1 strictly increasing."""

    rows: Tuple[Tuple[float, float, float, float], ...]

    def __post_init__(self):
        rows = tuple(tuple(float(x) for x in row) for row in self.rows)
        for row in rows:
            if len(row) != 4:
                raise ValueError(f"row {row!r} does not have 4 columns")
            if not all(map(math.isfinite, row)):
                raise ValueError(f"non-finite value in row {row!r}")
            if any(x < 0.0 for x in row[1:]):
                raise ValueError(f"negative bound in row {row!r}")
        r1s = [row[0] for row in rows]
        if any(b <= a for a, b in zip(r1s, r1s[1:])):
            raise ValueError("r1 column must be strictly increasing")
        object.__setattr__(self, "rows", rows)

    def to_csv(self) -> str:
        """Serialize with header r1,simple,ul,main, 6 decimal digits."""
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["r1", "simple", "ul", "main"])
        for r1, s, u, m in self.rows:
            w.writerow([f"{r1:.6f}", f"{s:.6f}", f"{u:.6f}", f"{m:.6f}"])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "BoundCurve":
        rdr = csv.reader(io.StringIO(text))
        header = next(rdr, None)
        if header != ["r1", "simple", "ul", "main"]:
            raise ValueError(f"unexpected CSV header {header!r}")
        rows = []
        for rec in rdr:
            if not rec:
                continue
            if len(rec) != 4:
                raise ValueError(f"unexpected CSV row {rec!r}")
            rows.append(tuple(float(x) for x in rec))
        return cls(tuple(rows))


def curve(r1_lo: float, r1_hi: float, steps: int) -> BoundCurve:
    """Evaluate simple_bound, ul_bound and main_bound on a uniform r1 grid."""
    r1_lo, r1_hi, steps = _real(r1_lo, "r1_lo"), _real(r1_hi, "r1_hi"), _integer(steps, "steps")
    if not 0.0 <= r1_lo < r1_hi <= 1.0 + PROB_SLACK:
        raise ValueError(f"bad range [{r1_lo!r}, {r1_hi!r}]")
    if not 2 <= steps <= MAX_CURVE_STEPS:
        raise ValueError(f"steps={steps} outside [2, {MAX_CURVE_STEPS}]")
    r1s = np.linspace(r1_lo, min(r1_hi, 1.0), steps)
    if not (np.diff(r1s) > 0.0).all():
        raise ValueError(f"r1 grid of {steps} steps over [{r1_lo!r}, {r1_hi!r}] does not strictly increase")
    rows = ((r1, simple_bound(r1), ul_bound(r1), main_bound(r1)) for r1 in r1s.tolist())
    return BoundCurve(tuple(rows))
