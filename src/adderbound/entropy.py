"""Entropy primitives, all in bits, and the package's argument readers.

Scalar arguments take a fast pure-math path; numpy arrays are handled
element-wise. Probabilities are validated with a small slack (1e-12) so that
accumulated rounding never trips a domain check, but anything further outside
[0, 1] is treated as a caller bug and raises ValueError.

Every public numeric argument of the package is read once, on entry, by one
reader per kind, all defined here: _integer, _real, _as_prob (a real clamped
into [0, hi]) and _as_prob_array (its element-wise twin). The scalar ones
reject bools, and each raises a one-line ValueError naming the parameter.
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import Sequence, Tuple, Union

import numpy as np

__all__ = [
    "PROB_SLACK",
    "binary_entropy",
    "binary_entropy_inv",
    "binary_convolve",
    "entropy",
]

PROB_SLACK = 1e-12

ArrayLike = Union[float, np.ndarray]


def _integer(x, what: str) -> int:
    """x as an int, for any integer type but bool."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError(f"{what} {x!r} is not an integer")


def _real(x, name: str) -> float:
    """x as a float, for any real type but bool. A float skips the slow
    numbers.Real test."""
    if isinstance(x, float) or isinstance(x, numbers.Real) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:
            raise ValueError(f"{name} is outside the float range") from None
    raise ValueError(f"{name}={x!r} is not a real number")


def _as_prob(p, name: str = "p", hi: float = 1.0) -> float:
    """A real p as a float clamped into [0, hi], rejecting anything beyond the slack."""
    if type(p) is not float:
        p = _real(p, name)
    if 0.0 <= p <= hi:
        return p
    if not -PROB_SLACK <= p <= hi + PROB_SLACK:  # NaN fails too
        raise ValueError(f"{name}={p!r} outside [0, {hi}]")
    return 0.0 if p < 0.0 else hi


def _as_prob_array(p, name: str = "p", hi: float = 1.0) -> np.ndarray:
    """Array twin of _as_prob: clamp every element into [0, hi]."""
    p = np.asarray(p, dtype=float)
    # NaN fails both comparisons
    if not ((p >= -PROB_SLACK) & (p <= hi + PROB_SLACK)).all():
        raise ValueError(f"{name} contains values outside [0, {hi}]")
    return np.minimum(np.maximum(p, 0.0), hi)


def _plogp(v) -> np.ndarray:
    """-v log2 v element-wise, with 0 log 0 = +0."""
    v = np.asarray(v, dtype=float)
    return 0.0 - v * np.log2(v, out=np.zeros(v.shape), where=v > 0.0)


def _sum_entropy(t, q) -> np.ndarray:
    """H(X + Y) for independent X ~ Bern(t), Y ~ Bern(q), element-wise, unchecked."""
    nt, nq = 1.0 - t, 1.0 - q
    return _plogp(nt * nq) + _plogp(t * nq + q * nt) + _plogp(t * q)


def _h_half(q: ArrayLike) -> ArrayLike:
    """h(q) for q in [0, 1/2], unchecked; by math.log2 unless q is an ndarray."""
    r = 1.0 - q
    if not isinstance(q, np.ndarray):
        return -q * math.log2(q) - r * math.log2(r) if q > 0.0 else 0.0
    return _plogp(q) - r * np.log2(r)  # r >= 1/2: no zero guard; bits of + _plogp(r)


def binary_entropy(p: ArrayLike) -> ArrayLike:
    """h(p) = -p log2 p - (1-p) log2 (1-p), with h(0) = h(1) = 0."""
    if isinstance(p, np.ndarray):
        q = _as_prob_array(p)
        return _h_half(np.asarray(np.minimum(q, 1.0 - q)))  # a 0-d q stays an array
    q = _as_prob(p)
    # canonicalize to the smaller argument: 1-q is exact for q >= 1/2
    # (Sterbenz), which makes h(p) and h(1-p) agree to the last few ulps
    return _h_half(1.0 - q if q > 0.5 else q)


def _bisection_cell(a: float, b: float) -> Tuple[float, float]:
    """The cell (lo, hi) of the bisection of [0, 1/2] whose midpoint is the
    first to fall in [a, b], for floats 0 < a <= b < min(2a, 1/2).

    That midpoint is the dyadic rational of least denominator in [a, b]: the
    integer with the most trailing zeros in [A, B], where A and B are a and b
    as integers in units of 2^e (both exact, as b < 2a), and lo and hi lie
    one power of two, its lowest bit, either side of it.
    """
    e = math.frexp(b)[1] - 54
    lo, hi = int(math.ldexp(a, -e)), int(math.ldexp(b, -e))
    mid = hi
    if lo < hi:
        top = (lo ^ hi).bit_length() - 1  # the highest bit where they differ
        mid = lo if lo & ((2 << top) - 1) == 0 else hi >> top << top
    half = mid & -mid
    return math.ldexp(mid - half, e), math.ldexp(mid + half, e)


def binary_entropy_inv(x: float) -> float:
    """Inverse of binary_entropy restricted to [0, 1/2], by bisection.

    Returns p with binary_entropy(p) <= x < binary_entropy(p') for p' the
    next float above p, or p = 1/2 at x = 1: the bisection keeps
    h(lo) <= x < h(hi) until lo and hi are adjacent floats (at most 1,073
    steps, at x = 5e-324) and returns lo. That holds for the float h only:
    p can lie above the exact inverse (see the bounds module docstring). The
    restriction makes the inverse single-valued; the other preimage is 1 - p.

    The bisection skips the steps whose outcome is already known. Three
    Newton steps from 0.5 (1 - sqrt(1 - x^(4/3))) place p^, and the bracket
    a = p^ (1 - 2^-40), b = p^ (1 + 2^-40) is taken when h(a) <= x - m and
    h(b) >= x + m, with m = 2^-48 (1 + x). With u = 2^-53 and math.log2
    within one ulp, the loop's float h is within E(y) = 2^-50 h(y) + 2^-51
    of h(y) on (0, 1/2]: the log2s, products and difference add at most
    4.1u h(y), and rounding 1 - y moves the second term by at most
    (0.5 + 1/ln 2) u < 2u. m is more than twice E at h(y) <= x + m, and h rises
    on [0, 1/2], so every midpoint below a compares <= x and every one above
    b compares > x. Up to its first midpoint inside [a, b], the loop would
    walk the cells that hold [a, b]; it starts at that cell instead
    (_bisection_cell) and returns the same bits. As p h'(p) <= h(p), h(b) -
    h(a) is at most about 2^-39 x, below 2m for x <= 2^-8; there, and
    where the check fails, the bisection starts from [0, 1/2].
    """
    if not -PROB_SLACK <= (x := _real(x, "x")) <= 1.0 + PROB_SLACK:  # NaN fails too
        raise ValueError(f"entropy value {x!r} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 0.5
    lo, hi, log2 = 0.0, 0.5, math.log2
    if x > 2.0**-8:
        p = 0.5 * (1.0 - math.sqrt(1.0 - x ** (4.0 / 3.0)))
        for _ in range(3):
            if 0.0 < p < 0.5:  # _h_half(p) inline
                p -= (-p * log2(p) - (1.0 - p) * log2(1.0 - p) - x) / log2((1.0 - p) / p)
        a, b, m = p * (1.0 - 2.0**-40), p * (1.0 + 2.0**-40), 2.0**-48 * (1.0 + x)
        if 0.0 < a and b < 0.5 and _h_half(a) <= x - m and _h_half(b) >= x + m:
            lo, hi = _bisection_cell(a, b)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if -mid * log2(mid) - (1.0 - mid) * log2(1.0 - mid) <= x:  # _h_half(mid) inline
            lo = mid
        else:
            hi = mid
    return lo


def binary_convolve(p: ArrayLike, q: ArrayLike) -> ArrayLike:
    """p * q = p(1-q) + q(1-p): the probability two independent bits differ."""
    if isinstance(p, np.ndarray) or isinstance(q, np.ndarray):
        pa = _as_prob_array(p, "p")
        qa = _as_prob_array(q, "q")
        return pa * (1.0 - qa) + qa * (1.0 - pa)
    pf = _as_prob(p, "p")
    qf = _as_prob(q, "q")
    return pf * (1.0 - qf) + qf * (1.0 - pf)


def entropy(pmf: Sequence[float]) -> float:
    """Shannon entropy (bits) of a finite pmf.

    The masses must be nonnegative and sum to 1 within 1e-12.
    """
    total = acc = 0.0
    empty = True
    for m in pmf:
        empty = False
        if type(m) is not float or not 0.0 <= m <= 1.0:  # a float in [0, 1] is its own _as_prob
            m = _as_prob(m, "mass")
        total += m
        if m > 0.0:
            acc -= m * math.log2(m)
    if empty:
        raise ValueError("empty pmf")
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"pmf sums to {total!r}, not 1")
    return acc
