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
from typing import Sequence, Union

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


def binary_entropy_inv(x: float) -> float:
    """Inverse of binary_entropy restricted to [0, 1/2], by bisection.

    Returns p with binary_entropy(p) <= x < binary_entropy(p') for p' the
    next float above p, or p = 1/2 at x = 1: the bisection keeps
    h(lo) <= x < h(hi) until lo and hi are adjacent floats (at most 1,073
    steps, at x = 5e-324) and returns lo. Every bound that takes
    p = h_inv(r1) only rises as p falls, so this side is the sound one. The
    restriction makes the inverse single-valued; the other preimage is 1 - p.
    """
    if not -PROB_SLACK <= (x := _real(x, "x")) <= 1.0 + PROB_SLACK:  # NaN fails too
        raise ValueError(f"entropy value {x!r} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if -mid * math.log2(mid) - (1.0 - mid) * math.log2(1.0 - mid) <= x:  # _h_half(mid) inline
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
