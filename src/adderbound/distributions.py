"""Auxiliary-variable joints over pairs of bits and their entropy envelopes.

The converse arguments behind the sum-rate bounds reason about a finite
auxiliary variable U and two bits X1, X2 that are independent given U. This
module provides that joint as a concrete object, the entropy triplet
(H(X1+X2), H(X1+X2|U), H(X1|U)) it induces, the mirroring construction that
makes X1 uniform without losing conditional entropy, and the closed-form
envelopes that turn second-moment information into entropy bounds.

Everything is numeric and stateless, on plain floats: a joint holds a few
tuples of floats, and its marginals and entropies are math.fsum sums over
them. See bounds for the optimization layer that consumes these envelopes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Tuple

from .entropy import (
    PROB_SLACK,
    _as_prob,
    _h_half,
    _real,
    binary_entropy,
    binary_entropy_inv,
    entropy,
)
from .systems import UnionFreeSystem

__all__ = [
    "InfeasibleRateError",
    "AuxBinaryJoint",
    "EntropyTriplet",
    "entropy_triplet",
    "bernoulli_sum_entropy",
    "quad_entropy_envelope",
    "entropy_at_variance",
    "symmetrize",
    "attaining_joint",
    "moment_ratio_floor",
    "cond_envelope_via_moments",
    "joint_from_system",
]

_LOG2_3 = math.log2(3.0)


class InfeasibleRateError(ValueError):
    """Raised when a disagreement probability is below what the rate allows."""


@dataclass(frozen=True)
class AuxBinaryJoint:
    """Joint law of (U, X1, X2) with X1 and X2 independent bits given U.

    u_masses is the pmf of the finite auxiliary variable; t[i] and q[i] are
    P(X1 = 1 | U = i) and P(X2 = 1 | U = i).
    """

    u_masses: Tuple[float, ...]
    t: Tuple[float, ...]
    q: Tuple[float, ...]

    def __post_init__(self) -> None:
        masses = tuple(_as_prob(v, "mass") for v in self.u_masses)
        if not masses:
            raise ValueError("empty auxiliary support")
        if len(self.t) != len(masses) or len(self.q) != len(masses):
            raise ValueError("t and q must match the auxiliary support")
        if abs(sum(masses) - 1.0) > 1e-9:
            raise ValueError(f"u_masses sum to {sum(masses)!r}, not 1")
        object.__setattr__(self, "u_masses", masses)
        object.__setattr__(self, "t", tuple(_as_prob(v, "t") for v in self.t))
        object.__setattr__(self, "q", tuple(_as_prob(v, "q") for v in self.q))

    @classmethod
    def _trusted(cls, u_masses, t, q) -> "AuxBinaryJoint":
        """A joint of float tuples that __post_init__ would keep as they are: one
        mass, t and q per u, each in [0, 1], masses summing to 1 within 1e-9; no checks."""
        d = object.__new__(cls)
        for name, v in (("u_masses", u_masses), ("t", t), ("q", q)):
            object.__setattr__(d, name, v)
        return d

    @property
    def support_size(self) -> int:
        return len(self.u_masses)

    @property
    def x1_marginal(self) -> float:
        """P(X1 = 1)."""
        return math.fsum(map(operator.mul, self.u_masses, self.t))

    @property
    def x2_marginal(self) -> float:
        return math.fsum(map(operator.mul, self.u_masses, self.q))

    @property
    def mismatch_probability(self) -> float:
        """P(X1 != X2), averaging the per-u convolution t(1-q) + q(1-t)."""
        return math.fsum(
            m * (t * (1.0 - q) + q * (1.0 - t)) for m, t, q in zip(self.u_masses, self.t, self.q)
        )

    def sum_pmf(self) -> Tuple[float, float, float]:
        """Marginal pmf of X1 + X2 over {0, 1, 2}."""
        cells = tuple(zip(self.u_masses, self.t, self.q))
        p0 = math.fsum(m * ((1.0 - t) * (1.0 - q)) for m, t, q in cells)
        p2 = math.fsum(m * (t * q) for m, t, q in cells)
        return p0, max(1.0 - p0 - p2, 0.0), p2


@dataclass(frozen=True)
class EntropyTriplet:
    """H(X1+X2), H(X1+X2|U) and H(X1|U) in bits for one auxiliary joint."""

    hs: float
    hs_cond: float
    h1_cond: float

    def __post_init__(self) -> None:
        for name in ("hs", "hs_cond", "h1_cond"):
            v = _real(getattr(self, name), name)
            if not -1e-9 <= v <= _LOG2_3 + 1e-9:  # NaN fails too
                raise ValueError(f"{name}={v!r} outside [0, log2(3)]")
            object.__setattr__(self, name, v)
        # conditioning can only lose entropy
        if self.hs_cond > self.hs + 1e-12:
            raise ValueError("hs_cond exceeds hs")

    def as_tuple(self) -> Tuple[float, float, float]:
        return self.hs, self.hs_cond, self.h1_cond


def entropy_triplet(d: AuxBinaryJoint) -> EntropyTriplet:
    """Evaluate the three entropies of an auxiliary joint.

    The conditional sum entropy averages, over u, the entropy of the
    three-point pmf (P(both 0), P(exactly one), P(both 1)); the conditional
    first-bit entropy averages h(t_u).
    """
    hs_cond = []
    h1_cond = []
    for m, t, q in zip(d.u_masses, d.t, d.q):
        nt, nq = 1.0 - t, 1.0 - q
        hs_cond.append(m * entropy((nt * nq, t * nq + q * nt, t * q)))
        h1_cond.append(m * _h_half(min(t, nt)))
    return EntropyTriplet(entropy(d.sum_pmf()), math.fsum(hs_cond), math.fsum(h1_cond))


def bernoulli_sum_entropy(y: float, z: float) -> float:
    """Entropy in bits of X + Y for independent X ~ Bern(y), Y ~ Bern(z).

    Closed form h(y) + h(z) - (y*z) h(y(1-z)/(y*z)), with * the binary
    convolution and the last term read as 0 when y*z = 0. Symmetric in its
    arguments and jointly concave in (y, z).
    """
    yf = _as_prob(y, "y")
    zf = _as_prob(z, "z")
    hyz = _h_half(min(yf, 1.0 - yf)) + _h_half(min(zf, 1.0 - zf))
    only_y = yf * (1.0 - zf)
    conv = only_y + zf * (1.0 - yf)
    if conv <= 0.0:
        return hyz
    ratio = only_y / conv  # in [0, 1]: a rounded sum of nonnegatives is no less than either
    return hyz - conv * _h_half(min(ratio, 1.0 - ratio))


def quad_entropy_envelope(y: float) -> float:
    """h(1/2 + sqrt(y)) + y on [0, 1/4]: concave, decreasing from 1 to 1/4.

    The argument is a squared deviation of a probability from 1/2, which is
    how second-moment bounds enter the entropy estimates.
    """
    yc = _as_prob(y, "y", 0.25)
    return binary_entropy(min(0.5 + math.sqrt(yc), 1.0)) + yc


def entropy_at_variance(y: float) -> float:
    """h(1/2 - sqrt(y)) on [0, 1/4]: concave, decreasing from 1 to 0.

    For a zero-mean variable X on [-1/2, 1/2], concavity of this map gives
    E h(1/2 + X) <= entropy_at_variance(E X^2), the workhorse inequality for
    converting entropy constraints into variance constraints.
    """
    yc = _as_prob(y, "y", 0.25)
    return binary_entropy(max(0.5 - math.sqrt(yc), 0.0))


def symmetrize(d: AuxBinaryJoint) -> AuxBinaryJoint:
    """Mirror the auxiliary variable so that X1 becomes uniform.

    Every u splits into two halves of equal mass, one unchanged and one with
    both conditionals complemented. h and the per-u sum pmf are invariant
    under complementing, so H(X1|U), H(X1+X2|U) and P(X1 != X2) are all
    preserved, while the marginal sum pmf becomes an even mixture of itself
    and its reversal: H(X1+X2) can only grow. The output has P(X1=1) = 1/2
    and P(X1=0, X2=1) = P(X1=1, X2=0).
    """
    half = tuple(0.5 * m for m in d.u_masses)
    flip_t = tuple(1.0 - x for x in d.t)
    flip_q = tuple(1.0 - x for x in d.q)
    # halves of checked masses and complements of checked conditionals are in range
    return AuxBinaryJoint._trusted(half + half, d.t + flip_t, d.q + flip_q)


def attaining_joint(eta: float) -> AuxBinaryJoint:
    """The two-point mixture meeting the conditional sum-entropy envelope.

    U is uniform on two values; given U, each of X1 and X2 equals U flipped
    independently with probability p = (1 - sqrt(1 - 2 eta))/2, so that
    P(X1 != X2) = eta. Its triplet is (h(eta) + 1 - eta, 2 h(p) - eta, h(p)).
    """
    e = _as_prob(eta, "eta", 0.5)
    p = 0.5 * (1.0 - math.sqrt(max(1.0 - 2.0 * e, 0.0)))
    return AuxBinaryJoint((0.5, 0.5), (p, 1.0 - p), (p, 1.0 - p))


def moment_ratio_floor(mu: float, max_ex2: float) -> float:
    """max(mu / max_ex2, 1): the multiplier in the second-moment lower bound.

    For a variable X with E X^2 <= max_ex2 and a target mean square mu, any
    decomposition achieving mu must put weight ((1 + lam)^2 / lam) * mu on
    the square, with lam this ratio floored at 1.
    """
    if not (mu := _real(mu, "mu")) >= 0.0:
        raise ValueError(f"mu={mu!r} must be nonnegative")
    if not (max_ex2 := _real(max_ex2, "max_ex2")) > 0.0:
        raise ValueError(f"max_ex2={max_ex2!r} must be positive")
    return max(mu / max_ex2, 1.0)


def cond_envelope_via_moments(r1: float, eta: float) -> float:
    """Upper bound on H(X1+X2|U) from second moments alone.

    Constraints: H(X1|U) >= r1 and P(X1 != X2) = eta. Writing a, b for the
    per-u probabilities of X1 = 0 and X2 = 0, the chain bounds E(a+b)^2 from
    below through moment_ratio_floor, with the per-u deviation of (a+b)/2
    from 1/2 capped at 1/2 - h_inv(r1), then applies the concave envelope:
    result = -1/2 + 2 * quad_entropy_envelope((E(a+b)^2 - 1)/4).

    Agrees with conditional_sum_envelope(h_inv(r1), eta) on both of its
    branches. Raises InfeasibleRateError when eta < h_inv(r1), which no
    joint can achieve.
    """
    r1c = _as_prob(r1, "r1")
    e = _as_prob(eta, "eta", 0.5)
    p1 = binary_entropy_inv(r1c)
    if e < p1 - PROB_SLACK:
        raise InfeasibleRateError(
            f"eta={e!r} below the feasible floor {p1!r} for r1={r1c!r}"
        )
    mu = 0.25 - 0.5 * e
    gap = 0.5 - p1
    max_ex2 = gap * gap
    if max_ex2 <= 0.0 or mu <= 0.0:
        lam = 1.0
    else:
        lam = moment_ratio_floor(mu, max_ex2)
    ex2_lb = 1.0 + ((1.0 + lam) ** 2 / lam) * mu
    y = min(max(0.25 * (ex2_lb - 1.0), 0.0), 0.25)
    return -0.5 + 2.0 * quad_entropy_envelope(y)


def joint_from_system(u: UnionFreeSystem) -> AuxBinaryJoint:
    """Empirical auxiliary joint of a union-free system.

    U ranges uniformly over (pair index, coordinate); given U = (i, c), X1 is
    the c-th bit of a uniform member of the i-th first family and X2 the same
    for the second family. For a valid system the rate triple satisfies
    r0 + r1 + r2 <= hs, r1 + r2 <= hs_cond and r1 <= h1_cond of this joint:
    sums are uniform over m0*m1*m2 distinct vectors and coordinate entropies
    are subadditive.
    """
    w = 1.0 / (u.m0 * u.n)
    masses = []
    ts = []
    qs = []
    for f1, f2 in u.pairs:
        for c in range(u.n):
            bit = 1 << c
            masses.append(w)
            ts.append(sum(1 for mask in f1.members if mask & bit) / u.m1)
            qs.append(sum(1 for mask in f2.members if mask & bit) / u.m2)
    return AuxBinaryJoint(tuple(masses), tuple(ts), tuple(qs))
