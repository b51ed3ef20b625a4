"""Tests for auxiliary joints, entropy triplets, and the moment envelopes."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adderbound.bounds import conditional_sum_envelope, sum_rate_envelope
from adderbound.distributions import (
    AuxBinaryJoint,
    EntropyTriplet,
    InfeasibleRateError,
    attaining_joint,
    bernoulli_sum_entropy,
    cond_envelope_via_moments,
    entropy_at_variance,
    entropy_triplet,
    joint_from_system,
    moment_ratio_floor,
    quad_entropy_envelope,
    symmetrize,
)
from adderbound.entropy import (
    _sum_entropy,
    binary_convolve,
    binary_entropy,
    binary_entropy_inv,
    entropy,
)
from adderbound.families import exhaustive_pair_search, max_k_shattered
from adderbound.systems import derive_system, log3_construction, system_rates


def random_joint(rng, max_support=4):
    m = int(rng.integers(1, max_support + 1))
    return AuxBinaryJoint(
        tuple(rng.dirichlet(np.ones(m))),
        tuple(rng.uniform(0.0, 1.0, m)),
        tuple(rng.uniform(0.0, 1.0, m)),
    )


# ------------------------------------------------------------------ the types


def test_joint_validation():
    with pytest.raises(ValueError, match="empty"):
        AuxBinaryJoint((), (), ())
    with pytest.raises(ValueError, match="match"):
        AuxBinaryJoint((1.0,), (0.5, 0.5), (0.5,))
    with pytest.raises(ValueError, match="sum"):
        AuxBinaryJoint((0.4, 0.4), (0.5, 0.5), (0.5, 0.5))
    with pytest.raises(ValueError):
        AuxBinaryJoint((1.0,), (1.5,), (0.5,))


def test_joint_marginals():
    d = AuxBinaryJoint((0.5, 0.5), (0.3, 0.7), (0.1, 0.9))
    assert d.support_size == 2
    assert abs(d.x1_marginal - 0.5) < 1e-15
    assert abs(d.x2_marginal - 0.5) < 1e-15
    # 0.5*(0.3*0.9 + 0.7*0.1) + 0.5*(0.7*0.1 + 0.3*0.9) = 0.34
    assert abs(d.mismatch_probability - 0.34) < 1e-15
    p0, p1, p2 = d.sum_pmf()
    assert abs(p0 + p1 + p2 - 1.0) < 1e-12


def test_triplet_validation():
    with pytest.raises(ValueError, match="outside"):
        EntropyTriplet(2.0, 0.5, 0.5)
    with pytest.raises(ValueError, match="exceeds"):
        EntropyTriplet(0.5, 1.0, 0.5)
    t = EntropyTriplet(1.5, 1.5, 1.0)
    assert t.as_tuple() == (1.5, 1.5, 1.0)


# ------------------------------------------------------------- entropy triplet


def test_triplet_uniform_case():
    t = entropy_triplet(AuxBinaryJoint((1.0,), (0.5,), (0.5,)))
    assert t.as_tuple() == (1.5, 1.5, 1.0)


def test_triplet_deterministic_bits():
    t = entropy_triplet(AuxBinaryJoint((0.3, 0.7), (0.0, 0.0), (0.0, 0.0)))
    assert t.as_tuple() == (0.0, 0.0, 0.0)


def _numpy_reference(d):
    # the array formulas the joint used before it moved to plain floats
    m, t, q = (np.asarray(v) for v in (d.u_masses, d.t, d.q))
    p0 = float(np.dot(m, (1.0 - t) * (1.0 - q)))
    p2 = float(np.dot(m, t * q))
    pmf = (p0, max(1.0 - p0 - p2, 0.0), p2)
    hs_cond = float(np.dot(m, _sum_entropy(t, q)))
    triplet = (entropy(pmf), hs_cond, float(np.dot(m, binary_entropy(t))))
    mismatch = float(np.dot(m, binary_convolve(t, q)))
    return pmf, triplet, mismatch, float(np.dot(m, t)), float(np.dot(m, q))


def _desk_systems():
    systems = [log3_construction(3), log3_construction(6)]
    for n in (1, 2, 3):
        res = exhaustive_pair_search(n)
        mask, size = max_k_shattered(res.f1, 1)
        if 0 < size < n:
            u, _ = derive_system(res.f1, res.f2, mask, 1)
            systems.append(u)
    return systems


def test_float_joint_matches_numpy_reference():
    rng = np.random.default_rng(28)
    joints = [random_joint(rng, max_support=8) for _ in range(500)]
    assert {d.support_size for d in joints} == set(range(1, 9))
    systems = _desk_systems() + [log3_construction(9)]
    joints += [joint_from_system(u) for u in systems]
    for d in joints:
        pmf, triplet, mismatch, x1, x2 = _numpy_reference(d)
        got = (
            *d.sum_pmf(),
            *entropy_triplet(d).as_tuple(),
            d.mismatch_probability,
            d.x1_marginal,
            d.x2_marginal,
        )
        for a, b in zip(got, (*pmf, *triplet, mismatch, x1, x2)):
            assert abs(a - b) <= 1e-15, (d, got)


def test_triplet_conditioning_never_gains():
    rng = np.random.default_rng(20)
    for _ in range(300):
        t = entropy_triplet(random_joint(rng))
        assert t.hs_cond <= t.hs + 1e-12
        assert 0.0 <= t.hs <= math.log2(3.0) + 1e-12
        assert 0.0 <= t.h1_cond <= 1.0 + 1e-12


def test_triplet_matches_closed_form_sum_entropy():
    # with trivial U the conditional and marginal sum entropies coincide and
    # equal the two-Bernoulli closed form
    rng = np.random.default_rng(21)
    for _ in range(200):
        y, z = rng.uniform(0.0, 1.0, 2)
        t = entropy_triplet(AuxBinaryJoint((1.0,), (y,), (z,)))
        f = bernoulli_sum_entropy(y, z)
        assert abs(t.hs - f) < 1e-12
        assert abs(t.hs_cond - f) < 1e-12


# ------------------------------------------------------- closed-form envelopes


def _reference_sum_entropy(y, z):
    # the closed form through the public primitives, each argument read again
    conv = binary_convolve(y, z)
    if conv <= 0.0:
        return binary_entropy(y) + binary_entropy(z)
    return binary_entropy(y) + binary_entropy(z) - conv * binary_entropy(y * (1.0 - z) / conv)


def test_sum_entropy_bits_match_reference():
    rng = np.random.default_rng(29)
    ends = (0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0)
    pairs = [(float(y), float(z)) for y, z in rng.uniform(0.0, 1.0, (2000, 2))]
    pairs += [(y, z) for y in ends for z in ends]
    for y, z in pairs:
        assert bernoulli_sum_entropy(y, z).hex() == _reference_sum_entropy(y, z).hex(), (y, z)


def test_sum_entropy_values():
    assert abs(bernoulli_sum_entropy(0.5, 0.5) - 1.5) < 1e-15
    assert bernoulli_sum_entropy(1.0, 0.0) == 0.0
    assert bernoulli_sum_entropy(0.0, 0.0) == 0.0
    assert abs(bernoulli_sum_entropy(0.5, 0.0) - 1.0) < 1e-15


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_sum_entropy_symmetry(y, z):
    assert abs(bernoulli_sum_entropy(y, z) - bernoulli_sum_entropy(z, y)) < 1e-12


def test_sum_entropy_complement_invariance():
    rng = np.random.default_rng(22)
    for _ in range(100):
        y, z = rng.uniform(0.0, 1.0, 2)
        a = bernoulli_sum_entropy(y, z)
        b = bernoulli_sum_entropy(1.0 - y, 1.0 - z)
        assert abs(a - b) < 1e-12


def test_sum_entropy_jointly_concave():
    rng = np.random.default_rng(23)
    for _ in range(2000):
        y1, z1, y2, z2 = rng.uniform(0.0, 1.0, 4)
        w = rng.uniform(0.0, 1.0)
        mid = bernoulli_sum_entropy(w * y1 + (1 - w) * y2, w * z1 + (1 - w) * z2)
        avg = w * bernoulli_sum_entropy(y1, z1) + (1 - w) * bernoulli_sum_entropy(y2, z2)
        assert mid >= avg - 1e-12


def test_quad_envelope_values():
    assert abs(quad_entropy_envelope(0.0) - 1.0) < 1e-15
    assert abs(quad_entropy_envelope(0.25) - 0.25) < 1e-15
    mid = quad_entropy_envelope(0.125)
    assert mid >= 0.5 * (quad_entropy_envelope(0.0) + quad_entropy_envelope(0.25))
    with pytest.raises(ValueError):
        quad_entropy_envelope(0.3)
    with pytest.raises(ValueError):
        quad_entropy_envelope(-0.01)


def test_quad_envelope_concave_decreasing():
    ys = np.linspace(0.0, 0.25, 1000)
    vals = np.array([quad_entropy_envelope(y) for y in ys])
    assert np.all(np.diff(vals) < 0.0)
    second = np.diff(vals, 2)
    assert np.all(second <= 1e-12)


def test_variance_entropy_values():
    assert abs(entropy_at_variance(0.0) - 1.0) < 1e-15
    assert entropy_at_variance(0.25) == 0.0
    with pytest.raises(ValueError):
        entropy_at_variance(0.26)


def test_variance_entropy_concave_decreasing():
    ys = np.linspace(0.0, 0.25, 1000)
    vals = np.array([entropy_at_variance(y) for y in ys])
    assert np.all(np.diff(vals) < 0.0)
    assert np.all(np.diff(vals, 2) <= 1e-12)


# -------------------------------------------------------------- symmetrization


def test_symmetrize_marginal_and_balance():
    d = AuxBinaryJoint((1.0,), (0.3,), (0.4,))
    s = symmetrize(d)
    assert s.support_size == 2
    assert abs(s.x1_marginal - 0.5) < 1e-12
    m = np.asarray(s.u_masses)
    t = np.asarray(s.t)
    q = np.asarray(s.q)
    up = float(np.dot(m, (1.0 - t) * q))
    down = float(np.dot(m, t * (1.0 - q)))
    assert abs(up - down) < 1e-12


def test_symmetrize_preserves_conditionals():
    rng = np.random.default_rng(24)
    for _ in range(1000):
        d = random_joint(rng)
        s = symmetrize(d)
        td, ts = entropy_triplet(d), entropy_triplet(s)
        assert abs(td.hs_cond - ts.hs_cond) < 1e-12
        assert abs(td.h1_cond - ts.h1_cond) < 1e-12
        assert abs(d.mismatch_probability - s.mismatch_probability) < 1e-12
        assert ts.hs >= td.hs - 1e-12


def test_symmetrize_output_passes_the_checks_unchanged():
    # symmetrize builds its output unchecked: the checked constructor must
    # accept it as is, for supports 1-4, ends 0.0 and 1.0 and numpy input
    rng = np.random.default_rng(40)
    for trial in range(400):
        m = trial % 4 + 1
        masses = rng.dirichlet(np.ones(m)) if trial % 5 else np.eye(m)[rng.integers(m)]
        t, q = rng.uniform(0.0, 1.0, (2, m))
        if trial % 3 == 0:
            t[rng.integers(m)], q[rng.integers(m)] = 0.0, 1.0
        if trial % 7 == 0:
            t[:], q[:] = 1.0, 0.0
        fields = [masses, t, q] if trial % 2 else [a.tolist() for a in (masses, t, q)]
        s = symmetrize(AuxBinaryJoint(*map(tuple, fields)))
        checked = AuxBinaryJoint(s.u_masses, s.t, s.q)
        for name in ("u_masses", "t", "q"):
            got = getattr(s, name)
            assert type(got) is tuple and all(type(v) is float for v in got)
            assert [v.hex() for v in got] == [v.hex() for v in getattr(checked, name)]


def test_symmetrize_fixed_point_on_symmetric_input():
    for eta in (0.0, 0.1, 0.3, 0.5):
        d = attaining_joint(eta)
        td = entropy_triplet(d)
        ts = entropy_triplet(symmetrize(d))
        assert abs(td.hs - ts.hs) < 1e-12
        assert abs(td.hs_cond - ts.hs_cond) < 1e-12
        assert abs(td.h1_cond - ts.h1_cond) < 1e-12


# ------------------------------------------------------------ attaining joint


def test_attaining_joint_extremes():
    t = entropy_triplet(attaining_joint(0.5))
    assert abs(t.hs - 1.5) < 1e-12
    assert abs(t.hs_cond - 1.5) < 1e-12
    assert abs(t.h1_cond - 1.0) < 1e-12
    t0 = entropy_triplet(attaining_joint(0.0))
    assert abs(t0.hs - 1.0) < 1e-12
    assert t0.hs_cond == 0.0
    assert t0.h1_cond == 0.0
    with pytest.raises(ValueError):
        attaining_joint(0.6)


def test_attaining_joint_meets_envelopes():
    for eta in np.linspace(0.0, 0.5, 101):
        d = attaining_joint(eta)
        t = entropy_triplet(d)
        p = 0.5 * (1.0 - math.sqrt(max(1.0 - 2.0 * eta, 0.0)))
        assert abs(t.hs - sum_rate_envelope(eta)) < 1e-12
        assert abs(t.hs_cond - (2.0 * binary_entropy(p) - eta)) < 1e-12
        assert abs(t.h1_cond - binary_entropy(p)) < 1e-12
        assert abs(d.mismatch_probability - eta) < 1e-12


def test_attaining_joint_matches_conditional_envelope():
    # above the self-convolution threshold the first branch is active and the
    # two-point joint achieves it exactly
    for r1 in (0.0, 0.3, 0.6, 0.9, 1.0):
        p1 = binary_entropy_inv(r1)
        s = 2.0 * p1 * (1.0 - p1)
        for eta in np.linspace(s, 0.5, 20):
            t = entropy_triplet(attaining_joint(eta))
            assert abs(t.hs_cond - conditional_sum_envelope(p1, eta)) < 1e-9
            assert t.h1_cond >= r1 - 1e-9


# ------------------------------------------------------------ moment envelope


def test_moment_ratio_floor_values():
    assert moment_ratio_floor(0.0, 0.5) == 1.0
    assert moment_ratio_floor(0.1, 0.1) == 1.0
    lam = moment_ratio_floor(0.2, 0.1)
    assert abs(lam - 2.0) < 1e-15
    assert abs((1.0 + lam) ** 2 / lam * 0.2 - 0.9) < 1e-12
    with pytest.raises(ValueError):
        moment_ratio_floor(-0.1, 0.5)
    with pytest.raises(ValueError):
        moment_ratio_floor(0.1, 0.0)


def test_cond_envelope_fixed_points():
    assert abs(cond_envelope_via_moments(0.0, 0.5) - 1.5) < 1e-12
    # r1 = 1 forces eta = 1/2 and the degenerate multiplier path
    assert abs(cond_envelope_via_moments(1.0, 0.5) - 1.5) < 1e-12
    assert abs(cond_envelope_via_moments(0.0, 0.0) - 0.0) < 1e-12


def test_cond_envelope_matches_direct_envelope():
    rng = np.random.default_rng(25)
    hit_low = hit_high = 0
    for _ in range(500):
        r1 = rng.uniform(0.0, 1.0)
        p1 = binary_entropy_inv(r1)
        eta = rng.uniform(p1, 0.5)
        if eta < 2.0 * p1 * (1.0 - p1):
            hit_low += 1
        else:
            hit_high += 1
        got = cond_envelope_via_moments(r1, eta)
        want = conditional_sum_envelope(p1, eta)
        assert abs(got - want) < 1e-9
    # both branches must actually be exercised
    assert hit_low > 50 and hit_high > 50


def test_cond_envelope_infeasible():
    with pytest.raises(InfeasibleRateError):
        cond_envelope_via_moments(0.9, 0.1)
    with pytest.raises(ValueError):
        cond_envelope_via_moments(0.5, 0.7)


# ------------------------------------------------- variance bound (two-point)


def test_variance_bound_two_point_attains():
    # the symmetric two-point variable at distance 1/2 - p from zero has
    # entropy measure h(p) and meets the variance cap with equality
    for p in np.linspace(0.01, 0.49, 25):
        x = 0.5 - p
        rho = 0.5 * (binary_entropy(0.5 + x) + binary_entropy(0.5 - x))
        assert abs(rho - binary_entropy(p)) < 1e-12
        ex2 = x * x
        assert abs(entropy_at_variance(ex2) - rho) < 1e-12


def test_variance_bound_random_never_exceeds():
    # zero-mean X on [-1/2, 1/2]: E h(1/2 + X) <= entropy_at_variance(E X^2),
    # which is the variance cap in its monotone (inverse-free) form
    rng = np.random.default_rng(26)
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        pts = rng.uniform(-0.5, 0.5, m)
        w = rng.dirichlet(np.ones(m))
        pts = pts - float(np.dot(w, pts))
        top = float(np.max(np.abs(pts)))
        if top > 0.5:
            pts = pts * (0.5 / top)
        rho = float(np.dot(w, [binary_entropy(0.5 + x) for x in pts]))
        ex2 = float(np.dot(w, pts * pts))
        assert rho <= entropy_at_variance(min(ex2, 0.25)) + 1e-12


def test_feasible_disagreement_floor():
    # random mirrored joints: the disagreement probability is at least the
    # inverse entropy of the conditional first-bit rate
    rng = np.random.default_rng(27)
    for _ in range(1000):
        d = symmetrize(random_joint(rng))
        r1 = entropy_triplet(d).h1_cond
        eta = d.mismatch_probability
        assert eta >= binary_entropy_inv(r1) - 1e-9


# ---------------------------------------------------------- empirical joints


def test_joint_from_system_log3():
    u = log3_construction(3)
    d = joint_from_system(u)
    assert d.support_size == u.m0 * u.n
    t = entropy_triplet(d)
    # singleton first families make X1 deterministic given U
    assert t.h1_cond == 0.0
    # second families are full subset lattices: hs_cond is exactly 2/3
    assert abs(t.hs_cond - 2.0 / 3.0) < 1e-12


def test_rate_triples_obey_entropy_constraints():
    systems = _desk_systems()
    assert len(systems) >= 4
    for u in systems:
        t = entropy_triplet(joint_from_system(u))
        r = system_rates(u)
        assert r.r0 + r.r1 + r.r2 <= t.hs + 1e-9
        assert r.r1 + r.r2 <= t.hs_cond + 1e-9
        assert r.r1 <= t.h1_cond + 1e-9
