"""Tests for the subset-family combinatorics."""

import copy
import dataclasses
import functools
import itertools
import json
import math
import operator
import pickle
import random
from collections import Counter
from fractions import Fraction
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adderbound.entropy import _integer, _real, binary_entropy, binary_entropy_inv
from adderbound.families import (
    MAX_SAUER_N,
    SEARCH_NODES_PER_SEC,
    Family,
    PairSearchResult,
    SearchBudgetError,
    _LINE_TABLE_N,
    _cliques,
    _family_texts,
    _least_in_orbit,
    _line_table,
    _mask_line,
    _multiplicities,
    _parse_member,
    _NodeBudgetSpent,
    _pair_conflicts,
    _permutation_keys,
    _product_seed,
    _read_families,
    _spread,
    exhaustive_pair_search,
    family_from_text,
    family_to_text,
    hamming_ball,
    is_k_shattered,
    is_multiset_union_free,
    max_k_shattered,
    project,
    shattering_guarantee,
    shattering_profile,
    shift_monotonize,
    soft_sauer_bound,
)
from adderbound.systems import system_from_json
from adderbound import verify
from adderbound.verify import run_all, run_suite


def masks_of(*elem_sets):
    out = []
    for es in elem_sets:
        m = 0
        for e in es:
            m |= 1 << (e - 1)
        out.append(m)
    return tuple(out)


def naive_union_free(f1, f2):
    # vector sums compared as explicit tuples, no encoding tricks
    sums = set()
    for a in f1.members:
        for c in f2.members:
            sums.add(tuple((a >> i & 1) + (c >> i & 1) for i in range(f1.n)))
    return len(sums) == len(f1) * len(f2)


def all_duplicate_free_families(n):
    masks = range(1 << n)
    for r in range(1, (1 << n) + 1):
        for combo in itertools.combinations(masks, r):
            yield Family(n, combo)


# ---------------------------------------------------------------- Family type


def test_family_sorts_members():
    f = Family(3, (5, 0, 3))
    assert f.members == (0, 3, 5)
    assert len(f) == 3


def test_family_validation():
    with pytest.raises(ValueError):
        Family(0, ())
    with pytest.raises(ValueError):
        Family(65, ())
    with pytest.raises(ValueError):
        Family(2, (4,))
    with pytest.raises(ValueError):
        Family(2, (-1,))


@pytest.mark.parametrize("n", [2.0, True, False, "3", None, np.float64(3.0)])
def test_family_rejects_non_integral_ground_set_size(n):
    with pytest.raises(ValueError) as exc:
        Family(n, (0, 1))
    assert str(exc.value) == f"ground set size {n!r} is not an integer"


@pytest.mark.parametrize(
    "members, bad", [((-1, 5), -1), ((9, 8, 3), 8), ((3, 300, 10), 10)]
)
def test_family_names_the_member_that_does_not_fit(members, bad):
    # a negative member first, else the smallest one above the full set
    with pytest.raises(ValueError) as exc:
        Family(3, members)
    assert str(exc.value) == f"member {bad} does not fit a 3-element ground set"


@pytest.mark.parametrize("member", [1.5, 2.0, "3", None, np.float64(1.0)])
def test_family_rejects_non_integral_members(member):
    with pytest.raises(ValueError) as exc:
        Family(3, (1, member))
    assert str(exc.value) == f"member {member!r} is not an integer"


def test_family_rejects_non_integral_members_from_a_generator():
    # the members are read once, so the error names the bad member
    with pytest.raises(ValueError) as exc:
        Family(3, (x for x in [1, "a"]))
    assert str(exc.value) == "member 'a' is not an integer"
    assert Family(3, (x for x in [3, 1])).members == (1, 3)


@pytest.mark.parametrize("members", [5, None, 2.5])
def test_family_rejects_members_that_are_not_iterable(members):
    with pytest.raises(ValueError) as exc:
        Family(3, members)
    assert str(exc.value) == f"members {members!r} are not iterable"


def test_family_accepts_integer_types():
    f = Family(3, (np.int64(5), True, np.uint8(2)))
    assert f.members == (1, 2, 5)
    assert all(type(m) is int for m in f.members)
    g = Family(np.int64(3), (1,))
    assert g == Family(3, (1,)) and type(g.n) is int


def test_family_duplicates_allowed_but_flagged():
    f = Family(2, (1, 1))
    assert f.has_duplicates
    assert not Family(2, (1, 2)).has_duplicates


# ------------------------------------------------------------ union-freeness


def test_union_free_examples():
    assert is_multiset_union_free(Family(2, (0b00, 0b11)), Family(2, (0b00, 0b01, 0b10)))
    # {} + {1} collides with {1} + {}
    assert not is_multiset_union_free(Family(1, (0, 1)), Family(1, (0, 1)))


def test_union_free_singleton_always():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        size = int(rng.integers(1, min(2**n, 12) + 1))
        members = tuple(int(m) for m in rng.choice(1 << n, size=size, replace=False))
        f2 = Family(n, members)
        f1 = Family(n, (int(rng.integers(0, 1 << n)),))
        assert is_multiset_union_free(f1, f2)


def test_union_free_matches_naive_enumeration_n2():
    fams = list(all_duplicate_free_families(2))
    for f1 in fams:
        for f2 in fams:
            assert is_multiset_union_free(f1, f2) == naive_union_free(f1, f2)


def test_union_free_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        s1 = int(rng.integers(1, min(2**n, 8) + 1))
        s2 = int(rng.integers(1, min(2**n, 8) + 1))
        f1 = Family(n, tuple(int(m) for m in rng.choice(1 << n, size=s1, replace=False)))
        f2 = Family(n, tuple(int(m) for m in rng.choice(1 << n, size=s2, replace=False)))
        assert is_multiset_union_free(f1, f2) == is_multiset_union_free(f2, f1)


def test_union_free_matches_naive_up_to_64_bits():
    # members vary on at most 4 scattered coordinates over a fixed random
    # background, so collisions are common even on wide ground sets
    rng = random.Random(43)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(1, 64)
        active = rng.sample(range(n), min(n, 4))
        cells = [0]
        for i in active:
            cells += [c | 1 << i for c in cells]
        background = rng.getrandbits(n) & ~cells[-1]
        size1, size2 = (rng.randint(1, min(len(cells), 6)) for _ in range(2))
        f1 = Family(n, tuple(background | c for c in rng.sample(cells, size1)))
        f2 = Family(n, tuple(rng.sample(cells, size2)))
        want = naive_union_free(f1, f2)
        assert is_multiset_union_free(f1, f2) == want, (n, f1.members, f2.members)
        verdicts.add(want)
    assert verdicts == {True, False}


def test_spread_reads_binary_digits_in_base_3():
    def by_digits(mask):
        return sum(3**i for i in range(mask.bit_length()) if mask >> i & 1)

    rng = random.Random(13)
    for mask in [*range(1 << 16), *(rng.getrandbits(64) for _ in range(2000))]:
        assert _spread(mask) == by_digits(mask), mask


def test_union_free_rejects_bad_input():
    with pytest.raises(ValueError):
        is_multiset_union_free(Family(2, (0,)), Family(3, (0,)))
    with pytest.raises(ValueError):
        is_multiset_union_free(Family(2, (1, 1)), Family(2, (0,)))


def test_verify_union_free_check_counts_compared_pairs(monkeypatch):
    # the check reports the pairs drawn on a common ground set, yet still makes
    # all 600 draws first, so the checks after it see the same families;
    # run_all(s) runs this suite at seed s + 1
    draws = []
    real = verify._random_family

    def spy(rng, max_n, max_size):
        draws.append(max_n)
        return real(rng, max_n=max_n, max_size=max_size)

    monkeypatch.setattr(verify, "_random_family", spy)
    for seed, compared in ((1, 69), (2, 93), (8, 73)):
        draws.clear()
        got = [(c.name, c.passed, c.samples, c.max_violation) for c in run_suite("families", seed)]
        assert got == [
            ("union-free-matches-naive", True, compared, 0.0),
            ("soft-sauer-soundness", True, 300, 0.0),
            ("shift-shattering-transfer", True, 200, 0.0),
            ("search-desk-ground-truth", True, 3, 0.0),
        ]
        assert draws == [4] * 600 + [10] * 300 + [6] * 200


def test_verify_union_free_counts_every_pair_under_a_negated_check(monkeypatch):
    # a union-free check that answers the opposite disagrees with the naive one
    # on every pair compared (69 at seed 1)
    real = verify.is_multiset_union_free
    monkeypatch.setattr(verify, "is_multiset_union_free", lambda f1, f2: not real(f1, f2))
    got = {c.name: c for c in run_suite("families", 1)}["union-free-matches-naive"]
    assert (got.passed, got.samples, got.max_violation) == (False, 69, 69.0)


def test_verify_search_desk_counts_a_wrong_product(monkeypatch):
    # a search that reports one too many at n = 3 only: that one of the three desk cases counts
    real = verify.exhaustive_pair_search

    def planted(n):
        res = real(n)
        return dataclasses.replace(res, product=res.product + 1) if n == 3 else res

    monkeypatch.setattr(verify, "exhaustive_pair_search", planted)
    got = {c.name: c for c in run_suite("families", 1)}["search-desk-ground-truth"]
    assert (got.passed, got.samples, got.max_violation) == (False, 3, 1.0)


# ----------------------------------------------------------------- projection


def test_project_examples():
    f = Family(2, (0, 1, 2, 3))
    pm = project(f, 0b01)
    assert dict(pm) == {0: 2, 1: 2}
    assert pm.total() == 4
    assert pm[0b10] == 0

    full = project(f, 0b11)
    assert dict(full) == {0: 1, 1: 1, 2: 1, 3: 1}

    empty = project(f, 0)
    assert dict(empty) == {0: 4}


def test_project_mask_must_fit():
    with pytest.raises(ValueError):
        project(Family(2, (0,)), 0b100)


def test_project_reads_a_numpy_mask_as_an_int():
    counts = project(Family(2, (0, 1, 2, 3)), np.int64(1))
    assert counts == {0: 2, 1: 2}
    assert all(type(key) is int for key in counts)


def test_non_integer_masks_are_value_errors():
    # a float, text or bool mask is a one-line ValueError, as an out-of-range one is
    f = Family(2, (0, 1, 2, 3))
    for mask in (1.5, -1.5, 2.0, "1", None, True):
        with pytest.raises(ValueError, match="is not an integer$"):
            project(f, mask)
        with pytest.raises(ValueError, match="is not an integer$"):
            is_k_shattered(f, mask, 1)


CUBE = Family(3, tuple(range(8)))
INTEGER_PARAMETERS = {
    "shattering_profile": ("k", 2, lambda v: shattering_profile(CUBE, (1, v))),
    "max_k_shattered": ("k", 2, lambda v: max_k_shattered(CUBE, v)),
    "is_k_shattered": ("k", 2, lambda v: is_k_shattered(CUBE, 3, v)),
    "soft_sauer_bound_n": ("n", 5, lambda v: soft_sauer_bound(v, 2, 1)),
    "soft_sauer_bound_d": ("d", 2, lambda v: soft_sauer_bound(5, v, 1)),
    "soft_sauer_bound_k": ("k", 2, lambda v: soft_sauer_bound(5, 2, v)),
    "hamming_ball_n": ("n", 3, lambda v: hamming_ball(v, 1)),
    "hamming_ball_radius": ("radius", 1, lambda v: hamming_ball(3, v)),
    "exhaustive_pair_search": ("n", 2, lambda v: exhaustive_pair_search(v)),
    "run_suite": ("seed", 2, lambda v: run_suite("systems", v)),
    "run_all": ("seed", 2, lambda v: run_all(v)),
}


@pytest.mark.parametrize("name, good, call", INTEGER_PARAMETERS.values(), ids=INTEGER_PARAMETERS.keys())
def test_integer_parameters_reject_non_integers(name, good, call):
    # a float, even a whole or a fractional one below 1, a bool or text is a
    # one-line ValueError, never a truncation or a TypeError; numpy ints
    # give what Python ints give, and a stored k is an int
    for bad in (1.5, 0.5, 2.0, True, "a", None, np.float64(good)):
        with pytest.raises(ValueError) as exc:
            call(bad)
        assert str(exc.value) == f"{name} {bad!r} is not an integer"
    got = call(np.int64(good))
    assert got == call(good)
    if name == "k" and hasattr(got, "k"):
        assert type(got.k) is int


# ----------------------------------------------------------------- shattering


def test_is_k_shattered_examples():
    f = Family(2, (0, 1, 2, 3))
    assert is_k_shattered(f, 0b11, 1)
    assert is_k_shattered(f, 0b01, 2)
    assert not is_k_shattered(f, 0b11, 2)
    with pytest.raises(ValueError):
        is_k_shattered(f, 0b01, 0)


def test_shattering_profile_needs_a_collection_of_ks():
    # a bare k is a one-line ValueError; max_k_shattered takes the bare k
    with pytest.raises(ValueError) as exc:
        shattering_profile(CUBE, 2)
    assert str(exc.value) == "ks 2 is not a collection of integers"
    assert shattering_profile(CUBE, (2,))[2] == max_k_shattered(CUBE, 2)


def test_max_k_shattered_full_cube():
    f = Family(3, tuple(range(8)))
    assert max_k_shattered(f, 1) == (0b111, 3)


@pytest.mark.parametrize("n,radius", [(3, 1), (4, 2), (5, 3), (6, 2), (8, 4)])
def test_hamming_ball_shatters_its_radius(n, radius):
    mask, size = max_k_shattered(hamming_ball(n, radius), 1)
    assert size == radius
    assert mask.bit_count() == radius


def test_max_k_shattered_requires_enough_members():
    with pytest.raises(ValueError):
        max_k_shattered(Family(3, (0, 1)), 3)


def test_max_k_shattered_budget_guard():
    rng = np.random.default_rng(3)
    members = tuple(int(m) for m in rng.choice(1 << 20, size=4000, replace=False))
    f = Family(50, members)
    with pytest.raises(SearchBudgetError):
        max_k_shattered(f, 1)
    with pytest.raises(SearchBudgetError):
        shattering_profile(f, (1, 2, 4))


def brute_shattering(f):
    # every mask, ascending, counted by Counter projections; only a larger
    # size replaces an answer, so each keeps the least mask. is_k_shattered
    # must agree with the count on every mask, above the size cap too
    best = {k: (0, 0) for k in (1, 2, 4)}
    for mask in range(1, 1 << f.n):
        size = mask.bit_count()
        counts = Counter(m & mask for m in f.members)
        mult = min(counts.values()) if len(counts) == 1 << size else 0
        for k, (_, got) in best.items():
            assert is_k_shattered(f, mask, k) == (mult >= k), (f.members, mask, k)
            if mult >= k and size > got:
                best[k] = (mask, size)
    return best


def brute_force_families():
    rng = np.random.default_rng(23)
    fams = []
    for _ in range(180):
        n = int(rng.integers(1, 9))
        size = int(rng.integers(1, min(2**n, 40) + 1))
        fams.append(Family(n, tuple(int(m) for m in rng.choice(1 << n, size=size, replace=False))))
    # duplicated members: every copy counts toward a cell's multiplicity
    for _ in range(120):
        n = int(rng.integers(1, 9))
        pool = rng.choice(1 << n, size=int(rng.integers(1, min(2**n, 16) + 1)), replace=False)
        size = int(rng.integers(1, 41))
        fams.append(Family(n, tuple(int(m) for m in rng.choice(pool, size=size))))
    assert sum(f.has_duplicates for f in fams) >= 90
    return fams


def test_shattering_matches_brute_force():
    every_ks = [ks for r in (1, 2, 3) for ks in itertools.combinations((1, 2, 4), r)]
    for f in brute_force_families():
        want = brute_shattering(f)
        for ks in every_ks:
            if len(f) >= ks[-1]:
                assert shattering_profile(f, ks) == {k: want[k] for k in ks}, (f.members, ks)
        for k, (mask, size) in want.items():
            if len(f) >= k:
                assert max_k_shattered(f, k) == (mask, size), (f.members, k)
                assert is_k_shattered(f, mask, k)
                assert size == f.n or not any(
                    is_k_shattered(f, mask | 1 << i, k) for i in range(f.n) if not mask >> i & 1
                )


def pinned_families():
    rng = random.Random(31)
    fams = []
    for _ in range(12):
        n = rng.randint(3, 12)
        size = rng.randint(4, min(1 << n, 120))
        fams.append(Family(n, tuple(rng.sample(range(1 << n), size))))
    fams += [hamming_ball(9, 3), hamming_ball(10, 5)]
    # members vary on 5 scattered coordinates over a fixed background and are
    # drawn with replacement, so cells fill through repeats
    for _ in range(4):
        n = rng.randint(13, 64)
        active = rng.sample(range(n), 5)
        cells = [0]
        for i in active:
            cells += [c | 1 << i for c in cells]
        background = rng.getrandbits(n) & ~cells[-1]
        size = rng.randint(16, 31)
        fams.append(Family(n, tuple(background | rng.choice(cells) for _ in range(size))))
    return fams


# shattering_profile(f, (1, 2, 3, 4)) on pinned_families(), as recorded when
# max_k_shattered was still a separate top-down scan (the last four, with
# duplicated members, when shattering_profile built the complex level by
# level); both must keep them
PINNED_PROFILES = [
    {1: (3, 2), 2: (1, 1), 3: (1, 1), 4: (0, 0)},
    {1: (54, 4), 2: (7, 3), 3: (50, 3), 4: (3, 2)},
    {1: (31, 5), 2: (1618, 5), 3: (15, 4), 4: (29, 4)},
    {1: (7, 3), 2: (7, 3), 3: (3, 2), 4: (3, 2)},
    {1: (7, 3), 2: (3, 2), 3: (1, 1), 4: (1, 1)},
    {1: (31, 5), 2: (15, 4), 3: (15, 4), 4: (15, 4)},
    {1: (31, 5), 2: (421, 5), 3: (15, 4), 4: (15, 4)},
    {1: (119, 6), 2: (47, 5), 3: (15, 4), 4: (15, 4)},
    {1: (87, 5), 2: (15, 4), 3: (23, 4), 4: (23, 4)},
    {1: (23, 4), 2: (102, 4), 3: (7, 3), 4: (11, 3)},
    {1: (31, 5), 2: (665, 5), 3: (39, 4), 4: (92, 4)},
    {1: (1, 1), 2: (1, 1), 3: (0, 0), 4: (0, 0)},
    {1: (7, 3), 2: (3, 2), 3: (3, 2), 4: (3, 2)},
    {1: (31, 5), 2: (15, 4), 3: (15, 4), 4: (15, 4)},
    {1: (196, 3), 2: (4228, 3), 3: (68, 2), 4: (68, 2)},
    {1: (641, 3), 2: (8705, 3), 3: (129, 2), 4: (129, 2)},
    {1: (1179650, 3), 2: (131074, 2), 3: (1048578, 2), 4: (2, 1)},
    {1: (8393728, 3), 2: (8393728, 3), 3: (5120, 2), 4: (5120, 2)},
]


def test_shattering_results_pinned():
    fams = pinned_families()
    assert len(fams) == len(PINNED_PROFILES)
    for f, want in zip(fams, PINNED_PROFILES):
        assert shattering_profile(f, (1, 2, 3, 4)) == want, f.members
        assert {k: max_k_shattered(f, k) for k in want} == want, f.members


# ------------------------------------------------------------------- shifting


def test_shift_monotone_input_unchanged():
    ball = hamming_ball(4, 2)
    assert shift_monotonize(ball) == ball


def test_shift_single_member():
    assert shift_monotonize(Family(1, (1,))).members == (0,)


def test_shift_two_member_example():
    # {{1,2},{2}}: element 1 is blocked ({2} is present), element 2 then
    # strips both members, leaving {{},{1}} which is monotone
    out = shift_monotonize(Family(2, masks_of({1, 2}, {2})))
    assert out.members == masks_of(set(), {1})


def test_shift_rejects_duplicates():
    with pytest.raises(ValueError):
        shift_monotonize(Family(2, (1, 1)))


def _is_monotone(f):
    present = set(f.members)
    for m in present:
        sub = m
        while sub:
            sub = (sub - 1) & m
            if sub not in present:
                return False
    return True


def test_shift_properties_random():
    rng = np.random.default_rng(37)
    for _ in range(120):
        n = int(rng.integers(1, 8))
        size = int(rng.integers(1, min(2**n, 24) + 1))
        f = Family(n, tuple(int(m) for m in rng.choice(1 << n, size=size, replace=False)))
        g = shift_monotonize(f)
        assert len(g) == len(f)
        assert not g.has_duplicates
        assert _is_monotone(g)
        # idempotent once monotone
        assert shift_monotonize(g) == g


def test_shift_shattering_transfer_small():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        size = int(rng.integers(2, min(2**n, 12) + 1))
        f = Family(n, tuple(int(m) for m in rng.choice(1 << n, size=size, replace=False)))
        g = shift_monotonize(f)
        for s_mask in range(1 << n):
            for k in (1, 2, 3, 4):
                if is_k_shattered(g, s_mask, k):
                    assert is_k_shattered(f, s_mask, k), (f.members, s_mask, k)


def test_multiplicities_match_is_k_shattered_on_every_mask():
    # the table verify's shift-shattering-transfer reads instead of is_k_shattered
    fams = brute_force_families() + [Family(3, ()), Family(4, (5,) * 7), hamming_ball(6, 6)]
    for f in fams:
        mult = _multiplicities(f)
        assert len(mult) == 1 << f.n
        for s_mask, got in enumerate(mult):
            counts = Counter(m & s_mask for m in f.members)
            assert got == (min(counts.values()) if len(counts) == 1 << s_mask.bit_count() else 0)
            for k in (1, 2, 3, 4, 7):
                assert (got >= k) == is_k_shattered(f, s_mask, k), (f.members, s_mask, k)


def transfer_violations(f, g):
    # the shift-shattering-transfer count by its definition, one is_k_shattered call per (s, k)
    return sum(
        1
        for s_mask in range(1 << f.n)
        for k in (1, 2, 3)
        if k <= len(f) and is_k_shattered(g, s_mask, k) and not is_k_shattered(f, s_mask, k)
    )


def test_verify_shift_transfer_counts_a_planted_fault(monkeypatch):
    # a "shift" that returns the first |f| masks, 0 .. |f| - 1: down-closed,
    # of the right size, and often shattering sets that f does not
    seen = []

    def planted(f):
        g = Family(f.n, tuple(range(len(f))))
        seen.append((f, g))
        return g

    monkeypatch.setattr(verify, "shift_monotonize", planted)
    for seed in (1, 4):
        seen.clear()
        got = {c.name: c for c in run_suite("families", seed)}["shift-shattering-transfer"]
        want = sum(transfer_violations(f, g) for f, g in seen)
        assert len(seen) == 200 and want > 0
        assert (got.passed, got.samples, got.max_violation) == (False, 200, float(want))


def test_verify_shift_transfer_counts_a_shift_that_is_not_down_closed(monkeypatch):
    # a "shift" that returns the top |f| masks: of the right size, and not
    # down-closed unless it is the whole cube, when f is the cube too. Each
    # family that is not down-closed counts once; the cube counts nothing
    seen = []

    def planted(f):
        g = Family(f.n, tuple(range((1 << f.n) - len(f), 1 << f.n)))
        seen.append(g)
        return g

    monkeypatch.setattr(verify, "shift_monotonize", planted)
    for seed in (1, 4):
        seen.clear()
        got = {c.name: c for c in run_suite("families", seed)}["shift-shattering-transfer"]
        want = sum(not _is_monotone(g) for g in seen)
        assert len(seen) == 200 and 0 < want < 200
        assert (got.passed, got.samples, got.max_violation) == (False, 200, float(want))


def test_verify_shift_transfer_counts_a_shift_that_drops_a_member(monkeypatch):
    # a "shift" one member short fails the size test on every family, before
    # the down-closed and transfer tests
    monkeypatch.setattr(
        verify, "shift_monotonize", lambda f: Family(f.n, shift_monotonize(f).members[1:])
    )
    got = {c.name: c for c in run_suite("families", 1)}["shift-shattering-transfer"]
    assert (got.passed, got.samples, got.max_violation) == (False, 200, 200.0)


def test_verify_soft_sauer_counts_every_family_under_a_lowered_bound(monkeypatch):
    # lower the bound for the most frequent (n, d, k) below every family size:
    # each family that meets it must count, although the bound is made once
    profiles, calls = [], []
    real_profile = verify.shattering_profile

    def spy(f, ks):
        prof = real_profile(f, ks)
        profiles.append([(f.n, size + 1, k) for k, (_, size) in prof.items() if size < f.n])
        return prof

    monkeypatch.setattr(verify, "shattering_profile", spy)
    run_suite("families", 5)
    hits = Counter(key for keys in profiles for key in keys)
    planted_key, want = hits.most_common(1)[0]
    assert len(profiles) == 300 and want > 1

    def lowered(n, d, k):
        calls.append((n, d, k))
        bound = soft_sauer_bound(n, d, k)
        return dataclasses.replace(bound, exact=Fraction(1, 2)) if (n, d, k) == planted_key else bound

    monkeypatch.setattr(verify, "soft_sauer_bound", lowered)
    got = {c.name: c for c in run_suite("families", 5)}["soft-sauer-soundness"]
    assert (got.passed, got.samples, got.max_violation) == (False, 300, float(want))
    assert sorted(calls) == sorted(hits)  # each (n, d, k) bound once


# ------------------------------------------------------------------ soft Sauer


def test_soft_sauer_worked_example():
    # head 1 + 4 + 6, tail 6 * (1/3 + 1/6) = 3
    res = soft_sauer_bound(4, 2, 1)
    assert res.t_star == 2
    assert res.exact == 14
    assert res.value == 14.0


def test_soft_sauer_full_lattice_is_tight():
    # for the full subset lattice at k >= 2 every cap in the count is met,
    # so the bound must land exactly on 2^n; one less would be unsound
    f = Family(2, (0, 1, 2, 3))
    mask, size = max_k_shattered(f, 2)
    assert size == 1
    assert soft_sauer_bound(2, size + 1, 2).exact == 4


def test_soft_sauer_k1_tstar_is_d():
    for n, d in [(5, 2), (9, 4), (12, 1), (20, 20)]:
        assert soft_sauer_bound(n, d, 1).t_star == d


def test_soft_sauer_degenerate_n_equals_d():
    for n in (1, 3, 5, 8):
        res = soft_sauer_bound(n, n, 7)
        assert res.t_star == n
        assert res.exact == 2**n


def test_soft_sauer_validation():
    with pytest.raises(ValueError):
        soft_sauer_bound(3, 4, 1)
    with pytest.raises(ValueError):
        soft_sauer_bound(3, 0, 1)
    with pytest.raises(ValueError):
        soft_sauer_bound(3, 2, 0)


def test_soft_sauer_cap():
    # at the cap the float is finite and the exact value still converts to
    # text (Python refuses ints of more than 4,300 digits); above it, ValueError
    for d, k in ((1, 1), (MAX_SAUER_N // 2, 1), (MAX_SAUER_N // 2, 10**100), (MAX_SAUER_N, 1)):
        res = soft_sauer_bound(MAX_SAUER_N, d, k)
        assert math.isfinite(res.value)
        assert len(str(res.exact)) < 4300
    with pytest.raises(ValueError, match=f"outside \\[1, {MAX_SAUER_N}\\]"):
        soft_sauer_bound(MAX_SAUER_N + 1, 2, 1)


def test_soft_sauer_vs_classical_sauer():
    # with k=1 the bound is the classical count up to roughly a factor n/d.
    # The clean (1 + n/d) multiple holds once d >= 5; below that the
    # harmonic-style tail sum adds a log factor (already at n=6, d=1 the
    # bound is 14.7 against (1 + 6) * 1), so small d only gets a constant
    # 4x on top of (1 + n/d), which the n <= 30 grid meets with margin.
    for n in range(2, 31):
        for d in range(1, n + 1):
            classical = sum(math.comb(n, t) for t in range(d))
            got = soft_sauer_bound(n, d, 1).exact
            assert got >= classical
            limit = (Fraction(n, d) + 1) * classical
            if d >= 5:
                assert got <= limit
            else:
                assert got <= 4 * limit


# --------------------------------------------------------- shattering guarantee


def test_shattering_guarantee_boundaries():
    p = binary_entropy_inv(0.7)
    size, k = shattering_guarantee(0.7, p, 10)
    assert k == 1
    assert size == math.ceil(10 * p - 1e-9)

    size, k = shattering_guarantee(1.0, 0.0, 4)
    assert (size, k) == (0, 16)


def test_shattering_guarantee_worked_example():
    beta = 0.75 * binary_entropy(1.0 / 3.0)
    size, k = shattering_guarantee(1.0, 0.25, 20)
    assert size == 5
    assert k == math.ceil(2.0 ** (20 * beta) - 1e-9)


def test_shattering_guarantee_domain():
    with pytest.raises(ValueError):
        shattering_guarantee(0.5, 0.4, 10)  # alpha above h_inv(0.5)
    with pytest.raises(ValueError):
        shattering_guarantee(1.5, 0.1, 10)
    with pytest.raises(ValueError):
        shattering_guarantee(0.5, -0.1, 10)
    with pytest.raises(ValueError, match="^alpha nan outside"):
        shattering_guarantee(0.5, math.nan, 10)
    with pytest.raises(ValueError, match="^rate=nan outside"):
        shattering_guarantee(math.nan, 0.1, 10)


@pytest.mark.parametrize("n", [2.5, True, "4", np.float64(4.0)])
def test_shattering_guarantee_rejects_non_integral_n(n):
    with pytest.raises(ValueError) as exc:
        shattering_guarantee(1.0, 0.0, n)
    assert str(exc.value) == f"n {n!r} is not an integer"


@pytest.mark.parametrize("n", [0, -3, 2**1024, 10**400])
def test_shattering_guarantee_rejects_n_out_of_range(n):
    # n * alpha must be a float, so n stays below 2^1024
    with pytest.raises(ValueError) as exc:
        shattering_guarantee(1.0, 0.25, n)
    assert str(exc.value) == f"n={n} outside [1, 2^1024)"
    assert shattering_guarantee(1.0, 0.5, np.int64(4)) == (2, 1)


def test_shattering_guarantee_rate_slack():
    # a rate past 1 by rounding is clamped, as every other rate input is
    assert shattering_guarantee(1.0 + 1e-13, 0.0, 4) == (0, 16)
    assert shattering_guarantee(-1e-13, 0.0, 4) == (0, 1)
    with pytest.raises(ValueError, match="^rate=1.001 outside"):
        shattering_guarantee(1.001, 0.0, 4)


@pytest.mark.parametrize("rate, n", [(1.0, 1024), (0.9, 2000)])
def test_shattering_guarantee_float_overflow(rate, n):
    # 2^(n*beta) past the largest float: one ValueError naming n*beta
    assert shattering_guarantee(1.0, 0.0, 1023)[1] == 2**1023
    with pytest.raises(ValueError) as exc:
        shattering_guarantee(rate, 0.0, n)
    msg = str(exc.value)
    assert msg.startswith("multiplicity 2^(n*beta) = 2^") and msg.endswith("overflows a float")
    assert "\n" not in msg


# --------------------------------------------------------------- Hamming balls


def test_hamming_ball_sizes():
    assert hamming_ball(3, 0).members == (0,)
    assert len(hamming_ball(3, 3)) == 8
    assert len(hamming_ball(4, 2)) == 11


def test_hamming_ball_validation():
    with pytest.raises(ValueError):
        hamming_ball(26, 1)
    with pytest.raises(ValueError):
        hamming_ball(4, 5)
    with pytest.raises(ValueError):
        hamming_ball(25, 25)  # 2^25 members is over the cap


# ----------------------------------------------------------------- pair search


# the search as it was before f2 became a clique over f1's difference set,
# kept unchanged as the reference: plain ascending branch and bound on spread
# sums, with no symmetry cut
def _reference_pair_search(n: int, budget_secs: float = 10.0) -> PairSearchResult:
    """Best multiset-union-free pair over [n] by branch-and-bound.

    Maximizes |f1|*|f2| over ordered pairs of nonempty duplicate-free
    families. The budget is converted to a deterministic node count
    (SEARCH_NODES_PER_SEC per second), so identical arguments give identical results
    on any machine; `exact` reports whether the space was exhausted. Ties are
    broken toward the lexicographically smallest (f1, f2) member tuples,
    which the ascending-mask enumeration yields for free. For n <= 3 the
    search completes exactly well within the default budget. A budget spent
    before the first pair is found raises ValueError.

    Sums are Python-int bitsets: `sums1` has bit s_a set for each a in f1,
    `used` bit s_a + s_c for each a in f1 and c in f2. Spreads have base-3
    digits <= 1, so their sums have digits <= 2 and never carry: they are
    exactly the vector sums a + c, `sums1 << s_c` is exactly {s_a + s_c},
    and c collides iff that set meets `used`. Bits stay below 3^n.
    """
    if not 1 <= (n := _integer(n, "n")) <= 6:
        raise ValueError(f"n {n} outside [1, 6]")
    if type(budget_secs) is not int:  # an int budget stays exact, however large
        budget_secs = _real(budget_secs, "budget_secs")
    if not 0 < budget_secs * SEARCH_NODES_PER_SEC < math.inf:
        raise ValueError(f"budget must be positive and finite, got {budget_secs}")
    node_budget = int(budget_secs * SEARCH_NODES_PER_SEC)
    num = 1 << n
    spreads = [_spread(m) for m in range(num)]
    cap = 3**n

    best_product = 0
    best_pair: Tuple[Tuple[int, ...], Tuple[int, ...]] = ((), ())
    nodes = 0

    f1: List[int] = []
    f2: List[int] = []
    sums1 = 0
    used = 0

    def extend_f2(start: int) -> None:
        # grow f2 with masks >= start, keeping all pairwise sums distinct
        nonlocal nodes, best_product, best_pair, used
        nodes += 1
        if nodes >= node_budget:
            raise _NodeBudgetSpent
        prod = len(f1) * len(f2)
        if f2 and prod > best_product:
            best_product = prod
            best_pair = (tuple(f1), tuple(f2))
        # even taking every remaining mask cannot beat the incumbent
        if len(f1) * (len(f2) + num - start) <= best_product:
            return
        for c in range(start, num):
            block = sums1 << spreads[c]
            if used & block:
                continue
            used |= block
            f2.append(c)
            extend_f2(c + 1)
            f2.pop()
            used ^= block

    def extend_f1(start: int) -> None:
        nonlocal nodes, sums1
        nodes += 1
        if nodes >= node_budget:
            raise _NodeBudgetSpent
        if f1:
            # the partner family can never push the product past 3^n
            if len(f1) * min(num, cap // len(f1)) > best_product:
                extend_f2(0)
        for a in range(start, num):
            if (len(f1) + 1 + num - a - 1) * num <= best_product:
                break
            f1.append(a)
            sums1 |= 1 << spreads[a]
            extend_f1(a + 1)
            f1.pop()
            sums1 ^= 1 << spreads[a]

    exact = True
    try:
        extend_f1(0)
    except _NodeBudgetSpent:
        exact = False
    if best_product == 0:
        raise ValueError(
            f"budget {budget_secs!r} s ({node_budget} nodes) ran out before the first pair"
        )
    fam1 = Family(n, best_pair[0])
    fam2 = Family(n, best_pair[1])
    return PairSearchResult(fam1, fam2, best_product, exact, nodes)


def _permuted(masks, perm):
    # the masks with coordinate i moved to perm[i]
    return tuple(sorted(sum(1 << perm[i] for i in range(len(perm)) if m >> i & 1) for m in masks))


def _random_family(rng, n, size):
    return Family(n, tuple(rng.sample(range(1 << n), size)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_search_matches_reference(n):
    want = _reference_pair_search(n)
    got = exhaustive_pair_search(n)
    assert want.exact and got.exact
    assert (got.f1, got.f2, got.product) == (want.f1, want.f2, want.product)


def test_pair_conflicts_are_difference_collisions():
    # a conflict bit of (c, c') under f1 is exactly a sum collision of f1 with {c, c'}
    rng = random.Random(61)
    for _ in range(200):
        n = rng.randint(1, 4)
        num = 1 << n
        f1 = _random_family(rng, n, rng.randint(1, num))
        rows = _pair_conflicts(n)
        packed = 0  # as the search builds it: each member with each smaller one
        for b, a in itertools.combinations(f1.members, 2):
            packed |= rows[a][b]
        for c, c2 in itertools.combinations(range(num), 2):
            collides = not is_multiset_union_free(f1, Family(n, (c, c2)))
            assert bool(packed >> (c * num + c2) & 1) == collides, (f1, c, c2)



@pytest.mark.parametrize("n", range(1, 6))
def test_pair_conflicts_hold_no_self_bit(n):
    # two distinct members have a nonzero difference, so no c conflicts with
    # itself: the clique kernel relies on conf[c] never holding c
    num = 1 << n
    selves = sum(1 << (c * num + c) for c in range(num))
    rows = _pair_conflicts(n)
    assert not any(rows[a][b] & selves for a in range(num) for b in range(num) if a != b)

def _reference_max_clique(n, s_members):
    # the least largest set of masks with no pairwise difference in S - S, by
    # plain ascending depth-first search, cut only by the candidate count
    def diff(a, b):
        return tuple((a >> i & 1) - (b >> i & 1) for i in range(n))

    diffs = {diff(a, b) for a in s_members for b in s_members}
    best: List[int] = []

    def extend(clique, cands):
        nonlocal best
        if len(clique) > len(best):
            best = clique
        for j, c in enumerate(cands):
            if len(clique) + len(cands) - j <= len(best):
                return
            extend(clique + [c], [d for d in cands[j + 1 :] if diff(d, c) not in diffs])

    extend([], list(range(1 << n)))
    return tuple(best)


def test_clique_kernel_matches_a_plain_maximum_clique():
    rng = random.Random(71)
    for _ in range(200):
        n = rng.randint(1, 4)
        num = 1 << n
        s = _random_family(rng, n, rng.randint(1, min(6, num)))
        rows = _pair_conflicts(n)
        packed = 0  # as the search builds it
        for b, a in itertools.combinations(s.members, 2):
            packed |= rows[a][b]
        conf = [packed >> (c * num) & (1 << num) - 1 for c in range(num)]
        cliques = list(_cliques(conf, 0, num, [0, math.inf]))
        want = _reference_max_clique(n, s.members)
        assert cliques[-1] == want, (s, cliques)
        assert [len(c) for c in cliques] == sorted({len(c) for c in cliques})
        assert is_multiset_union_free(s, Family(n, cliques[-1]))
        # nothing above the largest size; a cap stops at the first clique of its size
        assert list(_cliques(conf, len(want), num, [0, math.inf])) == []
        capped = list(_cliques(conf, 0, 1, [0, math.inf]))
        assert [len(c) for c in capped] == [1]


def test_clique_kernel_budget_stops_at_its_node():
    # the count starts from tally[0]; a budget of b stops at node b, after the
    # cliques that the unbudgeted run yields before it, and leaves b in the tally
    rng = random.Random(73)
    for _ in range(40):
        n = rng.randint(2, 4)
        num = 1 << n
        s = _random_family(rng, n, rng.randint(1, min(5, num)))
        packed = 0
        for b, a in itertools.combinations(s.members, 2):
            packed |= _pair_conflicts(n)[a][b]
        conf = [packed >> (c * num) & (1 << num) - 1 for c in range(num)]
        tally = [7, math.inf]
        full = list(_cliques(conf, 0, num, tally))
        total = tally[0]
        for budget in range(8, total + 1):
            tally, got = [7, budget], []
            with pytest.raises(_NodeBudgetSpent):
                got.extend(_cliques(conf, 0, num, tally))
            assert tally[0] == budget and got == full[: len(got)]
        tally = [7, total + 1]  # one node more runs to the end
        assert list(_cliques(conf, 0, num, tally)) == full and tally[0] == total


def test_search_dataclasses_have_slots():
    res = exhaustive_pair_search(2)
    for obj, field in ((res, "nodes"), (res.f1, "n")):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, 3)
    assert pickle.loads(pickle.dumps(res)) == res


@pytest.mark.parametrize(
    "obj", [Family(2, (0, 1)), PairSearchResult(Family(1, (0,)), Family(1, (1,)), 1, True, 7)]
)
def test_search_dataclasses_refuse_every_assignment(obj):
    # a field and a name that is not one alike raise FrozenInstanceError
    for name in (dataclasses.fields(obj)[0].name, "foo"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, 3)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
    assert not hasattr(obj, "foo") and not hasattr(obj, "__dict__")
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert twin == obj and type(twin) is type(obj) and hash(twin) == hash(obj)


def _reference_permutation_keys(n):
    # the table as first built: each image bit by bit, each key one field at a time
    num, width = 1 << n, (1 << n) + 1
    perms = itertools.permutations(range(n))
    images = [[sum(1 << p[i] for i in range(n) if m >> i & 1) for m in range(num)] for p in perms]
    keys = tuple(sum(1 << (j * width + im[m]) for j, im in enumerate(images)) for m in range(num))
    return keys, sum(1 << (j * width) for j in range(len(images)))


@pytest.mark.parametrize("n", range(1, 7))
def test_permutation_keys_pinned_to_the_bit_by_bit_table(n):
    assert _permutation_keys(n) == _reference_permutation_keys(n)


def test_union_freeness_is_invariant_under_the_search_symmetries():
    # a common coordinate permutation or XOR by a common mask keeps
    # union-freeness; the search's symmetry cut rests on both
    rng = random.Random(67)
    verdicts = Counter()
    for _ in range(300):
        n = rng.randint(1, 4)
        f1 = _random_family(rng, n, rng.randint(1, min(6, 1 << n)))
        f2 = _random_family(rng, n, rng.randint(1, min(6, 1 << n)))
        free = is_multiset_union_free(f1, f2)
        verdicts[free] += 1
        for perm in itertools.permutations(range(n)):
            moved = (Family(n, _permuted(f.members, perm)) for f in (f1, f2))
            assert is_multiset_union_free(*moved) == free, (f1, f2, perm)
        for x in range(1 << n):
            flipped = (Family(n, tuple(m ^ x for m in f.members)) for f in (f1, f2))
            assert is_multiset_union_free(*flipped) == free, (f1, f2, x)
    assert verdicts[True] > 20 and verdicts[False] > 20


@functools.cache
def _bn_maps(n):
    # each element of B_n as a table of masks: XOR by x, then a coordinate permutation
    perms = [[sum(1 << p[i] for i in range(n) if m >> i & 1) for m in range(1 << n)]
             for p in itertools.permutations(range(n))]
    return [[p[m ^ x] for m in range(1 << n)] for x in range(1 << n) for p in perms]


def _least_image(n, masks):
    # the least of masks' 2^n * n! images under B_n as sorted tuples: for sets
    # of one size, the tuple order is the search's, least mask of the
    # symmetric difference first
    return min(tuple(sorted(map(g.__getitem__, masks))) for g in _bn_maps(n))


def _xor_images(n, masks):
    # per x in masks, masks ^ x under every permutation, packed as the search
    # packs them: each mask keyed by its complement
    keys, _ = _permutation_keys(n)
    flip = (1 << n) - 1
    return [functools.reduce(operator.or_, [keys[m ^ x ^ flip] for m in masks]) for x in masks]


def _orbit_test(n, masks):
    # the search's canonicity test of masks (ascending, 0 first, two or more),
    # given its prefix's images built here from scratch
    *small, a = masks
    return _least_in_orbit(small, _xor_images(n, small), a, *_permutation_keys(n), 1 << n)


def _sets_with_zero(n, sizes):
    for k in sizes:
        for rest in itertools.combinations(range(1, 1 << n), k - 1):
            yield (0, *rest)


def test_orbit_test_matches_brute_force():
    # S passes iff it is least among its 2^n * n! images, and a passing S
    # comes back with its own images, as they are built from scratch
    checked = Counter()
    for n, sizes in ((3, range(2, 9)), (4, range(2, 6))):
        for masks in _sets_with_zero(n, sizes):
            kids = _orbit_test(n, masks)
            assert bool(kids) == (_least_image(n, masks) == masks), masks
            assert not kids or kids == _xor_images(n, masks)
            checked[n, bool(kids)] += 1
    # every S with 0 and |S| >= 2 (<= 5 at n = 4), of which one per B_n orbit
    # passes: 20 orbits at n = 3, and 4 + 6 + 19 + 27 at n = 4
    assert sum(checked.values()) == 127 + 1_940
    assert checked[3, True] == 20 and checked[4, True] == 56


@pytest.mark.parametrize("n, size, orbits", [(4, 8, 74), (5, 5, 131)])
def test_orbit_test_passes_one_set_per_orbit(n, size, orbits):
    # the B_n orbits of size-subsets of [n]'s masks, one least member each
    passed = sum(1 for masks in _sets_with_zero(n, [size]) if _orbit_test(n, masks))
    assert passed == orbits


@pytest.mark.parametrize("n", [3, 4])
def test_orbit_test_is_hereditary(n):
    # a passing S still passes without its largest mask, so the walk, which
    # grows S in ascending order from passing prefixes, reaches every orbit
    passed = {(0,)} | {m for m in _sets_with_zero(n, range(2, (1 << n) + 1)) if _orbit_test(n, m)}
    assert all(masks[:-1] in passed for masks in passed if len(masks) >= 2)
    assert len(passed) == {3: 21, 4: 401}[n]  # the B_n orbits of nonempty sets


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_search_optimum_is_canonical(n):
    # the smaller family holding 0, the one the search enumerates, is least
    # among its images under every common XOR and coordinate permutation
    res = exhaustive_pair_search(n)
    small = min((f.members for f in (res.f1, res.f2) if f.members[0] == 0), key=len)
    assert len(small) == min(len(res.f1), len(res.f2))
    assert _least_image(n, small) == small


def test_search_n1():
    res = exhaustive_pair_search(1)
    assert res.exact
    assert res.product == 2
    assert (res.f1.members, res.f2.members) == ((0,), (0, 1))


def test_search_n2():
    res = exhaustive_pair_search(2)
    assert res.exact
    assert res.product == 6
    assert (res.f1.members, res.f2.members) == ((0, 1, 2), (0, 3))


def test_search_n3():
    res = exhaustive_pair_search(3)
    assert res.exact
    assert res.product == 14
    assert (res.f1.members, res.f2.members) == ((0, 1, 2, 3, 4, 5, 6), (0, 7))


def test_search_matches_naive_n2():
    best = 0
    for f1 in all_duplicate_free_families(2):
        for f2 in all_duplicate_free_families(2):
            if naive_union_free(f1, f2):
                best = max(best, len(f1) * len(f2))
    assert best == exhaustive_pair_search(2).product


def test_search_results_are_union_free_and_capped():
    for n in (1, 2, 3):
        res = exhaustive_pair_search(n)
        assert is_multiset_union_free(res.f1, res.f2)
        assert res.product <= 3**n


def test_search_budget_exhaustion_is_flagged():
    res = exhaustive_pair_search(3, budget_secs=0.0005)
    assert not res.exact
    assert res.nodes <= 75  # 0.0005 s * 150000 nodes/s
    assert (res.product, res.f1.members, res.f2.members) == (12, (0, 1, 2), (0, 3, 4, 7))


def test_search_budget_spent_before_first_pair_raises():
    # n = 1 has no product seed: 2e-5 s is 3 nodes, spent before the first
    # clique of S = (0,) gets a member
    message = r"budget 2e-05 s \(3 nodes\) ran out before the first pair"
    with pytest.raises(ValueError, match=message):
        exhaustive_pair_search(1, budget_secs=2e-5)
    assert exhaustive_pair_search(1, budget_secs=2.7e-5).product == 1  # 4 nodes: clique (0,)
    assert exhaustive_pair_search(1, budget_secs=3.4e-5).product == 2  # 5 nodes: clique (0, 1)
    assert _product_seed(1) == (0, ((), ()))
    # from n = 2 on, the same budget returns the product seed
    for n in (2, 3, 4, 5):
        res = exhaustive_pair_search(n, budget_secs=2e-5)
        seed, pair = _product_seed(n)
        assert (res.product, res.exact, res.nodes) == (seed, False, 3)
        assert (res.f1.members, res.f2.members) == min(pair, pair[::-1])


@pytest.mark.parametrize("n, product", [(2, 4), (3, 12), (4, 36), (5, 84), (6, 216)])
def test_product_seed(n, product):
    # P(n) = max opt(a) * opt(n - a) over 1 <= a <= n / 2, with opt = 2, 6, 14, 36, 90
    seed, (f1, f2) = _product_seed(n)
    assert seed == product == len(f1) * len(f2)
    assert f1 == tuple(sorted(set(f1))) and f2 == tuple(sorted(set(f2)))
    assert is_multiset_union_free(Family(n, f1), Family(n, f2))
    sums = {tuple((a >> i & 1) + (c >> i & 1) for i in range(n)) for a in f1 for c in f2}
    assert len(sums) == product


def test_search_deterministic():
    a = exhaustive_pair_search(3)
    b = exhaustive_pair_search(3)
    assert a == b


def test_search_validation():
    with pytest.raises(ValueError):
        exhaustive_pair_search(0)
    with pytest.raises(ValueError):
        exhaustive_pair_search(7)
    with pytest.raises(ValueError):
        exhaustive_pair_search(3, budget_secs=0.0)
    with pytest.raises(ValueError, match="budget must be positive"):
        exhaustive_pair_search(3, budget_secs=math.inf)
    with pytest.raises(ValueError, match="budget must be positive"):
        exhaustive_pair_search(3, budget_secs=math.nan)
    # finite, but its node count budget_secs * SEARCH_NODES_PER_SEC is not
    with pytest.raises(ValueError, match="budget must be positive and finite, got 1e\\+308"):
        exhaustive_pair_search(3, budget_secs=1e308)
    # an int too large for a float is still finite: the search runs to the end
    assert exhaustive_pair_search(3, budget_secs=10**400).exact


_N5_FOUND_84 = (0, 1, 2, 15, 29, 30), (3, 4, 7, 8, 11, 12, 15, 16, 19, 20, 23, 24, 27, 28)
_N5_OPTIMUM = (0, 3, 12, 21, 26, 31), (0, 6, 7, 9, 11, 13, 14, 15, 16, 17, 18, 20, 22, 24, 25)


@pytest.mark.parametrize(
    "n, budget, product, nodes, f1, f2",
    [
        (3, 0.0009, 12, 135, (0, 1, 2), (0, 3, 4, 7)),
        (4, 0.01, 36, 1_500, (0, 1, 2, 7, 13, 14), (3, 4, 7, 8, 11, 12)),
        (5, 0.1, 84, 15_000, tuple(a | b << 2 for b in range(7) for a in range(3)), (0, 3, 28, 31)),
        (5, 0.5, 84, 75_000, *_N5_FOUND_84),
        (5, 233_162 / 150_000, 84, 233_162, *_N5_FOUND_84),
        (5, 233_163 / 150_000, 90, 233_163, *_N5_OPTIMUM),
    ],
    ids=["n3", "n4", "n5", "n5-found", "n5-last-84", "n5-first-90"],
)
def test_search_results_pinned(n, budget, product, nodes, f1, f2):
    # budget-limited runs: the node count and incumbent pin the enumeration
    # order, the prune rules and the symmetry cut, not only the optimum; at
    # n = 5 one run ends on the product seed (21 x 4) and one on a found pair
    # of the same size P = 84 (6 x 14), and product is |f1| * |f2| in both;
    # the last two rows pin the node at which the n = 5 optimum 90 is first
    # met: one node less of budget still returns the found 84
    res = exhaustive_pair_search(n, budget_secs=budget)
    assert (res.product, res.exact, res.nodes) == (product, False, nodes)
    assert (res.f1.members, res.f2.members) == (f1, f2)
    assert (res.f1, res.f2) == (Family(n, res.f1.members), Family(n, res.f2.members))
    assert is_multiset_union_free(res.f1, res.f2)
    sums = {tuple((a >> i & 1) + (c >> i & 1) for i in range(n)) for a in f1 for c in f2}
    assert len(sums) == len(f1) * len(f2) == product


@pytest.mark.parametrize("n", range(1, 6))
def test_exact_search_returns_valid_families(n):
    # the result families skip Family's checks: they must equal checked ones
    res = exhaustive_pair_search(n)
    assert res.exact
    assert (res.f1, res.f2) == (Family(n, res.f1.members), Family(n, res.f2.members))


def test_complement_pair_count_capped():
    # for a union-free pair, the members pairing to exact complements inside
    # any S have distinct sums outside S, so their count is at most 3^(n-|S|)
    rng = np.random.default_rng(53)
    pairs = [(exhaustive_pair_search(n).f1, exhaustive_pair_search(n).f2) for n in (2, 3)]
    for _ in range(30):
        n = int(rng.integers(2, 5))
        s1 = int(rng.integers(1, 5))
        f1 = Family(n, tuple(int(m) for m in rng.choice(1 << n, size=s1, replace=False)))
        members = []
        for m in rng.permutation(1 << n):
            cand = Family(n, tuple(members + [int(m)]))
            if is_multiset_union_free(f1, cand):
                members.append(int(m))
        if members:
            pairs.append((f1, Family(n, tuple(members))))
    for f1, f2 in pairs:
        n = f1.n
        for s_mask in range(1, 1 << n):
            comp = 3 ** (n - s_mask.bit_count())
            c1 = project(f1, s_mask)
            c2 = project(f2, s_mask)
            count = 0
            for u, cnt in c1.items():
                count += cnt * c2[s_mask ^ u]
            assert count <= comp, (f1.members, f2.members, s_mask)


# ------------------------------------------------------------------ text format


def test_family_text_fixture():
    f = Family(2, (0, 1, 2))
    assert family_to_text(f) == "n=2\n-\n1\n2\n"
    assert family_from_text(family_to_text(f)) == f


@pytest.mark.parametrize("n", [3, 20])
def test_empty_family_text_is_its_header_line(n):
    # below and past the line table's cap
    f = Family(n, ())
    assert family_to_text(f) == f"n={n}\n"
    assert family_from_text(family_to_text(f)) == f


def test_family_text_roundtrip_random():
    rng = np.random.default_rng(61)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        size = int(rng.integers(0, min(2**n, 20) + 1))
        members = tuple(int(m) for m in rng.integers(0, 1 << n, size=size))
        f = Family(n, members)
        assert family_from_text(family_to_text(f)) == f


def reference_text(f):
    # one element per set bit, bit by bit
    lines = [f"n={f.n}"]
    for m in f.members:
        lines.append(",".join(str(i + 1) for i in range(f.n) if m >> i & 1) or "-")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 33, 63, 64])
def test_family_text_bytes_across_byte_boundaries(n):
    rng = random.Random(n)
    full = (1 << n) - 1
    # a bit in every byte, both ends of every byte, and runs of members that
    # share their bits from bit 8 up or their low byte
    every_byte = sum(1 << i for i in range(0, n, 8)) | sum(1 << i for i in range(7, n, 8))
    members = [0, full, every_byte, full ^ every_byte, 1 << (n - 1)]
    for _ in range(40):
        m = rng.getrandbits(n)
        members += [m, m ^ 1, m | 255 & full, m & ~255, (m + 256) & full]
    f = Family(n, members)
    text = family_to_text(f)
    assert text == reference_text(f)
    assert family_from_text(text) == f


@pytest.mark.parametrize("n", range(1, 11))
def test_line_table_is_every_mask_text_and_its_inverse(n):
    lines, masks = _line_table(n)
    assert lines == tuple(map(_mask_line, range(1 << n)))
    for m, ln in enumerate(lines):
        assert family_to_text(Family(n, (m,))) == reference_text(Family(n, (m,))) == f"n={n}\n{ln}\n"
        assert masks[ln] == m
    assert len(masks) == len(lines) == 1 << n


def test_line_table_at_its_cap_is_the_per_mask_writer():
    assert _line_table(_LINE_TABLE_N)[0] == tuple(map(_mask_line, range(1 << _LINE_TABLE_N)))


def test_family_to_text_builds_no_line_table():
    # one family is written mask by mask: only a system's writer reads the table
    before = _line_table.cache_info()
    assert family_to_text(Family(_LINE_TABLE_N, (0, 5, 1 << 14 | 3))) == "n=15\n-\n1,3\n1,2,15\n"
    assert _line_table.cache_info() == before


def test_family_from_text_builds_no_line_table():
    # one family is read line by line, canonical header or not: only a
    # system's reader looks lines up in the table
    text = "n=15\n-\n1,3\n1,2,15\n"
    before = _line_table.cache_info()
    got = [family_from_text(text), family_from_text(text.replace("n=15", "n=015"))]
    assert _line_table.cache_info() == before
    pair = json.dumps([text, text])
    u = system_from_json(f'{{"n": 15, "m0": 1, "m1": 3, "m2": 3, "pairs": [{pair}]}}')
    assert got == [u.pairs[0][0]] * 2 == [Family(_LINE_TABLE_N, (0, 5, 1 << 14 | 3))] * 2


def _table_texts(n):
    # plain lines unsorted or repeated and "-"; a leading zero, a blank line
    # and a repeated element, which only family_from_text's full grammar reads
    return [
        f"n={n}\n3,1\n1,3\n3,1\n-\n{n}\n",
        f"n={n}\n-\n2,1\n",
        f"n={n}\n01,2\n\n{n},1\n-\n",
        f"n={n}\n2,2\n3,1\n",
        f"n={n}\n2\n1,3\n",
    ]


# a last text that reads, or fails as family_from_text does, after _table_texts
_TABLE_ENDS = [
    ("", None),
    ("n={n}\n3,1\n{top}\n", "element {top} outside [1, {n}]"),
    ("n={n}\n-\n1,x\n", "bad element 'x' in line '1,x'"),
    ("n={n}\n1\n03,{top}\n", "element {top} outside [1, {n}]"),
]


@pytest.mark.parametrize("n", [3, 12, _LINE_TABLE_N])
@pytest.mark.parametrize("last, want", _TABLE_ENDS)
def test_read_families_up_to_the_table_cap_keeps_the_table(n, last, want):
    texts = _table_texts(n) + ([last.format(n=n, top=n + 1)] if last else [])
    fams, err = assert_read_as_text_by_text(texts)
    assert err == (want and want.format(n=n, top=n + 1))
    assert [f.members for f in fams[:2]] == [tuple(sorted((0, 1 << (n - 1), 5, 5, 5))), (0, 3)]
    # the reads left the table as built: "3,1" and "2,1" are not in it
    lines, masks = _line_table(n)
    assert len(masks) == 1 << n and "3,1" not in masks and "2,1" not in masks
    assert masks == dict(zip(lines, range(1 << n)))


@pytest.mark.parametrize("n", [_LINE_TABLE_N + 1, 64])
@pytest.mark.parametrize("last, want", _TABLE_ENDS)
def test_read_families_past_the_table_cap(n, last, want):
    # the same texts and ends as up to the cap, with no table to look lines up in
    texts = _table_texts(n) + ([last.format(n=n, top=n + 1)] if last else [])
    fams, err = assert_read_as_text_by_text(texts)
    assert err == (want and want.format(n=n, top=n + 1))
    assert [f.members for f in fams[:2]] == [tuple(sorted((0, 1 << (n - 1), 5, 5, 5))), (0, 3)]


@pytest.mark.parametrize("n", [_LINE_TABLE_N + 1, 64])
def test_read_families_past_the_table_cap_reads_repeated_texts(n):
    texts = _table_texts(n)
    want = [family_from_text(t) for t in texts]
    assert list(_read_families(texts + texts)) == want * 2


def _small_families(n):
    # 0, 1 and 2 members: itemgetter returns a bare item for one key and refuses none
    return [Family(n, ()), Family(n, (0,)), Family(n, (5,)), Family(n, (1 << (n - 1), 3))]


@pytest.mark.parametrize("n", [3, _LINE_TABLE_N, _LINE_TABLE_N + 1])
@pytest.mark.parametrize("nl", ["\n", "\\n"])
def test_family_texts_of_small_families(n, nl):
    fams = _small_families(n)
    assert list(_family_texts(fams, n, nl)) == [family_to_text(f).replace("\n", nl) for f in fams]


@pytest.mark.parametrize("n", [3, _LINE_TABLE_N])
def test_read_families_of_small_texts(n):
    texts = [family_to_text(f) for f in _small_families(n)]
    # member lines the table misses, alone and after a hit: family_from_text reads those texts
    texts += [f"n={n}\n2,1\n", f"n={n}\n01\n", f"n={n}\n-\n3,1\n"]
    assert list(_read_families(texts)) == list(map(family_from_text, texts))
    assert [f.members for f in _read_families(texts[-3:])] == [(3,), (1,), (0, 5)]


def test_family_text_fixture_above_one_byte():
    f = Family(12, (0, 255, 256, 257, 0xFFF, 0x900))
    assert family_to_text(f) == (
        "n=12\n-\n1,2,3,4,5,6,7,8\n9\n1,9\n9,12\n1,2,3,4,5,6,7,8,9,10,11,12\n"
    )


def _reference_family(text):
    # family_from_text as documented, line by line and without a memo
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("family text must start with an n=<int> line")
    try:
        n = int(lines[0][2:])
    except ValueError:
        raise ValueError(f"bad ground set line {lines[0]!r}") from None
    if not 1 <= n <= 64:
        raise ValueError(f"ground set size {n} outside [1, 64]")
    members = []
    for ln in lines[1:]:
        m = 0
        for part in [] if ln == "-" else ln.split(","):
            try:
                elem = int(part)
            except ValueError:
                raise ValueError(f"bad element {part!r} in line {ln!r}") from None
            if not 1 <= elem <= n:
                raise ValueError(f"element {elem} outside [1, {n}]")
            m |= 1 << (elem - 1)
        members.append(m)
    return Family(n, members)


def _each(read, texts):
    # the families read before the first error, and that error's message
    fams = []
    try:
        for f in read(texts):
            fams.append(f)
    except ValueError as exc:
        return fams, str(exc)
    return fams, None


def _text_by_text(parse):
    return lambda texts: map(parse, texts)


def assert_read_as_text_by_text(texts):
    # one read of all the texts reads each as family_from_text alone and as the reference
    got = _each(_read_families, texts)
    assert got == _each(_text_by_text(family_from_text), texts)
    assert got == _each(_text_by_text(_reference_family), texts)
    return got


@pytest.mark.parametrize(
    "texts, want",
    [
        # CRLF endings, alone and after the same lines ended by "\n"
        (["n=3\r\n1,2\r\n-\r\n"], [(0, 3)]),
        (["n=3\n1,2\n3\n", "n=3\r\n1,2\r\n3\r\n"], [(3, 4)] * 2),
        # "\x0c" and "\u2028" end a line inside a "\n" line
        (["n=3\n1,2\n", "n=3\n1\x0c2\n", "n=3\n1\u20282\n"], [(3,), (1, 2), (1, 2)]),
        # canonical in one family, padded with blanks in a later one
        (["n=3\n1,3\n", "n=3\n 1,3 \n\t1,3\n1,3\n"], [(5,), (5, 5, 5)]),
        (["n=3\n 2 \n", "n=3\n2\n"], [(2,), (2,)]),
        # blank lines, before the header too, and a text with no last newline
        (["n=3\n\n1\n\n", "\nn=3\n1\n\n\n2\n", "n=3\n1\n2"], [(1,), (1, 2), (1, 2)]),
        # "-" first seen in the middle of a text, then as a hit
        (["n=3\n1\n2\n", "n=3\n1\n-\n2\n", "n=3\n-\n"], [(1, 2), (0, 1, 2), (0,)]),
        # headers that are not canonical
        (["n=3\n1\n", "n=03\n1\n", " n=3 \n1\n", "n=3"], [(1,), (1,), (1,), ()]),
        # a repeated line inside one text, first as a miss
        (["n=3\n2,1\n2,1\n1,2\n1,2\n", "n=3\n1,2\n"], [(3, 3, 3, 3), (3,)]),
    ],
)
def test_read_families_reads_each_text_as_family_from_text(texts, want):
    fams, err = assert_read_as_text_by_text(texts)
    assert err is None
    assert [f.members for f in fams] == want


@pytest.mark.parametrize(
    "texts, want",
    [
        # a bad line after table hits, and after a miss read plainly
        (["n=3\n1\n2\n", "n=3\n1\n2\n1,x\n2\n"], "bad element 'x' in line '1,x'"),
        (["n=3\n1\n2\n", "n=3\n1\n3\n2\n4\n1,x\n"], "element 4 outside [1, 3]"),
        (["n=3\n1,2\n", "n=3\n1,2\n 4\n"], "element 4 outside [1, 3]"),
        # a line seen for another n is no hit
        (["n=3\n1,3\n", "n=2\n1,3\n"], "element 3 outside [1, 2]"),
        (["n=3\n1\n", ""], "family text must start with an n=<int> line"),
        (["n=3\n1\n", "n=3\r\n1\r\nx\r\n"], "bad element 'x' in line 'x'"),
        (["n=3\n1\n", "n=65\n1\n"], "ground set size 65 outside [1, 64]"),
    ],
)
def test_read_families_stops_at_the_error_family_from_text_gives(texts, want):
    fams, err = assert_read_as_text_by_text(texts)
    assert err == want
    assert len(fams) == len(texts) - 1


# lines and line ends that the table read, then family_from_text's grammar, meet
_tricky_line = st.sampled_from(
    ["n=3", "n=2", "n=03", "1", "2", "3", "1,2", "2,3", "1,3", "1,2,3", "-", " 1", "2 ", "01",
     "1,1", "", " ", "4", "x", "1,", "+2"]
)
_tricky_text = st.tuples(
    st.lists(_tricky_line, max_size=6), st.sampled_from(["\n", "\n", "\r\n", "\x0c", "\u2028"])
).map(lambda t: t[1].join(t[0]))
_header_text = st.tuples(st.sampled_from(["n=3", "n=2"]), _tricky_text).map("\n".join)


@given(st.lists(st.one_of(_header_text, _tricky_text), min_size=1, max_size=4))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_read_families_fuzz_against_text_by_text(texts):
    assert_read_as_text_by_text(texts)


# non-canonical member lines on n=10: elements are read like int()
NONCANONICAL_LINES = [
    ("1, 2", (3,)),
    ("+1,03", (5,)),
    ("1,1", (1,)),
    ("2,+1", (3,)),
    ("1 ,3", (5,)),
    ("1_0", (512,)),
    ("10", (512,)),
    ("1,,2", "bad element '' in line '1,,2'"),
    (",", "bad element '' in line ','"),
    ("-1", "element -1 outside [1, 10]"),
    ("0", "element 0 outside [1, 10]"),
    ("11", "element 11 outside [1, 10]"),
    ("3,-", "bad element '-' in line '3,-'"),
    ("1,x,11", "bad element 'x' in line '1,x,11'"),
    ("1,11,x", "element 11 outside [1, 10]"),
]


@pytest.mark.parametrize("line, want", NONCANONICAL_LINES)
def test_family_from_text_noncanonical_lines(line, want):
    text = f"n=10\n4\n{line}\n"
    if isinstance(want, str):
        with pytest.raises(ValueError) as exc:
            family_from_text(text)
        assert str(exc.value) == want
    else:
        assert family_from_text(text).members == tuple(sorted((8, *want)))


def test_family_from_text_blank_and_indented_lines():
    text = "\n  n=10  \n\n   \n  2,1  \n\t-\n\n 10\t\n"
    assert family_from_text(text) == Family(10, (0, 3, 512))


def test_family_text_errors():
    with pytest.raises(ValueError):
        family_from_text("3\n1,2\n")
    with pytest.raises(ValueError):
        family_from_text("n=two\n")
    with pytest.raises(ValueError):
        family_from_text("n=2\n1,3\n")
    with pytest.raises(ValueError):
        family_from_text("n=2\n1,x\n")


# numerals with signs, underscores and blanks, small ones more often
_number = st.one_of(st.integers(-2, 70).map(str), st.text("+-_ 0123456789", min_size=1, max_size=22))
_member_line = st.one_of(
    st.just("-"), st.lists(_number, min_size=1, max_size=4).map(",".join), st.text(max_size=8)
)
family_texts = st.one_of(
    st.text(),
    st.tuples(_number, st.lists(_member_line, max_size=6)).map(
        lambda t: "\n".join(["n=" + t[0], *t[1]])
    ),
)


@given(family_texts)
@settings(max_examples=200, derandomize=True, deadline=None)
@example("n=99999999999999999999\n99999999999999999999")
def test_family_from_text_fuzz(text):
    # any text is either a family that round-trips or a ValueError
    try:
        f = family_from_text(text)
    except ValueError:
        return
    assert family_from_text(family_to_text(f)) == f


# family texts, and one-member ones on n = 2 (some spelled loosely) that make
# whole systems with m1 = m2 = 1
_system_text = st.one_of(
    family_texts, st.sampled_from(["n=2\n-\n", "n=2\n1\n", "n=2\n+2, 01\n", "n=2\n1,2\n"])
)


@given(st.lists(st.lists(_system_text, min_size=2, max_size=2), min_size=1, max_size=3))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_system_from_json_reads_texts_as_family_from_text(pairs):
    # system JSON holds family texts: system_from_json reads each as
    # family_from_text does, in pair order, and stops at the first it rejects
    text = json.dumps({"n": 2, "m0": len(pairs), "m1": 1, "m2": 1, "pairs": pairs})
    fams = []
    for t in itertools.chain.from_iterable(pairs):
        try:
            fams.append(family_from_text(t))
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                system_from_json(text)
            assert str(got.value) == str(exc)
            return
    if any(f.n != 2 or len(f) != 1 for f in fams):
        with pytest.raises(ValueError):
            system_from_json(text)
        return
    u = system_from_json(text)
    assert [f for pair in u.pairs for f in pair] == fams
