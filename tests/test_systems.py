"""Tests for union-free systems: validity, the log2(3) family, the reduction."""

import hashlib
import itertools
import json
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adderbound import families, verify
from adderbound.bounds import LOG2_3
from adderbound.families import (
    Family,
    exhaustive_pair_search,
    is_multiset_union_free,
    max_k_shattered,
)
from adderbound.systems import (
    DerivationError,
    SystemRates,
    UnionFreeSystem,
    derive_system,
    is_valid_system,
    log3_construction,
    system_from_json,
    system_json_chunks,
    system_rates,
    system_to_json,
    validate_system,
)
from adderbound.verify import run_suite


# ------------------------------------------------------------------ the type


def test_system_requires_pairs():
    with pytest.raises(ValueError):
        UnionFreeSystem(2, ())


def test_system_cardinality_mismatch_names_index():
    a = Family(2, (0,))
    b = Family(2, (1,))
    c = Family(2, (2, 3))
    with pytest.raises(ValueError, match="pair 1"):
        UnionFreeSystem(2, ((a, b), (c, b)))
    with pytest.raises(ValueError, match="pair 1"):
        UnionFreeSystem(2, ((a, b), (b, c)))


def test_system_ground_mismatch():
    with pytest.raises(ValueError, match="pair 0"):
        UnionFreeSystem(3, ((Family(2, (0,)), Family(2, (1,))),))


LOG3_3 = log3_construction(3)
INTEGER_PARAMETERS = {
    "UnionFreeSystem": ("ground set size", 3, lambda v: UnionFreeSystem(v, LOG3_3.pairs)),
    "log3_construction": ("n", 3, lambda v: log3_construction(v)),
    "derive_system": ("k", 1, lambda v: derive_system(Family(2, (0, 1, 2, 3)), Family(2, (0,)), 0b01, v)),
}


@pytest.mark.parametrize("name, good, call", INTEGER_PARAMETERS.values(), ids=INTEGER_PARAMETERS.keys())
def test_integer_parameters_reject_non_integers(name, good, call):
    # a float, even a whole one, a bool or text is a one-line ValueError,
    # never a truncation or a TypeError; numpy ints give what Python ints give
    for bad in (1.5, 3.0, True, "3", None, np.float64(good)):
        with pytest.raises(ValueError) as exc:
            call(bad)
        assert str(exc.value) == f"{name} {bad!r} is not an integer"
    assert call(np.int64(good)) == call(good)


def test_system_stores_an_int_ground_set_size():
    # a numpy n is stored as an int, so the system validates and serializes
    u = UnionFreeSystem(np.int64(3), LOG3_3.pairs)
    assert type(u.n) is int and u == LOG3_3
    assert validate_system(u) is None
    assert system_to_json(u) == system_to_json(LOG3_3)


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([((), (1,))], "pair 0: first family is empty"),
        ([((1,), ())], "pair 0: second family is empty"),
        ([((), ())], "pair 0: first family is empty"),
        ([((1,), (2,)), ((1,), ())], "pair 1: second family is empty"),
    ],
)
def test_system_rejects_empty_families(pairs, message):
    with pytest.raises(ValueError) as exc:
        UnionFreeSystem(3, tuple((Family(3, a), Family(3, c)) for a, c in pairs))
    assert str(exc.value) == message


def test_system_keeps_pairs_as_tuples():
    # lists of pairs, or of lists, make the same hashable system as tuples do
    u = log3_construction(3)
    for pairs in (list(u.pairs), [list(pair) for pair in u.pairs]):
        v = UnionFreeSystem(3, pairs)
        assert v == u and hash(v) == hash(u)
        assert type(v.pairs) is tuple and all(type(pair) is tuple for pair in v.pairs)


@pytest.mark.parametrize(
    "pairs, message",
    [
        (((1, 2),), "pair 0 is not two families"),
        (((Family(3, (1,)),),), "pair 0 is not two families"),
        (((Family(3, (1,)),) * 3,), "pair 0 is not two families"),
        ((Family(3, (1,)),), "pair 0 is not two families"),
        ((None,), "pair 0 is not two families"),
        (((Family(3, (1,)), (2,)),), "pair 0 is not two families"),
        (((Family(3, (1,)), Family(3, (2,))), (Family(3, (4,)), 5)), "pair 1 is not two families"),
        # pairs are checked in order: a bad pair 1 comes before a malformed pair 2
        (
            ((Family(3, (1,)), Family(3, (2,))), (Family(2, (1,)), Family(2, (2,))), (0, 0)),
            "pair 1 lives on a different ground set",
        ),
    ],
    ids=["ints", "one family", "three families", "a bare family", "None", "a family and a tuple",
         "second pair", "in order"],
)
def test_system_rejects_malformed_pairs(pairs, message):
    with pytest.raises(ValueError) as exc:
        UnionFreeSystem(3, pairs)
    assert str(exc.value) == message


def test_system_m_properties():
    u = UnionFreeSystem(2, ((Family(2, (0,)), Family(2, (1, 2))),))
    assert (u.m0, u.m1, u.m2) == (1, 1, 2)


# ------------------------------------------------------------------- validity


def test_single_union_free_pair_is_valid():
    u = UnionFreeSystem(2, ((Family(2, (0, 3)), Family(2, (0, 1, 2))),))
    assert is_valid_system(u)
    assert validate_system(u) is None


def test_shared_sum_across_pairs_invalid():
    a = Family(1, (0,))
    b = Family(1, (0,))
    u = UnionFreeSystem(1, ((a, b), (a, b)))
    assert not is_valid_system(u)
    assert "share a sum vector" in validate_system(u)


def test_non_union_free_pair_invalid():
    # {} + {1} = {1} + {} inside the single pair
    u = UnionFreeSystem(1, ((Family(1, (0, 1)), Family(1, (0, 1))),))
    assert "not multiset-union-free" in validate_system(u)


def test_duplicated_member_is_rejected():
    # union-freeness is undefined for a family that repeats a member
    u = UnionFreeSystem(2, ((Family(2, (1, 1)), Family(2, (0, 2))),))
    with pytest.raises(ValueError, match="duplicate-free"):
        validate_system(u)


def pinned_systems():
    rng = random.Random(37)
    base = log3_construction(6)
    out = []
    for _ in range(4):
        pairs = list(base.pairs)
        i, j = rng.sample(range(len(pairs)), 2)
        pairs[j] = pairs[i]
        out.append(UnionFreeSystem(6, tuple(pairs)))
    for _ in range(12):
        n = rng.randint(2, 5)
        pairs = tuple(
            (
                Family(n, tuple(rng.sample(range(1 << n), 2))),
                Family(n, tuple(rng.sample(range(1 << n), 2))),
            )
            for _ in range(rng.randint(1, 4))
        )
        out.append(UnionFreeSystem(n, pairs))
    return out


# validate_system on pinned_systems(), as recorded when it still called
# is_multiset_union_free and spread every member a second time
PINNED_REASONS = [
    "pairs 9 and 10 share a sum vector",
    "pairs 1 and 9 share a sum vector",
    "pairs 10 and 13 share a sum vector",
    "pairs 11 and 13 share a sum vector",
    "pairs 0 and 1 share a sum vector",
    "pair 1 is not multiset-union-free",
    None,
    "pair 0 is not multiset-union-free",
    "pair 2 is not multiset-union-free",
    None,
    None,
    "pairs 0 and 2 share a sum vector",
    "pairs 0 and 1 share a sum vector",
    "pair 0 is not multiset-union-free",
    "pairs 0 and 1 share a sum vector",
    None,
]


def test_validate_system_reasons_pinned():
    assert [validate_system(u) for u in pinned_systems()] == PINNED_REASONS


def test_pair_colliding_inside_and_across_is_not_union_free():
    # pair 1 repeats sum (1, 0) itself and meets pair 0's sums 0 and (1, 0)
    u = UnionFreeSystem(
        2, ((Family(2, (0, 2)), Family(2, (0, 1))), (Family(2, (0, 1)), Family(2, (0, 1))))
    )
    assert validate_system(u) == "pair 1 is not multiset-union-free"


@pytest.mark.parametrize("later, j", [(1 << 33 | 1 << 5, 1), ((1 << 63 | 1 << 40) + 1, 0)])
def test_collision_names_the_owner_of_the_first_shared_sum(later, j):
    # pair 2's sums are its second family, ascending: c < a, but a < a + 1;
    # sum a is pair 0's, sum c pair 1's
    a = 1 << 63 | 1 << 40
    c = 1 << 33 | 1 << 5
    u = UnionFreeSystem(
        64,
        (
            (Family(64, (a,)), Family(64, (0, 1 << 50))),
            (Family(64, (c,)), Family(64, (0, 1 << 45))),
            (Family(64, (0,)), Family(64, (later, a))),
        ),
    )
    assert validate_system(u) == f"pairs {j} and 2 share a sum vector"


def _dict_validate(u):
    """validate_system as one dict of every exact sum, pair by pair, a-major."""
    seen = {}
    for i, (f1, f2) in enumerate(u.pairs):
        if len(set(f1.members)) != len(f1) or len(set(f2.members)) != len(f2):
            raise ValueError("union-freeness is only defined for duplicate-free families")
        # binary digits read in base 4 never carry in a sum of two
        sums = [int(f"{a:b}", 4) + int(f"{c:b}", 4) for a in f1.members for c in f2.members]
        mine = dict.fromkeys(sums, i)
        if len(mine) != len(sums):
            return f"pair {i} is not multiset-union-free"
        if not seen.keys().isdisjoint(mine):
            j = next(seen[key] for key in sums if key in seen)
            return f"pairs {j} and {i} share a sum vector"
        seen.update(mine)
    return None


def _outcome(validate, u):
    try:
        return validate(u)
    except ValueError as exc:
        return (type(exc), str(exc))


def _random_system(rng, n, shared_low):
    # a small pool makes collisions likely; shared_low gives every member the
    # same low 32 coordinates, so all sums share their window key
    size = rng.choice([2, 3, 5, 12, 40])
    if shared_low:
        low = rng.getrandbits(32)
        pool = list({low | rng.getrandbits(n - 32) << 32 for _ in range(size)})
    else:
        pool = list({rng.getrandbits(n) for _ in range(size)})
    m0, m1, m2 = rng.randint(1, 5), rng.randint(1, min(3, len(pool))), rng.randint(1, min(4, len(pool)))

    def family(m):
        draw = rng.choices if rng.random() < 0.05 else rng.sample
        return Family(n, tuple(draw(pool, k=m)))

    pairs = [(family(m1), family(m2)) for _ in range(m0)]
    if m0 > 1 and rng.random() < 0.2:
        i, j = rng.sample(range(m0), 2)
        pairs[j] = pairs[i]
    return UnionFreeSystem(n, tuple(pairs))


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 12, 16, 17, 32, 33, 39, 40, 41, 64])
def test_validate_system_matches_dict_algorithm(n):
    rng = random.Random(1000 + n)
    kinds = set()
    for t in range(400):
        shared_low = n > 32 and t % 2 == 1
        u = _random_system(rng, n, shared_low)
        want = _outcome(_dict_validate, u)
        assert _outcome(validate_system, u) == want, u
        if want is None:
            kinds.add("valid, low words repeat" if shared_low and u.m0 * u.m1 * u.m2 > 1 else "valid")
        elif isinstance(want, tuple):
            kinds.add("repeated member")
        else:
            kinds.add("within a pair" if want.startswith("pair ") else "across pairs")
    expected = {"valid", "within a pair", "across pairs", "repeated member"}
    if n > 32:
        expected.add("valid, low words repeat")
    assert kinds >= expected


def _no_replay(*args, **kwargs):
    raise AssertionError("a sum was replayed")


@pytest.mark.parametrize("n", [8, 9, 16, 17, 32, 33, 64])
def test_validate_system_at_the_key_width_edges(n, monkeypatch):
    # sums that differ only in coordinate n - 1, the last one, or min(n, 32) - 1,
    # the last one the window key holds: {0} + {e} and {e} + {0} agree in a | c,
    # 0 + 0 and 0 + e differ only in a | c, e + e and e + 0 only in a & c
    for e in sorted({n - 1, min(n, 32) - 1}):
        one = 1 << e
        cases = [
            (((Family(n, (0,)), Family(n, (one,))), (Family(n, (one,)), Family(n, (0,)))),
             "pairs 0 and 1 share a sum vector"),
            (((Family(n, (0, one)), Family(n, (0, one))),), "pair 0 is not multiset-union-free"),
            (((Family(n, (0,)), Family(n, (0, one))),), None),
            (((Family(n, (one,)), Family(n, (one,))), (Family(n, (one,)), Family(n, (0,)))), None),
            (((Family(n, (one,)), Family(n, (0, one))),), None),
        ]
        for pairs, want in cases:
            u = UnionFreeSystem(n, pairs)
            assert validate_system(u) == _dict_validate(u) == want, (e, pairs)
            if want is None and e < 32:
                # the window key is exact there, so the sort alone settles it
                with monkeypatch.context() as patch:
                    patch.setattr(np, "isin", _no_replay)
                    assert validate_system(u) is None, (e, pairs)


def test_validate_system_on_the_largest_construction():
    # 3,075,072 sums on uint32 keys; pair 300 written over pair 7 repeats its sums
    u = log3_construction(15)
    assert validate_system(u) is None
    pairs = list(u.pairs)
    pairs[7] = pairs[300]
    assert validate_system(UnionFreeSystem(15, tuple(pairs))) == "pairs 7 and 300 share a sum vector"


def test_distinct_sum_count_iff_valid():
    def distinct_sums(u):
        seen = set()
        for f1, f2 in u.pairs:
            for a in f1.members:
                for c in f2.members:
                    seen.add(tuple((a >> b & 1) + (c >> b & 1) for b in range(u.n)))
        return len(seen)

    good = log3_construction(3)
    assert distinct_sums(good) == good.m0 * good.m1 * good.m2
    assert is_valid_system(good)

    a = Family(1, (0,))
    bad = UnionFreeSystem(1, ((a, a), (a, a)))
    assert distinct_sums(bad) < bad.m0 * bad.m1 * bad.m2
    assert not is_valid_system(bad)


# ------------------------------------------------------------------- rates


def test_rates_trivial_system():
    u = UnionFreeSystem(3, ((Family(3, (5,)), Family(3, (2,))),))
    assert system_rates(u).as_tuple() == (0.0, 0.0, 0.0)


def test_rates_log3_n3():
    r = system_rates(log3_construction(3))
    assert abs(r.r0 - LOG2_3 / 3) <= 1e-15
    assert r.r1 == 0.0
    assert abs(r.r2 - 2.0 / 3.0) <= 1e-15


def test_rates_total_capped_by_log3():
    for n in (3, 6, 9):
        u = log3_construction(n)
        assert is_valid_system(u)
        assert system_rates(u).total <= LOG2_3 + 1e-12


# ------------------------------------------------------------- log3 family


def test_log3_n3_shape():
    u = log3_construction(3)
    assert (u.m0, u.m1, u.m2) == (3, 1, 4)
    assert is_valid_system(u)


def test_log3_sum_rate_increases():
    totals = [system_rates(log3_construction(n)).total for n in (3, 6, 9)]
    assert totals == sorted(totals)
    assert totals[0] < totals[-1] < LOG2_3


def test_log3_validation():
    with pytest.raises(ValueError):
        log3_construction(4)
    with pytest.raises(ValueError):
        log3_construction(18)
    with pytest.raises(ValueError):
        log3_construction(0)


@pytest.mark.parametrize("n", [3, 6, 9, 12])
def test_log3_matches_combinations_and_the_submask_walk(n):
    # pair i is ({F0}, all subsets of F0 ascending) for the i-th 2n/3-subset F0
    want = []
    for combo in itertools.combinations(range(n), 2 * n // 3):
        f0 = sum(1 << i for i in combo)
        want.append(((f0,), tuple(_submasks_by_walk(f0))))
    u = log3_construction(n)
    assert u.n == n
    assert [(f1.members, f2.members) for f1, f2 in u.pairs] == want


@pytest.mark.parametrize("n", [3, 12, 15])
def test_log3_members_share_one_int_per_mask_value(n):
    u = log3_construction(n)
    members = [m for pair in u.pairs for f in pair for m in f.members]
    assert len({id(m) for m in members}) <= 1 << n
    for f1, f2 in u.pairs:
        (f0,) = f1.members
        assert f0 is f2.members[f2.members.index(f0)]


def _traced_peak(fn, *args):
    """fn(*args) and the peak memory traced while it ran, in MiB."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_log3_construction_and_validation_memory_pins():
    # 4.22 and 2.51 MiB when each member was its own int and masks were copied to uint64
    validate_system(log3_construction(3))  # first calls allocate lasting state
    u, built = _traced_peak(log3_construction, 12)
    assert built <= 1.5
    reason, checked = _traced_peak(validate_system, u)
    assert reason is None
    assert checked <= 1.5


def _submasks_by_walk(mask):
    # every submask by the (sub - 1) & mask walk down from mask, reversed
    out = []
    sub = mask
    while True:
        out.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & mask
    return out[::-1]


def test_verify_log3_check_counts_each_rejected_system(monkeypatch):
    monkeypatch.setattr(verify, "is_valid_system", lambda u: False)
    got = {c.name: c for c in run_suite("systems", 0)}["log3-construction-validity"]
    assert (got.passed, got.samples, got.max_violation) == (False, 3, 3.0)


def test_verify_log3_check_counts_totals_that_do_not_increase(monkeypatch):
    # the same rates at n = 3, 6 and 9: the totals tie, which counts once
    monkeypatch.setattr(verify, "system_rates", lambda u: SystemRates(0.5, 0.5, 0.5))
    got = {c.name: c for c in run_suite("systems", 0)}["log3-construction-validity"]
    assert (got.passed, got.samples, got.max_violation) == (False, 3, 1.0)


# ----------------------------------------------------------- derive_system


def test_derive_hand_example():
    f1 = Family(2, (0, 1, 2, 3))
    f2 = Family(2, (0,))
    u, rates = derive_system(f1, f2, 0b01, 1)
    assert u.n == 1
    assert (u.m0, u.m1, u.m2) == (1, 1, 1)
    assert u.pairs[0][0].members == (0,)
    assert u.pairs[0][1].members == (0,)
    assert rates.as_tuple() == (0.0, 0.0, 0.0)
    assert is_valid_system(u)


def test_derive_non_integer_mask():
    with pytest.raises(ValueError, match="^subset mask 1.5 is not an integer$"):
        derive_system(Family(2, (0, 1, 2, 3)), Family(2, (0,)), 1.5, 1)


def test_derive_power_of_two_trim():
    # f2 splits into a single cell of size 3 on S={1}; the trim keeps the two
    # lexicographically smallest members, a power of two at least half of 3
    f1 = Family(3, (0, 1))
    f2 = Family(3, (0, 2, 4))
    u, rates = derive_system(f1, f2, 0b001, 1)
    assert u.n == 2
    assert (u.m0, u.m1, u.m2) == (1, 1, 2)
    assert u.pairs[0][0].members == (0,)
    assert u.pairs[0][1].members == (0, 1)
    assert rates.as_tuple() == (0.0, 0.0, 0.5)
    assert is_valid_system(u)


def test_derive_ground_shrinks_by_s():
    res = exhaustive_pair_search(3)
    mask, size = max_k_shattered(res.f1, 1)
    u, _ = derive_system(res.f1, res.f2, mask, 1)
    assert u.n == 3 - size
    assert is_valid_system(u)


def test_derive_on_searched_pairs():
    for n in (2, 3):
        res = exhaustive_pair_search(n)
        for k in (1, 2):
            if len(res.f1) < k:
                continue
            mask, size = max_k_shattered(res.f1, k)
            if size == 0 or size == n:
                continue
            u, rates = derive_system(res.f1, res.f2, mask, k)
            assert is_valid_system(u)
            assert u.m1 == k
            assert u.m2 & (u.m2 - 1) == 0  # power of two
            assert rates.total <= LOG2_3 + 1e-12


def test_derive_random_pairs_valid():
    rng = np.random.default_rng(71)
    done = 0
    while done < 20:
        n = int(rng.integers(3, 6))
        s1 = int(rng.integers(2, 7))
        f1 = Family(n, tuple(int(m) for m in rng.choice(1 << n, size=s1, replace=False)))
        members = []
        for m in rng.permutation(1 << n):
            cand = Family(n, tuple(members + [int(m)]))
            if is_multiset_union_free(f1, cand):
                members.append(int(m))
            if len(members) >= 6:
                break
        f2 = Family(n, tuple(members))
        mask, size = max_k_shattered(f1, 1)
        if size == 0 or size == n:
            continue
        u, rates = derive_system(f1, f2, mask, 1)
        assert is_valid_system(u)
        assert u.n == n - size
        assert u.m1 == 1
        done += 1


def test_derive_errors():
    f1 = Family(2, (0, 1, 2, 3))
    f2 = Family(2, (0,))
    with pytest.raises(DerivationError, match="whole ground set"):
        derive_system(f1, f2, 0b11, 1)
    # both cells over bit 0 hold two members, so k=2 still shatters; k=3 not
    with pytest.raises(DerivationError, match="not 3-shattered"):
        derive_system(f1, f2, 0b01, 3)
    with pytest.raises(DerivationError, match="empty"):
        derive_system(f1, Family(2, ()), 0b01, 1)
    with pytest.raises(DerivationError, match="not multiset-union-free"):
        derive_system(Family(1, (0, 1)), Family(1, (0, 1)), 0, 1)


# ------------------------------------------------------------------ JSON i/o


def test_json_roundtrip():
    u = log3_construction(3)
    assert system_from_json(system_to_json(u)) == u


@pytest.mark.parametrize(
    "n, digest",
    [
        (3, "ab8254ab4b7a2ab6b9328a4f408f2fdd8ac6bac492dc1208632a0a4b6864e8b3"),
        (6, "7bccec29cb12a828ac954cb1a6c265597e515aed6254526abf4922184c6e37eb"),
        (9, "fb64bfe91b0ef1e849b0dc23a44475062c89ed41901939bbe034167677b398e4"),
        (12, "c9167ae9e27b416407883266284e1daf5080a7cfc0db9028d4ef266d38f8f608"),
    ],
)
def test_log3_json_bytes_pinned(n, digest):
    text = system_to_json(log3_construction(n))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_log3_json_bytes_pinned_at_n15():
    # hashed a chunk at a time, never as the whole 40 MB text
    digest = hashlib.sha256()
    for chunk in system_json_chunks(log3_construction(15)):
        digest.update(chunk.encode())
    assert digest.hexdigest() == "a76a578800c17448f4ce9d7069dde06d221d3853f0331c10f605424b706dbe61"


def reference_json(u):
    # the writer as first built: each family text element by element, then json.dumps
    def text(f):
        lines = [",".join(str(i + 1) for i in range(f.n) if m >> i & 1) or "-" for m in f.members]
        return "\n".join([f"n={f.n}", *lines, ""])

    pairs = [[text(f1), text(f2)] for f1, f2 in u.pairs]
    payload = {"n": u.n, "m0": u.m0, "m1": u.m1, "m2": u.m2, "pairs": pairs}
    return json.dumps(payload, indent=2) + "\n"


def _derived_systems():
    out = []
    for n in (2, 3, 4):
        res = exhaustive_pair_search(n)
        for k in (1, 2):
            mask, size = max_k_shattered(res.f1, k)
            if 0 < size < n:
                out.append(derive_system(res.f1, res.f2, mask, k)[0])
    return out


@pytest.mark.parametrize("n", [3, 6, 9, 12])
def test_system_to_json_matches_json_dumps_on_log3(n):
    u = log3_construction(n)
    text = system_to_json(u)
    assert text == reference_json(u)
    # streamed a pair at a time: the opening, one chunk per pair, the closing
    chunks = list(system_json_chunks(u))
    assert len(chunks) == u.m0 + 2 and "".join(chunks) == text


def test_system_to_json_matches_json_dumps_on_derived_systems():
    systems = _derived_systems()
    assert len(systems) >= 3
    for u in systems:
        assert system_to_json(u) == reference_json(u)
        assert system_from_json(system_to_json(u)) == u


@st.composite
def any_systems(draw):
    # no validity asked: any sizes, repeated members, the empty and the full set
    n = draw(st.integers(1, 64))
    member = st.one_of(st.just(0), st.just((1 << n) - 1), st.integers(0, (1 << n) - 1))
    m0, m1, m2 = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def family(m):
        return st.lists(member, min_size=m, max_size=m).map(lambda ms: Family(n, ms))

    pairs = draw(st.lists(st.tuples(family(m1), family(m2)), min_size=m0, max_size=m0))
    return UnionFreeSystem(n, tuple(pairs))


@given(any_systems())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_system_to_json_matches_json_dumps(u):
    text = system_to_json(u)
    assert text == reference_json(u)
    assert system_from_json(text) == u


def test_system_to_json_one_member_families_and_the_empty_set():
    f0, f1 = Family(64, (0,)), Family(64, ((1 << 64) - 1,))
    u = UnionFreeSystem(64, ((f0, f1), (f1, f0)))
    assert system_to_json(u) == reference_json(u)
    assert system_to_json(u).count('"n=64\\n-\\n"') == 2


@pytest.mark.parametrize("n", [families._LINE_TABLE_N, families._LINE_TABLE_N + 1])
def test_system_to_json_matches_json_dumps_on_both_sides_of_the_table_cap(n):
    # the table's path at n = 15 and the per-mask writer _mask_line past it:
    # every byte of a mask, the empty and the full set
    rng = random.Random(n)
    full = (1 << n) - 1
    members = [0, full, 1, 1 << (n - 1), 255, full ^ 255, *(rng.getrandbits(n) for _ in range(40))]
    pairs = tuple((Family(n, members[i : i + 3]), Family(n, members[-i - 4 : -i - 1])) for i in range(12))
    u = UnionFreeSystem(n, pairs)
    text = system_to_json(u)
    assert text == reference_json(u)
    assert system_from_json(text) == u


def test_system_from_json_reads_leading_zeros():
    payload = json.loads(system_to_json(log3_construction(12)))
    # a leading zero on every element: no line but "-" is canonical, so each
    # text is read by family_from_text
    payload["pairs"] = [[re.sub(r"\b(\d)", r"0\1", t) for t in pair] for pair in payload["pairs"]]
    assert system_from_json(json.dumps(payload)) == log3_construction(12)


def test_system_from_json_families_equal_checked_families():
    # unsorted and repeated lines: the parsed families are the ones Family() builds
    texts = [["n=4\n4\n1\n1,2\n", "n=4\n2\n2\n"], ["n=4\n-\n3,4\n2\n", "n=4\n1,3,4\n-\n"]]
    payload = {"n": 4, "m0": 2, "m1": 3, "m2": 2, "pairs": texts}
    u = system_from_json(json.dumps(payload))
    got = [f for pair in u.pairs for f in pair]
    want = [Family(4, (8, 1, 3)), Family(4, (2, 2)), Family(4, (0, 12, 2)), Family(4, (13, 0))]
    assert got == want


@pytest.mark.parametrize("n", [3, 6, 9, 12])
def test_log3_families_equal_checked_families(n):
    for f1, f2 in log3_construction(n).pairs:
        for f in (f1, f2):
            assert f == Family(n, f.members)
            assert all(type(m) is int for m in f.members)


def _two_pairs(*texts):
    pairs = [list(texts[:2]), list(texts[2:])]
    return json.dumps({"n": 3, "m0": 2, "m1": 1, "m2": 1, "pairs": pairs})


@pytest.mark.parametrize(
    "texts, expected",
    [
        # one line spelled canonically in one family and loosely in another
        (("n=3\n1,3\n", "n=3\n+1, 03\n", "n=3\n+1, 03\n", "n=3\n1,3\n"), [(5,)] * 4),
        # "1,3" fits n=3 but not n=2, whichever family comes first
        (("n=3\n1,3\n", "n=3\n-\n", "n=2\n1,3\n", "n=2\n2\n"), "element 3 outside [1, 2]"),
        (("n=2\n1,3\n", "n=3\n-\n", "n=3\n1,3\n", "n=3\n2\n"), "element 3 outside [1, 2]"),
        (("n=3\n1,2\n", "n=3\n-\n", "n=2\n1,2\n", "n=2\n2\n"), "pair 1 lives on a different ground set"),
        # a bad header comes before a bad line that first shows in a later family
        (("n=3\n1\n", "n=x\n1\n", "n=3\n1,9\n", "n=3\n2\n"), "bad ground set line 'n=x'"),
        (("n=3\n1\n", "3\n1\n", "n=3\n1,9\n", "n=3\n2\n"), "family text must start with an n=<int> line"),
        # the first bad line of a family, though a later one repeats in the next family
        (("n=3\n1\n", "n=3\n1,x\n1,9\n", "n=3\n1,9\n", "n=3\n2\n"), "bad element 'x' in line '1,x'"),
    ],
)
def test_system_from_json_shared_lines_pinned(texts, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            system_from_json(_two_pairs(*texts))
        assert str(exc.value) == expected
    else:
        u = system_from_json(_two_pairs(*texts))
        assert [f.members for pair in u.pairs for f in pair] == expected


def test_system_reader_errors_chain_to_nothing():
    # a text that misses the one-pass read is parsed outside the KeyError's handler
    with pytest.raises(ValueError) as exc:
        system_from_json(_two_pairs("n=3\n1\n", "3\n1\n", "n=3\n1\n", "n=3\n2\n"))
    assert str(exc.value) == "family text must start with an n=<int> line"
    assert exc.value.__context__ is None


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# small fields and family texts, so that some payloads are whole systems
_field = st.one_of(st.integers(-1, 3), json_values)
_text = st.one_of(st.sampled_from(["n=1\n-\n", "n=1\n1\n", "n=1\n-\n1\n", "n=2\n1\n2\n"]), st.text(max_size=12))
_pairs = st.one_of(st.lists(st.lists(_text, min_size=2, max_size=2), max_size=3), json_values)
_whole = json.loads(system_to_json(log3_construction(3)))
system_payloads = st.one_of(
    # a whole system with one field replaced ("extra" leaves it whole)
    st.builds(
        lambda key, value: {**_whole, key: value},
        st.sampled_from(["extra", "n", "m0", "m1", "m2", "pairs"]),
        st.one_of(_field, _pairs),
    ),
    st.fixed_dictionaries({"n": _field, "m0": _field, "m1": _field, "m2": _field, "pairs": _pairs}),
    json_values,
)


@given(system_payloads)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_system_from_json_fuzz(payload):
    # any JSON value is either a system that round-trips or a ValueError
    try:
        u = system_from_json(json.dumps(payload))
    except ValueError:
        return
    assert isinstance(u, UnionFreeSystem)
    assert system_from_json(system_to_json(u)) == u


def test_json_errors():
    u = UnionFreeSystem(1, ((Family(1, (0,)), Family(1, (1,))),))
    js = system_to_json(u)
    with pytest.raises(ValueError, match="missing"):
        system_from_json("{}")
    with pytest.raises(ValueError, match="bad system JSON"):
        system_from_json("{nope")
    with pytest.raises(ValueError, match="m2=5"):
        system_from_json(js.replace('"m2": 1', '"m2": 5'))
    # well-formed JSON of the wrong shape
    head = '{"n": 1, "m0": 1, "m1": 1, "m2": 1, '
    for text in ("[]", head + '"pairs": [5]}', head + '"pairs": [[1, 2]]}',
                 head.replace('"n": 1', '"n": [1]') + '"pairs": []}'):
        with pytest.raises(ValueError, match="bad system JSON"):
            system_from_json(text)
