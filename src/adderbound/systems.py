"""Indexed collections of union-free family pairs with disjoint sum supports.

A system is a list of pairs (f1_i, f2_i) of families over a common ground
set, all f1_i of one cardinality m1 and all f2_i of another m2. It is valid
when every pair is multiset-union-free and the pairwise vector-sum supports
never overlap across pairs, so the m0*m1*m2 ternary sum vectors are all
distinct. Systems are the finite-n object behind the sum-rate bound: the
rates (log2 m0, log2 m1, log2 m2)/n of any valid system land inside the
region that r_sigma constrains.

Two constructions are provided: an explicit family whose sum rate approaches
log2(3), and the reduction that turns one union-free pair plus a k-shattered
set into a system on the complementary coordinates.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .entropy import _integer
from .families import (
    Family,
    _check_mask,
    _check_same_ground,
    _family_texts,
    _read_families,
    _spread,
    is_k_shattered,
    is_multiset_union_free,
)

__all__ = [
    "UnionFreeSystem",
    "SystemRates",
    "DerivationError",
    "validate_system",
    "is_valid_system",
    "system_rates",
    "log3_construction",
    "derive_system",
    "system_json_chunks",
    "system_to_json",
    "system_from_json",
]


@dataclass(frozen=True)
class UnionFreeSystem:
    """Pairs (f1, f2) of families over [n], held as tuples; all |f1| = m1 >= 1, all |f2| = m2 >= 1."""

    n: int
    pairs: Tuple[Tuple[Family, Family], ...]

    def __post_init__(self) -> None:
        n = _integer(self.n, "ground set size")
        if not self.pairs:
            raise ValueError("a system needs at least one pair")
        pairs = []  # tuples, as Family keeps its members
        for i, pair in enumerate(self.pairs):
            f1, f2 = pair if isinstance(pair, (tuple, list)) and len(pair) == 2 else (None, None)
            if not (isinstance(f1, Family) and isinstance(f2, Family)):
                raise ValueError(f"pair {i} is not two families")
            if not pairs:
                m1, m2 = len(f1), len(f2)
            if f1.n != n or f2.n != n:
                raise ValueError(f"pair {i} lives on a different ground set")
            for side, f, m in (("first", f1, m1), ("second", f2, m2)):
                if not f:
                    raise ValueError(f"pair {i}: {side} family is empty")
                if len(f) != m:
                    raise ValueError(f"pair {i}: {side} family has {len(f)} members, expected {m}")
            pairs.append(tuple(pair))  # a tuple is kept, not copied
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pairs", tuple(pairs))

    @property
    def m0(self) -> int:
        return len(self.pairs)

    @property
    def m1(self) -> int:
        return len(self.pairs[0][0])

    @property
    def m2(self) -> int:
        return len(self.pairs[0][1])


@dataclass(frozen=True)
class SystemRates:
    """Rates in bits per ground-set element: r_l = log2(M_l) / n."""

    r0: float
    r1: float
    r2: float

    @property
    def total(self) -> float:
        return self.r0 + self.r1 + self.r2

    def as_tuple(self) -> Tuple[float, float, float]:
        return (self.r0, self.r1, self.r2)


class DerivationError(ValueError):
    """The pair/shattered-set reduction cannot produce a system."""


# _BYTE_SPREADS[k][v] = _spread(v << 8k) for every byte v, k < 5: bit j weighs 3^j
_BYTE_SPREADS = [np.array([_spread(v << 8 * k) for v in range(256)], np.uint64) for k in range(5)]

# masks per block of _low_spread, which keeps its temporaries small
_BLOCK = 1 << 16
# pairs per gather of log3_construction, whose temporaries then take 128 KiB each at n = 15
_GATHER_BLOCK = 16


def _low_spread(masks: np.ndarray, n: int) -> np.ndarray:
    """_spread of each mask's first 40 coordinates, for a contiguous 1-d unsigned array
    of any width.

    A sum of two such keys is at most 3^40 - 1 < 2^64, so it never overflows.
    Each mask is read as its little-endian bytes, of which the width must hold
    the first min(n, 40) coordinates, and the uint64 keys are added up in place
    a block at a time, so the only array as large as masks is the result.
    """
    low = np.zeros(masks.shape, dtype=np.uint64)
    octets = masks.astype(masks.dtype.newbyteorder("<"), copy=False).view(np.uint8)
    octets = octets.reshape(-1, masks.itemsize)
    for start in range(0, masks.size, _BLOCK):
        acc = low[start : start + _BLOCK]
        for k in range((min(n, 40) + 7) // 8):
            acc += _BYTE_SPREADS[k][octets[start : start + _BLOCK, k]]
    return low


def validate_system(u: UnionFreeSystem) -> Optional[str]:
    """None if the system is valid, else a message naming the first failure.

    Pairs are checked in order, so the message names the first failing pair
    i: "pair i is not multiset-union-free" when two of its own sums agree,
    else "pairs j and i share a sum vector", where j is the earlier pair
    that owns the first sum of pair i (a-major) already taken. Raises
    ValueError, as is_multiset_union_free does, at the first pair whose
    families repeat a member.

    The members are held in the narrowest unsigned width that holds 2^n - 1.
    All m0*m1*m2 sums are formed at once as uint64 low keys (_low_spread), in pair
    order, a-major. If the low keys, sorted, are all distinct, so are the
    sums. Otherwise only sums whose low key repeats can collide (a repeated
    member repeats its sums too), and those alone are replayed in pair order
    through one dict of exact sums _spread(a) + _spread(c). The keys are
    sorted in place and formed again, in pair order, only when one repeats.
    """
    m0, m1, m2 = u.m0, u.m1, u.m2
    chain = itertools.chain.from_iterable
    dtype = np.min_scalar_type((1 << u.n) - 1).newbyteorder("<")
    firsts = np.fromiter(chain(f.members for f, _ in u.pairs), dtype, m0 * m1)
    seconds = np.fromiter(chain(f.members for _, f in u.pairs), dtype, m0 * m2)

    def low_keys() -> np.ndarray:
        low1 = _low_spread(firsts, u.n).reshape(m0, m1, 1)
        low2 = _low_spread(seconds, u.n).reshape(m0, 1, m2)
        # in place when a side has one member per pair, as log3_construction's first does
        return np.add(low1, low2, out=low2 if m1 == 1 else low1 if m2 == 1 else None).ravel()

    ordered = low_keys()
    ordered.sort()
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if not repeated.size:
        return None
    del ordered
    low = low_keys()
    # sum h of pair i = h // (m1*m2) adds firsts[h // m2] and seconds[i*m2 + h % m2]
    hits = np.flatnonzero(np.isin(low, repeated))
    owners = hits // (m1 * m2)
    a_hits = firsts[hits // m2].tolist()
    c_hits = seconds[owners * m2 + hits % m2].tolist()
    spread = {m: _spread(m) for m in {*a_hits, *c_hits}}
    keys = [spread[a] + spread[c] for a, c in zip(a_hits, c_hits)]
    seen: Dict[int, int] = {}
    for i, group in itertools.groupby(zip(owners.tolist(), keys), operator.itemgetter(0)):
        f1, f2 = u.pairs[i]
        if f1.has_duplicates or f2.has_duplicates:
            raise ValueError("union-freeness is only defined for duplicate-free families")
        sums = [key for _, key in group]
        mine = dict.fromkeys(sums, i)
        if len(mine) != len(sums):
            return f"pair {i} is not multiset-union-free"
        if not seen.keys().isdisjoint(mine):
            j = next(seen[key] for key in sums if key in seen)
            return f"pairs {j} and {i} share a sum vector"
        seen.update(mine)
    return None


def is_valid_system(u: UnionFreeSystem) -> bool:
    return validate_system(u) is None


def system_rates(u: UnionFreeSystem) -> SystemRates:
    n = u.n
    return SystemRates(
        math.log2(u.m0) / n,
        math.log2(u.m1) / n,
        math.log2(u.m2) / n,
    )


def log3_construction(n: int) -> UnionFreeSystem:
    """A valid system whose sum rate tends to log2(3) as n grows.

    Index the pairs by the subsets F0 of [n] with |F0| = 2n/3; pair i is
    ({F0_i}, all subsets of F0_i). Sums of pair i take value >= 1 exactly on
    F0_i, which keeps the supports disjoint across pairs. M0 = C(n, 2n/3),
    M1 = 1, M2 = 2^{2n/3}. Row t of bits holds the digits of t, so (1 << combo) @ bits.T
    lists F0's submasks, ascending with F0 last. One gather per block of pairs takes
    them from an object array of the 2^n ints: one int object per mask value.
    """
    if (n := _integer(n, "n")) % 3 != 0:
        raise ValueError(f"n must be divisible by 3, got {n}")
    if not 3 <= n <= 15:
        raise ValueError(f"n {n} outside [3, 15]")
    m = 2 * n // 3
    ints = np.fromiter(range(1 << n), object, 1 << n)
    bits = np.arange(1 << m)[:, None] >> np.arange(m) & 1
    combos = itertools.combinations(range(n), m)
    pairs = []
    while block := list(itertools.islice(combos, _GATHER_BLOCK)):
        for members in map(tuple, ints[(1 << np.array(block)) @ bits.T].tolist()):
            pairs.append((Family._trusted(n, members[-1:]), Family._trusted(n, members)))
    return UnionFreeSystem(n, tuple(pairs))


def _compact(mask: int, bits: List[int]) -> int:
    out = 0
    for j, b in enumerate(bits):
        if mask >> b & 1:
            out |= 1 << j
    return out


def derive_system(
    f1: Family, f2: Family, s_mask: int, k: int
) -> Tuple[UnionFreeSystem, SystemRates]:
    """Turn a union-free pair plus a k-shattered set S into a system on [n]-S.

    Both families are partitioned by their projection on S. Each f1-cell is
    trimmed to exactly k members and each nonempty f2-cell to its largest
    power-of-two prefix (so at least half survives); trims keep the
    lexicographically smallest members. Among the power classes 2^k', the one
    holding the most surviving f2 members is selected (smallest k' on ties),
    and cell G of f2 is paired with cell S\\G of f1: members of such a pair
    sum to exactly 1 on every coordinate of S, so after projecting onto the
    complement of S the system inherits union-freeness and disjoint supports
    from the input pair.
    """
    _check_same_ground(f1, f2)
    n, k = f1.n, _integer(k, "k")
    s_mask = _check_mask(n, s_mask)
    if s_mask == (1 << n) - 1:
        raise DerivationError("S covers the whole ground set; nothing remains to project onto")
    if len(f2) == 0:
        raise DerivationError("second family is empty; no cell can be selected")
    if not is_multiset_union_free(f1, f2):
        raise DerivationError("input pair is not multiset-union-free")
    if not is_k_shattered(f1, s_mask, k):
        raise DerivationError(f"S is not {k}-shattered by the first family")

    cells1 = defaultdict(list)
    for m in f1.members:
        cells1[m & s_mask].append(m)
    cells2 = defaultdict(list)
    for m in f2.members:
        cells2[m & s_mask].append(m)

    # power-of-two trim of the f2 cells, grouped by the surviving exponent
    classes: Dict[int, List[int]] = defaultdict(list)
    trimmed2: Dict[int, List[int]] = {}
    for g, ms in cells2.items():
        kp = len(ms).bit_length() - 1
        trimmed2[g] = ms[: 1 << kp]
        classes[kp].append(g)

    best_kp = max(classes, key=lambda kp: (len(classes[kp]) << kp, -kp))
    chosen = sorted(classes[best_kp])

    free_bits = [i for i in range(n) if not s_mask >> i & 1]
    m_out = len(free_bits)
    pairs = []
    for g in chosen:
        partner = s_mask ^ g
        side1 = cells1[partner][:k]
        side2 = trimmed2[g]
        fam1 = Family(m_out, tuple(_compact(m, free_bits) for m in side1))
        fam2 = Family(m_out, tuple(_compact(m, free_bits) for m in side2))
        pairs.append((fam1, fam2))
    system = UnionFreeSystem(m_out, tuple(pairs))
    return system, system_rates(system)


def system_json_chunks(u: UnionFreeSystem) -> Iterator[str]:
    """json.dumps(payload, indent=2) + "\n", a pair at a time, where payload is
    {"n", "m0", "m1", "m2", "pairs": [[family_to_text(f1), family_to_text(f2)], ...]}.

    JSON escapes nothing in a family text but its newlines, so families._family_texts
    writes each text with its newlines escaped, and only the JSON around the texts is
    written here.
    """
    yield f'{{\n  "n": {u.n},\n  "m0": {u.m0},\n  "m1": {u.m1},\n  "m2": {u.m2},\n  "pairs": ['
    texts = _family_texts(itertools.chain.from_iterable(u.pairs), u.n, "\\n")
    sep = "\n"
    for text1, text2 in zip(texts, texts):
        yield f'{sep}    [\n      "{text1}",\n      "{text2}"\n    ]'
        sep = ",\n"
    yield "\n  ]\n}\n"


def system_to_json(u: UnionFreeSystem) -> str:
    """The whole text of system_json_chunks."""
    return "".join(system_json_chunks(u))


def system_from_json(text: str) -> UnionFreeSystem:
    """The system of system_json_chunks' text. Its family texts are read by the system
    reader families._read_families, so results and messages are family_from_text's."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # deep nesting exhausts the decoder's recursion before any shape check
        raise ValueError(f"bad system JSON: {exc}") from None
    del text  # the families are built without the whole string alive
    if not isinstance(payload, dict):
        raise ValueError("bad system JSON: the top level is not an object")
    for key in ("n", "m0", "m1", "m2", "pairs"):
        if key not in payload:
            raise ValueError(f"system JSON is missing the {key!r} field")
    for key in ("n", "m0", "m1", "m2"):
        if type(payload[key]) is not int:
            raise ValueError(f"bad system JSON: {key!r} is not an integer")
    texts = payload["pairs"]
    if not isinstance(texts, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(isinstance(t, str) for t in pair)
        for pair in texts
    ):
        raise ValueError("bad system JSON: 'pairs' is not a list of [family, family] texts")
    fams = list(_read_families(itertools.chain.from_iterable(texts)))
    u = UnionFreeSystem(payload["n"], tuple(zip(fams[::2], fams[1::2])))
    for name, got in (("m0", u.m0), ("m1", u.m1), ("m2", u.m2)):
        if got != payload[name]:
            raise ValueError(
                f"system JSON declares {name}={payload[name]} but the pairs give {got}"
            )
    return u
