"""Exact combinatorics on families of subsets of {1,...,n}, encoded as bitmasks.

A family is a (possibly repeating) list of subsets of an n-element ground set,
each subset stored as an integer mask with bit i standing for element i+1.
This module provides the pieces the rate bounds are built from:

  * multiset-union-freeness of a pair of families (all vector sums distinct),
  * projections and k-shattered sets: project(f, S) is the multiset
    {F & S : F in f} as a collections.Counter, and S is k-shattered when
    each of its 2^|S| cells holds at least k members; shattering_profile
    finds a largest k-shattered set for several k in one pass,
    max_k_shattered(f, k) is shattering_profile(f, (k,))[k], and both raise
    SearchBudgetError when the subsets they might scan outnumber an
    internal budget,
  * the shifting/monotonization procedure,
  * a soft Sauer-Perles-Shelah counting bound (exact rational arithmetic),
  * Hamming balls, the guaranteed shattered-size formula, and a small-n
    exhaustive search for the best union-free pair.

Everything is deterministic; search tie-breaks always prefer the numerically
smallest mask, and the pair search uses an explicit node budget instead of
wall-clock time so results are machine-independent.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .entropy import PROB_SLACK, _as_prob, _integer, _real, binary_entropy, binary_entropy_inv

__all__ = [
    "MAX_GROUND",
    "MAX_SAUER_N",
    "SEARCH_NODES_PER_SEC",
    "Family",
    "SearchBudgetError",
    "is_multiset_union_free",
    "project",
    "is_k_shattered",
    "max_k_shattered",
    "shattering_profile",
    "shift_monotonize",
    "SoftSauerBound",
    "soft_sauer_bound",
    "shattering_guarantee",
    "hamming_ball",
    "PairSearchResult",
    "exhaustive_pair_search",
    "family_to_text",
    "family_from_text",
]

MAX_GROUND = 64

# largest n for soft_sauer_bound: its exact value then has at most about 1,200
# digits and its float stays finite (the bound is below (n + 1) * 2^n)
MAX_SAUER_N = 1000

# the fixed rate at which exhaustive_pair_search turns budget seconds into nodes
SEARCH_NODES_PER_SEC = 150_000

# cap on the number of candidate subsets a shattering search may enumerate
_SUBSET_BUDGET = 2_000_000

# cap on materialized Hamming-ball members
_BALL_CAP = 4_000_000


class SearchBudgetError(RuntimeError):
    """Raised when an exhaustive subset scan would exceed the internal budget."""


class _NodeBudgetSpent(Exception):
    """Unwinds the pair search once its node budget is spent."""


@dataclass(frozen=True)
class Family:
    """A list of subsets of [n], kept sorted; duplicates are permitted."""

    __slots__ = ("n", "members")  # not slots=True: on Python 3.11 it breaks FrozenInstanceError
    n: int
    members: Tuple[int, ...]

    def __post_init__(self) -> None:
        n = _integer(self.n, "ground set size")
        if not 1 <= n <= MAX_GROUND:
            raise ValueError(f"ground set size {n} outside [1, {MAX_GROUND}]")
        full = (1 << n) - 1
        try:
            members = iter(self.members)
        except TypeError:
            raise ValueError(f"members {self.members!r} are not iterable") from None
        members = tuple(members)  # read once: a generator cannot be read again
        try:
            ms = tuple(sorted(map(operator.index, members)))
        except TypeError:
            for m in members:
                try:
                    operator.index(m)
                except TypeError:
                    raise ValueError(f"member {m!r} is not an integer") from None
            raise
        if ms and (ms[0] < 0 or ms[-1] > full):
            bad = ms[0] if ms[0] < 0 else next(m for m in ms if m > full)
            raise ValueError(f"member {bad} does not fit a {n}-element ground set")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", ms)

    @classmethod
    def _trusted(cls, n: int, members: Tuple[int, ...]) -> "Family":
        """A family of members already sorted ints in [0, 2^n), with n in range; no checks."""
        f = object.__new__(cls)
        object.__setattr__(f, "n", n)
        object.__setattr__(f, "members", members)
        return f

    def __reduce__(self):  # the frozen __setattr__ refuses pickle's slot-by-slot restore
        return Family, (self.n, self.members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def has_duplicates(self) -> bool:
        return len(set(self.members)) != len(self.members)


def _check_same_ground(f1: Family, f2: Family) -> None:
    if f1.n != f2.n:
        raise ValueError(f"ground set mismatch: {f1.n} vs {f2.n}")


def _pair_sums(f1: Family, f2: Family) -> List[int]:
    """The |f1|*|f2| vector sums a+c, a-major, as exact keys (a | c) << n | a & c.

    A sum is 2 where both masks hold a coordinate and 1 where one does, so
    (a | c, a & c) determines it. Raises ValueError unless the families share
    a ground set and are duplicate-free: a repeated member would make the sums
    trivially collide.
    """
    _check_same_ground(f1, f2)
    if f1.has_duplicates or f2.has_duplicates:
        raise ValueError("union-freeness is only defined for duplicate-free families")
    n = f1.n
    return [(a | c) << n | a & c for a in f1.members for c in f2.members]


def is_multiset_union_free(f1: Family, f2: Family) -> bool:
    """True iff all |f1|*|f2| vector sums a+c are distinct; raises ValueError as _pair_sums does."""
    sums = _pair_sums(f1, f2)
    return len(set(sums)) == len(sums)


def project(f: Family, s_mask: int) -> Counter:
    """The multiset {F & S : F in f}: c[m] is 0 for a mask that never occurs, c.total() is |f|."""
    s_mask = _check_mask(f.n, s_mask)
    return Counter(m & s_mask for m in f.members)


def _check_mask(n: int, s_mask) -> int:
    """s_mask as an int, checked to fit an n-element ground set."""
    if (s_mask := _integer(s_mask, "subset mask")) >> n or s_mask < 0:
        raise ValueError(f"subset mask {s_mask} does not fit a {n}-element ground set")
    return s_mask


def is_k_shattered(f: Family, s_mask: int, k: int) -> bool:
    """True iff every submask of s_mask occurs at least k times in project(f, s_mask)."""
    s_mask = _check_mask(f.n, s_mask)
    if (k := _integer(k, "k")) < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cells = 1 << s_mask.bit_count()
    if k * cells > len(f):
        return False
    counts = Counter(m & s_mask for m in f.members)  # project(f, s_mask), mask checked above
    return len(counts) == cells and min(counts.values()) >= k


def max_k_shattered(f: Family, k: int) -> Tuple[int, int]:
    """A largest k-shattered set, as (mask, size): shattering_profile(f, (k,))[k].

    Raises SearchBudgetError, and ValueError, as shattering_profile does.
    """
    return shattering_profile(f, (k,))[k]


def _thick_sets(f: Family, floor: int, top: int) -> List[Tuple[int, int]]:
    """(mask, multiplicity) of every nonempty set of at most top elements
    each of whose projection cells holds at least floor members.

    A depth-first search over sets, each grown only by elements below its
    least one, so the list meets every size in increasing mask order. A set
    carries its cells as bitsets of member positions (a repeated member
    counts twice); adding element i splits every cell by i, and the
    smallest cell is the multiplicity. The split stops at the first half
    below floor, so a thin child costs only the cells split before it, and
    no superset of it is visited: their cells split its cells. Nor is any
    superset of a thick set whose smallest cell holds fewer than 2 * floor
    members: one more element splits that cell into two halves, and the
    smaller half holds fewer than floor.
    """
    cols = [0] * f.n  # cols[i]: the positions of the members holding i, set in one pass
    for p, m in enumerate(f.members):
        while m:  # each set bit i of m, highest first
            cols[i := m.bit_length() - 1] |= 1 << p
            m ^= 1 << i
    size = len(f)
    found = []

    def grow(mask: int, cells: List[int], below: int, child_size: int) -> None:
        for i in range(below):
            col = cols[i]
            split = []
            least = size
            for c in cells:
                on = c & col
                off = c ^ on
                if (a := on.bit_count()) < least:
                    least = a
                if (b := off.bit_count()) < least:
                    least = b
                if least < floor:
                    break
                split += (on, off)
            else:
                found.append((mask | 1 << i, least))
                if child_size < top and least >= 2 * floor:
                    grow(mask | 1 << i, split, i, child_size + 1)

    grow(0, [(1 << size) - 1], f.n, 1)
    return found


def shattering_profile(f: Family, ks: Sequence[int] = (1, 2, 4)) -> Dict[int, Tuple[int, int]]:
    """A largest k-shattered set, as (mask, size), for every k in ks at once.

    The sets with multiplicity at least min(ks) come from one depth-first
    search (_thick_sets). The answer for k is the first, so numerically
    smallest, set of the largest size with multiplicity at least k; (0, 0)
    when only the empty set qualifies, as it does whenever |f| >= k.

    A k-shattered set S needs k * 2^|S| members, so no set larger than
    floor(log2(|f| / min(ks))) can be reached. If the subsets of sizes up
    to that cap number more than the internal budget, SearchBudgetError is
    raised before any work.
    """
    try:
        ks = sorted({_integer(k, "k") for k in ks})
    except TypeError:
        raise ValueError(f"ks {ks!r} is not a collection of integers") from None
    if not ks:
        raise ValueError("need at least one k")
    if ks[0] < 1:
        raise ValueError(f"k must be >= 1, got {ks[0]}")
    if len(f) < ks[-1]:
        raise ValueError(f"family of size {len(f)} cannot {ks[-1]}-shatter any set")
    top = min(f.n, (len(f) // ks[0]).bit_length() - 1)
    total = sum(math.comb(f.n, s) for s in range(1, top + 1))
    if total > _SUBSET_BUDGET:
        raise SearchBudgetError(
            f"scanning sizes 1..{top} on n={f.n} needs {total} subsets (budget {_SUBSET_BUDGET})"
        )
    best = {k: (0, 0) for k in ks}
    for mask, least in _thick_sets(f, ks[0], top):
        size = mask.bit_count()
        for k in ks:
            if least >= k and best[k][1] < size:
                best[k] = (mask, size)
    return best


def _multiplicities(f: Family) -> List[int]:
    """For every mask s, the least cell count of project(f, s), 0 if a cell is empty.

    So s is k-shattered iff the entry is >= k. The sets whose every cell is
    nonempty come from one pass of _thick_sets; the list has 2^n entries,
    so this is for small n.
    """
    mult = [0] * (1 << f.n)
    mult[0] = len(f)
    for mask, least in _thick_sets(f, 1, f.n):
        mult[mask] = least
    return mult


def shift_monotonize(f: Family) -> Family:
    """Monotonize a duplicate-free family by repeated downward shifts.

    For each element i in cyclic order, every member that contains i and
    whose i-removed version is absent gets i removed. Cardinality is
    preserved, the result is closed under taking subsets, and any set that is
    k-shattered by the output was already k-shattered by the input.
    """
    if f.has_duplicates:
        raise ValueError("shifting requires a duplicate-free family")
    cur = set(f.members)
    changed = True
    while changed:
        changed = False
        for i in range(f.n):
            bit = 1 << i
            moved = [g for g in cur if g & bit and (g ^ bit) not in cur]
            if moved:
                changed = True
                cur.difference_update(moved)
                cur.update(g ^ bit for g in moved)
    return Family(f.n, tuple(cur))


@dataclass(frozen=True)
class SoftSauerBound:
    """Result of the soft Sauer-Perles-Shelah count: exact rational plus t*."""

    n: int
    d: int
    k: int
    t_star: int
    exact: Fraction

    @property
    def value(self) -> float:
        return float(self.exact)


def soft_sauer_bound(n: int, d: int, k: int) -> SoftSauerBound:
    """Upper bound on |f| when no d-element set is k-shattered by f.

    t* is the smallest t with C(n-d, t-d) >= k (or n when none exists); the
    bound is

        sum_{t=0}^{t*} C(n,t)  +  C(n,t*) * sum_{t=t*+1}^{n} C(t*,d)/C(t,d)

    evaluated in exact integer/rational arithmetic. The head sum must start
    at t=0: after monotonizing, the empty set is always a member, and for
    k >= 2 the full subset lattice meets the hypothesis with d = n while
    every per-cardinality cap is tight, so dropping the t=0 term would
    undercount it by exactly one (n=1, f={{},{1}}, k=2 already fails).
    """
    n, d, k = _integer(n, "n"), _integer(d, "d"), _integer(k, "k")
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n > MAX_SAUER_N:
        raise ValueError(f"n={n} outside [1, {MAX_SAUER_N}]")
    t_star = n
    for t in range(d, n + 1):
        if math.comb(n - d, t - d) >= k:
            t_star = t
            break
    head = sum(math.comb(n, t) for t in range(t_star + 1))
    tail = sum(
        (Fraction(math.comb(t_star, d), math.comb(t, d)) for t in range(t_star + 1, n + 1)),
        Fraction(0),
    )
    return SoftSauerBound(n, d, k, t_star, head + math.comb(n, t_star) * tail)


def shattering_guarantee(rate: float, alpha: float, n: int) -> Tuple[int, int]:
    """Guaranteed (set size, multiplicity) shattered in a family of rate `rate`.

    A family with 2^{n(rate+eps)} members k-shatters, for large n, a set of
    size ceil(n*alpha) with k = ceil(2^{n*beta}) copies of every subset, where
    beta = (1-alpha) * h((h_inv(rate)-alpha)/(1-alpha)). Valid for
    0 <= alpha <= h_inv(rate); ValueError when 2^{n*beta} is past the
    largest float.
    """
    if not 1 <= (n := _integer(n, "n")) < 2**1024:  # n * alpha must be a float
        raise ValueError(f"n={n} outside [1, 2^1024)")
    p = binary_entropy_inv(_as_prob(rate, "rate"))
    if not 0.0 <= (alpha := _real(alpha, "alpha")) <= p + PROB_SLACK:  # NaN fails too
        raise ValueError(f"alpha {alpha} outside [0, h_inv(rate)] = [0, {p}]")
    alpha = min(alpha, p)
    if p == alpha:
        beta = 0.0
    else:
        beta = (1.0 - alpha) * binary_entropy((p - alpha) / (1.0 - alpha))
    size = math.ceil(n * alpha - 1e-9)
    try:
        mult = math.ceil(2.0 ** (n * beta) - 1e-9)
    except OverflowError:
        raise ValueError(f"multiplicity 2^(n*beta) = 2^{n * beta} overflows a float") from None
    return size, mult


def hamming_ball(n: int, radius: int) -> Family:
    """All subsets of [n] of cardinality at most `radius`."""
    n, radius = _integer(n, "n"), _integer(radius, "radius")
    if not 1 <= n <= 25:
        raise ValueError(f"n {n} outside [1, 25]")
    if not 0 <= radius <= n:
        raise ValueError(f"radius {radius} outside [0, {n}]")
    count = sum(math.comb(n, t) for t in range(radius + 1))
    if count > _BALL_CAP:
        raise ValueError(f"ball has {count} members, over the in-memory cap {_BALL_CAP}")
    members = []
    for t in range(radius + 1):
        for combo in itertools.combinations(range(n), t):
            m = 0
            for i in combo:
                m |= 1 << i
            members.append(m)
    return Family(n, tuple(members))


@dataclass(frozen=True)
class PairSearchResult:
    __slots__ = ("f1", "f2", "product", "exact", "nodes")  # as Family's
    f1: Family
    f2: Family
    product: int
    exact: bool
    nodes: int

    def __reduce__(self):
        return PairSearchResult, (self.f1, self.f2, self.product, self.exact, self.nodes)


@functools.cache
def _pair_conflicts(n: int) -> Tuple[Tuple[int, ...], ...]:
    """rows[a][b]: bit c * 2^n + c' for each c' - c = a - b or b - a."""
    num = 1 << n
    diffs: Dict[Tuple[int, int], int] = defaultdict(int)
    for c, c2 in itertools.product(range(num), repeat=2):
        # c2 - c keyed by its 1s and -1s, with the pair that has the opposite difference
        diffs[c2 & ~c, c & ~c2] |= 1 << (c * num + c2) | 1 << (c2 * num + c)
    return tuple(tuple(diffs[a & ~b, b & ~a] for b in range(num)) for a in range(num))


@functools.cache
def _permutation_keys(n: int) -> Tuple[Tuple[int, ...], int]:
    """(keys, ones): keys[m] has one bit per (2^n + 1)-bit field, m's image under
    each coordinate permutation, identity first; ones has each field's lowest bit."""
    num = 1 << n
    perms = [*itertools.permutations(range(n))][::-1]  # the highest field leads a key's text
    cols = [(0,) * len(perms)]  # cols[m]: m's image under each permutation
    for i in range(n):
        bits = [1 << p[i] for p in perms]
        cols += [tuple(map(operator.or_, col, bits)) for col in cols]
    field = ["0" * (num - v) + "1" + "0" * v for v in range(num)]  # bit v set
    keys = tuple(int("".join(map(field.__getitem__, col)), 2) for col in cols)
    return keys, int(field[0] * len(perms), 2)


def _cliques(conf: List[int], lo: int, hi: int, tally: List[int]) -> Iterator[Tuple[int, ...]]:
    """Ever larger cliques above size lo, up to size hi; the last is the least largest one.

    conf[c] holds the c' that conflict with c, not c. Cliques grow depth-first
    from their lowest candidate, on an explicit stack. A node colours its
    candidates from the top into classes of pairwise conflicting vertices and
    branches only on those up to the top of what lo - size classes leave, if
    any. Nodes and colour classes count in tally[0]; reaching tally[1] raises.
    """
    # cands[d]: the untried candidates at depth d; stops[d]: a bit past the last worth trying
    clique, cands, stops, cand = [], [], [], (1 << len(conf)) - 1
    nodes, budget = tally
    try:
        while lo < hi:
            if (nodes := nodes + 1) >= budget:
                raise _NodeBudgetSpent
            if (size := len(clique)) > lo:
                lo = size
                yield tuple(clique)
            rest, classes = cand if cand.bit_count() > lo - size else 0, lo - size
            while rest and classes:
                classes -= 1
                if (nodes := nodes + 1) >= budget:
                    raise _NodeBudgetSpent
                q = rest
                while q:
                    rest ^= 1 << (top := q.bit_length() - 1)
                    q &= conf[top]
            if rest:
                cands.append(cand)
                stops.append(2 << (rest.bit_length() - 1))
            while cands:
                rem, depth = cands[-1], len(cands) - 1
                low = rem & -rem
                if 0 < low < stops[-1] and depth + rem.bit_count() > lo:
                    cands[-1] = rem = rem ^ low
                    del clique[depth:]
                    clique.append(v := low.bit_length() - 1)
                    cand = rem & ~conf[v]
                    break
                cands.pop()
                stops.pop()
            else:
                return
    finally:
        tally[0] = nodes


def _least_in_orbit(small: List[int], imgs: List[int], a: int, keys, ones, num) -> List[int]:
    """The images of S + a ^ x, x in S + a, if S + a is least in its B_n orbit, else [].

    S = small ascends from 0 to below a, so only images of S + a ^ x for x in S + a hold 0
    and can be less. imgs[i] ORs keys[s ^ small[i] ^ (num - 1)] over s in S, with (keys,
    ones) = _permutation_keys(n), num = 2^n: S ^ small[i] under each permutation, mask v at
    bit num - 1 - v, as complements commute with permutations. A less set has a larger
    field: one that, added to the complement of S + a's field, carries into the guard.
    """
    field, a = (1 << num) - 1, a ^ num - 1
    child = imgs[0] | keys[a]
    comp, guard = (field ^ child & field) * ones, ones << num
    if child + comp & guard:
        return []  # the identity's images reject most children, and cost least
    kids = [child]
    for img, x in zip(imgs[1:], small[1:]):
        if (img := img | keys[a ^ x]) + comp & guard:
            return []
        kids.append(img)
    own = functools.reduce(operator.or_, [keys[a ^ x] for x in small], keys[num - 1])  # x = a
    return [] if own + comp & guard else [*kids, own]


@functools.cache
def _product_seed(n: int) -> Tuple[int, Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """(P, (A1 x B1, A2 x B2)), union-free as sums split by coordinates, for exact optima
    (A1, A2) on a coordinates and (B1, B2) on n - a: the largest P over 1 <= a <= n / 2."""
    seed = 0, ((), ())
    for a in range(1, n // 2 + 1):
        low, high = exhaustive_pair_search(a), exhaustive_pair_search(n - a)
        if (product := low.product * high.product) > seed[0]:
            pairs = zip((low.f1.members, low.f2.members), (high.f1.members, high.f2.members))
            seed = product, tuple(tuple(sorted(x | y << a for x in u for y in v)) for u, v in pairs)
    return seed


def exhaustive_pair_search(n: int, budget_secs: float = 10.0) -> PairSearchResult:
    """Best multiset-union-free pair over [n] by branch-and-bound.

    Maximizes |f1|*|f2| over ordered pairs of nonempty duplicate-free families. The budget
    is converted to a deterministic node count (SEARCH_NODES_PER_SEC per second), so
    identical arguments give identical results on any machine; `exact` reports whether the
    space was exhausted. For n <= 5 the search completes exactly within the default budget.
    Nodes count nodes of the smaller family S, its canonicity tests, clique nodes and colour
    classes. For n >= 2 the best starts at P - 1, witnessed by the pair of size P from
    _product_seed, whose searches nodes do not count: an exact run beats it, and a budget
    spent before any pair does returns it, with product P. At n = 1 a budget spent before
    the first pair raises ValueError.

    a + c = b + d iff a - b = d - c, so a pair is union-free iff f1 - f1 and
    f2 - f2 (vectors in {-1, 0, 1}^n) share only 0. That is symmetric, so
    only the smaller family S is enumerated; the larger family L is a largest
    set of masks with no c' - c in S - S, a maximum clique of size w(S). Each
    S finds w(S) exactly, or shows w(S) < |S| or w(S)^2 <= best. w(S) only
    falls as S grows and a smaller family has |S'| <= w(S'), so then no S'
    grown from S is the smaller family of a better pair; and S's children
    stop once |S| + 1 > w(S), or once min(|S| + 2^n - a, w(S)) * w(S) <= best
    for the next mask a. A child keeps its parent's w with no clique search
    when the parent's largest clique is still a clique and cannot beat best.

    Only S that hold 0 and are least in their B_n orbit are visited. B_n's 2^n * n!
    maps XOR by a common mask and permute coordinates, keeping a pair union-free.
    A set is less if it holds the least mask of the symmetric difference, so being
    least is hereditary: if g(S) < S, that mask is in g(S) below max S, so
    g(S + a) < S + a for all a > max S. S grows in ascending order and only a
    strictly larger product replaces the best, so the result is the first S
    in that order to reach the best product, with L its least largest
    clique: (f1, f2) is the lesser of (S, L) and (L, S).
    """
    if not 1 <= (n := _integer(n, "n")) <= 6:
        raise ValueError(f"n {n} outside [1, 6]")
    if type(budget_secs) is not int:  # an int budget stays exact, however large
        budget_secs = _real(budget_secs, "budget_secs")
    if not 0 < budget_secs * SEARCH_NODES_PER_SEC < math.inf:
        raise ValueError(f"budget must be positive and finite, got {budget_secs}")
    node_budget = int(budget_secs * SEARCH_NODES_PER_SEC)
    num = 1 << n
    everyone = (1 << num) - 1
    rows = _pair_conflicts(n)
    keys, ones = _permutation_keys(n)

    seed, best_pair = _product_seed(n)
    best, tally, small = max(seed - 1, 0), [0, node_budget], [0]

    def spend() -> None:
        tally[0] += 1
        if tally[0] >= node_budget:
            raise _NodeBudgetSpent

    def grow(packed: int, imgs: List[int], ub: int, witness: Tuple[int, ...], wmask: int) -> None:
        # packed: S's conflicts, none of a mask with itself; imgs: of S ^ x for x in S;
        # witness: a clique of size ub, with wmask its masks
        nonlocal best, best_pair
        spend()
        k = len(small)
        if k * ub > best or any(packed >> c * num & wmask for c in witness):
            conf = [packed >> (c * num) & everyone for c in range(num)]
            witness = ()
            for witness in _cliques(conf, max(k - 1, math.isqrt(best)), ub, tally):
                if k * len(witness) > best:
                    best, best_pair = k * len(witness), (tuple(small), witness)
            if not witness:
                return  # w(S) < |S| or w(S)^2 <= best: no S' >= S can do better
            ub, wmask = len(witness), sum(1 << c for c in witness)
        for a in range(small[-1] + 1, num):
            if k >= ub or min(k + num - a, ub) * ub <= best:
                break
            spend()
            if not (kids := _least_in_orbit(small, imgs, a, keys, ones, num)):
                continue
            packed_child = functools.reduce(operator.or_, [rows[a][b] for b in small], packed)
            small.append(a)
            grow(packed_child, kids, ub, witness, wmask)
            small.pop()

    exact = True
    try:
        grow(0, [keys[num - 1]], num, (), 0)
    except _NodeBudgetSpent:
        exact = False
    if best == 0:
        raise ValueError(
            f"budget {budget_secs!r} s ({node_budget} nodes) ran out before the first pair"
        )
    f1, f2 = (Family._trusted(n, f) for f in min(best_pair, best_pair[::-1]))
    return PairSearchResult(f1, f2, len(f1) * len(f2), exact, tally[0])


def _element_texts(count: int) -> List[str]:
    """The element text of every mask of `count` bits: entry b lists the set bits of b
    as 1 .. count, ascending and comma-separated, "" for b = 0: _element_texts(3)[5] == "1,3"."""
    texts = [""]
    for e in range(1, count + 1):
        # the entries with bit e - 1 set: the ones before, plus e
        texts += [f"{t},{e}" if t else str(e) for t in texts]
    return texts


def _mask_line(m: int) -> str:
    """The text line of mask m, `-` for the empty set: one element per set bit."""
    return ",".join(str(i + 1) for i in range(m.bit_length()) if m >> i & 1) or "-"


# the largest n with a line table: log3_construction's largest. Its table takes
# 11-18 ms to build on a shared 2-core box and 4.4 MB to keep; each n past it doubles both
_LINE_TABLE_N = 15
# the canonical header of each n with a line table: _read_families' one-pass read takes no other
_HEADS = {f"n={n}": n for n in range(1, _LINE_TABLE_N + 1)}


@functools.cache
def _line_table(n: int) -> Tuple[Tuple[str, ...], Dict[str, int]]:
    """(lines, masks) for n <= _LINE_TABLE_N: lines[m] is the text line of mask m,
    masks the mask of each such line. Only a system's writer and reader read it."""
    lines = ("-", *_element_texts(n)[1:])
    return lines, dict(zip(lines, range(1 << n)))


def _gather(table, keys: Sequence) -> tuple:
    """tuple(table[k] for k in keys); itemgetter returns a bare item for one key, refuses none."""
    return operator.itemgetter(*keys)(table) if len(keys) > 1 else (table[keys[0]],) if keys else ()


def _family_texts(fams: Iterable[Family], n: int, nl: str) -> Iterator[str]:
    """A system's writer: family_to_text of each family in fams, all on [n], newlines spelled nl.
    At n <= _LINE_TABLE_N one itemgetter call takes a family's lines, a C loop: no call per line."""
    table = _line_table(n)[0] if n <= _LINE_TABLE_N else None
    head = f"n={n}"
    for f in fams:
        lines = _gather(table, f.members) if table else map(_mask_line, f.members)
        yield nl.join([head, *lines, ""])


def family_to_text(f: Family) -> str:
    """Serialize a family: `n=<int>` then one line per member.

    Members are written as sorted comma-separated 1-indexed elements, with
    `-` standing for the empty set; _mask_line writes each line from its mask.
    """
    return "\n".join([f"n={f.n}", *map(_mask_line, f.members), ""])


def _parse_member(ln: str, n: int) -> int:
    """One member line: `-`, else element by element through int()."""
    if ln == "-":
        return 0
    m = 0
    for part in ln.split(","):
        try:
            elem = int(part)
        except ValueError:
            raise ValueError(f"bad element {part!r} in line {ln!r}") from None
        if not 1 <= elem <= n:
            raise ValueError(f"element {elem} outside [1, {n}]")
        m |= 1 << (elem - 1)
    return m


def _read_families(texts: Iterable[str]) -> Iterator[Family]:
    """A system's reader: family_from_text of each text. A text whose header is in _HEADS and
    whose lines, split at "\n", are all in _line_table(n) is read in one pass: the sorted masks
    of its lines by one itemgetter call, as the writer; at the first KeyError, family_from_text."""
    for text in texts:
        lines = text.removesuffix("\n").split("\n")
        try:
            n = _HEADS[lines[0]]
            members = tuple(sorted(_gather(_line_table(n)[1], lines[1:])))
        except KeyError:
            members = None  # read outside the handler, so no error chains to the KeyError
        yield Family._trusted(n, members) if members is not None else family_from_text(text)


def family_from_text(text: str) -> Family:
    """Parse the family text format; inverse of family_to_text.

    The first nonblank line is `n=<int>`; every further nonblank line is a
    member, `-` for the empty set or comma-separated elements in [1, n].
    Blank lines and blanks around a line are ignored. Each element is read
    like int(), so signs, leading zeros, underscores and blanks around it
    are accepted ("+1, 03" is {1, 3}), and a repeated element counts once.
    """
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("family text must start with an n=<int> line")
    try:
        n = int(lines[0][2:])
    except ValueError:
        raise ValueError(f"bad ground set line {lines[0]!r}") from None
    if not 1 <= n <= MAX_GROUND:
        # before any 1 << (elem - 1): a huge n would admit a huge element
        raise ValueError(f"ground set size {n} outside [1, {MAX_GROUND}]")
    return Family._trusted(n, tuple(sorted(_parse_member(ln, n) for ln in lines[1:])))
