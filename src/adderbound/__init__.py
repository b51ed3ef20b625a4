"""Bounds and exact combinatorics for the zero-error binary adder channel.

The package splits into entropy primitives (entropy), the optimized rate
bounds (bounds), set-family combinatorics (families), union-free systems
(systems), auxiliary joints and their envelopes (distributions), seeded
self-checks (verify), and a small CLI (cli). The names most scripts need
are re-exported here.
"""

from .bounds import (
    BoundCurve,
    conditional_sum_envelope,
    curve,
    main_bound,
    simple_bound,
    sum_rate_bound,
    sum_rate_envelope,
    ul_bound,
    weldon_bound,
    weldon_nonsystematic_bound,
)
from .distributions import (
    AuxBinaryJoint,
    EntropyTriplet,
    InfeasibleRateError,
    attaining_joint,
    bernoulli_sum_entropy,
    cond_envelope_via_moments,
    entropy_at_variance,
    entropy_triplet,
    joint_from_system,
    quad_entropy_envelope,
    symmetrize,
)
from .entropy import binary_convolve, binary_entropy, binary_entropy_inv, entropy
from .families import (
    Family,
    PairSearchResult,
    SoftSauerBound,
    exhaustive_pair_search,
    family_from_text,
    family_to_text,
    hamming_ball,
    is_k_shattered,
    is_multiset_union_free,
    max_k_shattered,
    project,
    shattering_profile,
    shift_monotonize,
    soft_sauer_bound,
)
from .systems import (
    DerivationError,
    SystemRates,
    UnionFreeSystem,
    derive_system,
    is_valid_system,
    log3_construction,
    system_from_json,
    system_rates,
    system_to_json,
    validate_system,
)
from .verify import SUITE_NAMES, CheckResult, run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "AuxBinaryJoint",
    "BoundCurve",
    "CheckResult",
    "DerivationError",
    "EntropyTriplet",
    "Family",
    "InfeasibleRateError",
    "PairSearchResult",
    "SUITE_NAMES",
    "SoftSauerBound",
    "SystemRates",
    "UnionFreeSystem",
    "attaining_joint",
    "bernoulli_sum_entropy",
    "binary_convolve",
    "binary_entropy",
    "binary_entropy_inv",
    "cond_envelope_via_moments",
    "conditional_sum_envelope",
    "curve",
    "derive_system",
    "entropy",
    "entropy_at_variance",
    "entropy_triplet",
    "exhaustive_pair_search",
    "family_from_text",
    "family_to_text",
    "hamming_ball",
    "is_k_shattered",
    "is_multiset_union_free",
    "is_valid_system",
    "joint_from_system",
    "log3_construction",
    "main_bound",
    "max_k_shattered",
    "project",
    "quad_entropy_envelope",
    "run_all",
    "run_suite",
    "shattering_profile",
    "shift_monotonize",
    "simple_bound",
    "soft_sauer_bound",
    "sum_rate_bound",
    "sum_rate_envelope",
    "symmetrize",
    "system_from_json",
    "system_rates",
    "system_to_json",
    "ul_bound",
    "validate_system",
    "weldon_bound",
    "weldon_nonsystematic_bound",
]
