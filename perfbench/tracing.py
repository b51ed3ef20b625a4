"""Per-layer tracing from outside the library.

Each public function of the layer table is replaced, in its defining module
and in every adderbound module that binds the same object by name, with a
wrapper that counts calls and work items and measures self time (span time
minus the time of the wrapped calls it makes). The functions that
``scalar_maximize`` receives are wrapped as they are passed in, as the
``bounds.objective`` layer. The primitives run millions of times per op, so
their spans are aggregated per name in memory; individual spans are kept only
for the outer solves (``ul_bound``, ``main_bound``) and, by the caller, for
ops. Everything is restored when the ``installed()`` block exits.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time

import numpy as np

# (module, function, extra count, how to read it from (args, result))
_SIZE = ("elems", lambda args, result: getattr(result, "size", 1))
_PAIR_SUMS = ("sums", lambda args, result: len(args[0]) * len(args[1]))
_SYSTEM_SUMS = ("sums", lambda args, result: args[0].m0 * args[0].m1 * args[0].m2)
_NODES = ("nodes", lambda args, result: result.nodes)
_MEMBERS = ("members", lambda args, result: len(args[0]))
_BYTES_OUT = ("bytes", lambda args, result: len(result))
_BYTES_IN = ("bytes", lambda args, result: len(args[0]))

LAYERS = (
    ("entropy", "binary_entropy", _SIZE),
    ("entropy", "binary_entropy_inv", None),
    ("entropy", "binary_convolve", _SIZE),
    ("entropy", "entropy", None),
    ("bounds", "sum_rate_envelope", _SIZE),
    ("bounds", "conditional_sum_envelope", _SIZE),
    ("bounds", "ul_mixture_entropy", None),
    ("bounds", "scalar_maximize", None),
    ("bounds", "sum_rate_bound", None),
    ("bounds", "ul_sum_bound", None),
    ("bounds", "ul_bound", None),
    ("bounds", "main_bound", None),
    ("families", "exhaustive_pair_search", _NODES),
    ("families", "is_multiset_union_free", _PAIR_SUMS),
    ("families", "shattering_profile", None),
    ("families", "max_k_shattered", None),
    ("families", "is_k_shattered", None),
    ("families", "soft_sauer_bound", None),
    ("families", "family_to_text", None),
    ("families", "family_from_text", None),
    ("families", "shift_monotonize", _MEMBERS),
    ("systems", "validate_system", _SYSTEM_SUMS),
    ("systems", "log3_construction", None),
    ("systems", "derive_system", None),
    ("systems", "system_to_json", _BYTES_OUT),
    ("systems", "system_from_json", _BYTES_IN),
    ("distributions", "entropy_triplet", None),
    ("distributions", "joint_from_system", None),
    ("distributions", "symmetrize", None),
    ("distributions", "bernoulli_sum_entropy", None),
    ("distributions", "cond_envelope_via_moments", None),
    ("distributions", "attaining_joint", None),
)

OBJECTIVE = "bounds.objective"
SUITE_RUNNER = ("verify", "run_suite")
SUITES = ("entropy", "families", "systems", "distributions")

# outer solves that keep one span each, with these counters as deltas
SPAN_FUNCS = ("bounds.ul_bound", "bounds.main_bound")
SPAN_COUNTERS = (
    ("objective_scalar_calls", OBJECTIVE, "calls"),
    ("objective_array_elems", OBJECTIVE, "work"),
    ("scalar_maximize_calls", "bounds.scalar_maximize", "calls"),
    ("binary_entropy_calls", "entropy.binary_entropy", "calls"),
)

# rates over inclusive time: function -> the count divided by it
_RATES = {"families.exhaustive_pair_search": "nodes", "systems.validate_system": "sums"}


class _Stat:
    __slots__ = ("calls", "work", "self_s", "incl_s")

    def __init__(self):
        self.calls = 0
        self.work = 0  # the extra count: elements, sums, nodes, members or bytes
        self.self_s = 0.0
        self.incl_s = 0.0


class Tracer:
    """Aggregated per-function stats and outer-solve spans for one traced pass."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self.op = None  # set by the caller; tags the solve spans of one op
        self.missing = []
        self._stack = []

    def _stat(self, key):
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = _Stat()
        return st

    def _span(self, key, fn, extra=None, key_of=None):
        stack = self._stack
        clock = time.perf_counter
        fixed = None if key_of else self._stat(key)

        def wrapper(*args, **kwargs):
            st = fixed or self._stat(key_of(args))
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
            st.calls += 1
            st.self_s += dt - child[0]
            st.incl_s += dt
            if extra is not None:
                st.work += extra(args, result)
            return result

        return wrapper

    def _objective(self, f):
        # one wrapper per scalar_maximize call; scalar and array calls are
        # counted apart (calls = scalar calls, work = array elements)
        st = self._stat(OBJECTIVE)
        stack = self._stack
        clock = time.perf_counter

        def objective(x):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = f(x)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
            if isinstance(x, np.ndarray):
                st.work += x.size
            else:
                st.calls += 1
            st.self_s += dt - child[0]
            st.incl_s += dt
            return result

        return objective

    def _with_objective(self, fn):
        def scalar_maximize(f, *args, **kwargs):
            return fn(self._objective(f), *args, **kwargs)

        return scalar_maximize

    def _with_span(self, key, fn):
        def solve(*args, **kwargs):
            before = self.counters()
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            wall = time.perf_counter() - t0
            after = self.counters()
            self.spans.append(
                {
                    "op": self.op,
                    "name": key,
                    "args": list(args),
                    "wall_s": wall,
                    **{name: after[name] - before[name] for name in after},
                }
            )
            return result

        return solve

    def counters(self):
        out = {}
        for name, key, field in SPAN_COUNTERS:
            st = self.stats.get(key)
            out[name] = getattr(st, field) if st else 0
        return out

    def _wrapper(self, module, name, fn, extra):
        key = f"{module}.{name}"
        if (module, name) == SUITE_RUNNER:
            return self._span(key, fn, key_of=lambda args: f"verify.{args[0]}")
        wrapped = fn
        if name == "scalar_maximize":
            wrapped = self._with_objective(fn)
        wrapped = self._span(key, wrapped, extra and extra[1])
        if key in SPAN_FUNCS:
            wrapped = self._with_span(key, wrapped)
        return wrapped

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function into all loaded adderbound modules."""
        mods = [m for n, m in list(sys.modules.items()) if n == "adderbound" or n.startswith("adderbound.")]
        patched = []
        try:
            for module, name, extra in LAYERS + (SUITE_RUNNER + (None,),):
                orig = getattr(importlib.import_module(f"adderbound.{module}"), name, None)
                if not callable(orig):
                    self.missing.append(f"{module}.{name}")
                    continue
                wrapper = self._wrapper(module, name, orig, extra)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, orig in reversed(patched):
                setattr(mod, attr, orig)

    def metrics(self):
        """Every per-layer metric as {name: (value, unit)}, zero where unused."""
        out = {}

        def stat(key):
            return self.stats.get(key) or _Stat()

        for module, name, extra in LAYERS:
            key = f"{module}.{name}"
            st = stat(key)
            out[f"{key}.calls"] = (st.calls, "count")
            if extra:
                out[f"{key}.{extra[0]}"] = (st.work, "B" if extra[0] == "bytes" else "count")
            out[f"{key}.self_s"] = (st.self_s, "s")
            if key in _RATES:
                rate = st.work / st.incl_s if st.incl_s else 0.0
                out[f"{key}.{_RATES[key]}_per_s"] = (rate, "1/s")
        st = stat(OBJECTIVE)
        out[f"{OBJECTIVE}.scalar_calls"] = (st.calls, "count")
        out[f"{OBJECTIVE}.array_elems"] = (st.work, "count")
        out[f"{OBJECTIVE}.self_s"] = (st.self_s, "s")
        for suite in SUITES:
            out[f"verify.{suite}.s"] = (stat(f"verify.{suite}").incl_s, "s")
        for func in SPAN_FUNCS:
            at_1 = [s for s in self.spans if s["name"] == func and s["args"][:1] == [1.0]]
            for name in ("objective_scalar_calls", "scalar_maximize_calls"):
                out[f"{func}.at_1.{name}"] = (at_1[0][name] if at_1 else 0, "count")
        return out

    def counts(self):
        """The deterministic part of the trace: every count, no times."""
        return {
            key: (st.calls, st.work) for key, st in sorted(self.stats.items())
        }, [{k: v for k, v in s.items() if k != "wall_s"} for s in self.spans]
