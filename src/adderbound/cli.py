"""Command-line front end.

Subcommands:
  bound    evaluate the r2 bounds at one first-family rate
  curve    export the bounds over an r1 grid as CSV
  sauer    evaluate the soft shattering bound exactly
  verify   run seeded self-check suites, or check a serialized system/pair
  search   exhaustive union-free pair search at small n
  system   emit the log2(3) construction

Exit codes: 0 on success, 1 when a verification fails or a bound cannot be
evaluated, 2 on usage errors.
Output is deterministic: identical argv (and seed) give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .bounds import (
    DEFAULT_CONFIG,
    MAX_CURVE_STEPS,
    MAX_GRID_POINTS,
    MAX_REFINE_ITERS,
    EvaluationError,
    OptimizerConfig,
    curve,
    main_bound,
    simple_bound,
    ul_bound,
    weldon_bound,
)
from .families import (
    exhaustive_pair_search,
    family_from_text,
    family_to_text,
    is_multiset_union_free,
    soft_sauer_bound,
)
from .systems import (
    log3_construction,
    system_from_json,
    system_rates,
    system_to_json,
    validate_system,
)
from .verify import SUITE_NAMES, run_all, run_suite

__all__ = ["main"]


def _config_from(args) -> OptimizerConfig:
    if args.grid is None and args.refine is None:
        return DEFAULT_CONFIG
    return OptimizerConfig(
        grid_points=args.grid if args.grid is not None else DEFAULT_CONFIG.grid_points,
        refine_iters=args.refine if args.refine is not None else DEFAULT_CONFIG.refine_iters,
    )


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_bound(args) -> int:
    cfg = _config_from(args)
    order = ("simple", "weldon", "ul", "main")
    values = {}
    for name in order if args.which == "all" else (args.which,):
        if name == "simple":
            values[name] = simple_bound(args.r1)
        elif name == "weldon":
            values[name] = weldon_bound(args.r1)
        elif name == "ul":
            values[name] = ul_bound(args.r1, cfg)
        else:
            values[name] = main_bound(args.r1, cfg)
    if args.json:
        _emit_json({"r1": args.r1, "bounds": values})
    else:
        for name, v in values.items():
            print(f"{name:<7} {v:.6f}")
    return 0


def _cmd_curve(args) -> int:
    bc = curve(args.lo, args.hi, args.steps, _config_from(args))
    text = bc.to_csv()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {len(bc.rows)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_sauer(args) -> int:
    res = soft_sauer_bound(args.n, args.d, args.k)
    if args.json:
        _emit_json(
            {
                "n": res.n,
                "d": res.d,
                "k": res.k,
                "t_star": res.t_star,
                "exact": str(res.exact),
                "value": res.value,
            }
        )
    else:
        print(f"t_star = {res.t_star}")
        print(f"exact  = {res.exact}")
        print(f"value  = {res.value:.6f}")
    return 0


def _cmd_verify(args) -> int:
    modes = sum(x is not None for x in (args.suite, args.system, args.pair))
    if modes > 1:
        raise ValueError("choose one of --suite, --system, --pair")
    if args.system is not None:
        return _verify_system(args)
    if args.pair is not None:
        return _verify_pair(args)
    return _verify_suites(args)


def _verify_suites(args) -> int:
    name = args.suite or "all"
    if name == "all":
        suites = run_all(args.seed)
    else:
        suites = {name: run_suite(name, args.seed)}
    checks = [(s, c) for s, cs in suites.items() for c in cs]
    passed = all(c.passed for _, c in checks)
    if args.json:
        _emit_json(
            {
                "seed": args.seed,
                "passed": passed,
                "suites": {s: [c.to_dict() for c in cs] for s, cs in suites.items()},
            }
        )
    else:
        for s, c in checks:
            verdict = "PASS" if c.passed else "FAIL"
            print(
                f"{verdict} {s}/{c.name}  samples={c.samples}"
                f"  max_violation={c.max_violation:.3e}  tolerance={c.tolerance:.0e}"
            )
        bad = sum(1 for _, c in checks if not c.passed)
        if bad:
            print(f"{bad} of {len(checks)} checks failed")
        else:
            print(f"all {len(checks)} checks passed")
    return 0 if passed else 1


def _print_system_summary(u, r, reason) -> None:
    print(f"n = {u.n}, pairs = {u.m0}, m1 = {u.m1}, m2 = {u.m2}")
    print(f"rates = ({r.r0:.6f}, {r.r1:.6f}, {r.r2:.6f}), total = {r.total:.6f}")
    print("valid" if reason is None else f"invalid: {reason}")


def _verify_system(args) -> int:
    with open(args.system) as fh:
        u = system_from_json(fh.read())
    reason = validate_system(u)
    r = system_rates(u)
    if args.json:
        _emit_json(
            {
                "file": args.system,
                "valid": reason is None,
                "reason": reason,
                "n": u.n,
                "m": [u.m0, u.m1, u.m2],
                "rates": list(r.as_tuple()),
                "total": r.total,
            }
        )
    else:
        _print_system_summary(u, r, reason)
    return 0 if reason is None else 1


def _verify_pair(args) -> int:
    fams = []
    for path in args.pair:
        with open(path) as fh:
            fams.append(family_from_text(fh.read()))
    f1, f2 = fams
    ok = is_multiset_union_free(f1, f2)
    if args.json:
        _emit_json(
            {
                "files": list(args.pair),
                "n": f1.n,
                "sizes": [len(f1), len(f2)],
                "product": len(f1) * len(f2),
                "union_free": ok,
            }
        )
    else:
        print(f"n = {f1.n}, sizes = {len(f1)} x {len(f2)} = {len(f1) * len(f2)}")
        print("union-free" if ok else "not union-free")
    return 0 if ok else 1


def _cmd_search(args) -> int:
    res = exhaustive_pair_search(args.n, args.budget)
    if args.json:
        _emit_json(
            {
                "n": args.n,
                "product": res.product,
                "exact": res.exact,
                "nodes": res.nodes,
                "f1": family_to_text(res.f1),
                "f2": family_to_text(res.f2),
            }
        )
    else:
        print(f"product = {res.product}")
        print(f"exact   = {'yes' if res.exact else 'no'}")
        print(f"nodes   = {res.nodes}")
        print("f1:")
        sys.stdout.write(family_to_text(res.f1))
        print("f2:")
        sys.stdout.write(family_to_text(res.f2))
    return 0


def _cmd_system(args) -> int:
    if not args.log3:
        raise ValueError("the only available construction is --log3")
    u = log3_construction(args.n)
    reason = validate_system(u)
    r = system_rates(u)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(system_to_json(u))
    if args.json:
        _emit_json(
            {
                "n": u.n,
                "m": [u.m0, u.m1, u.m2],
                "rates": list(r.as_tuple()),
                "total": r.total,
                "valid": reason is None,
                "out": args.out,
            }
        )
    else:
        _print_system_summary(u, r, reason)
        if args.out:
            print(f"wrote {args.out}")
    return 0 if reason is None else 1


def _add_optimizer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--grid",
        type=int,
        default=None,
        help=f"outer-solve samples per pass, 64 to {MAX_GRID_POINTS} (default: 4096)",
    )
    p.add_argument(
        "--refine",
        type=int,
        default=None,
        help=f"golden-section iterations per inner solve, 1 to {MAX_REFINE_ITERS} (default: 64)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adderbound",
        description="Bounds and combinatorics for two-sender adder coding rates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="evaluate r2 bounds at one r1")
    p.add_argument("--r1", type=float, required=True)
    p.add_argument(
        "--which",
        choices=["main", "ul", "simple", "weldon", "all"],
        default="all",
    )
    p.add_argument("--json", action="store_true")
    _add_optimizer_flags(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("curve", help="CSV of the bounds over an r1 grid")
    p.add_argument("--from", dest="lo", type=float, default=0.9)
    p.add_argument("--to", dest="hi", type=float, default=1.0)
    p.add_argument(
        "--steps",
        type=int,
        default=101,
        help=f"r1 grid points, 2 to {MAX_CURVE_STEPS} (default: 101)",
    )
    p.add_argument("--out", type=str, default=None)
    _add_optimizer_flags(p)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("sauer", help="soft shattering bound, exact")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sauer)

    p = sub.add_parser("verify", help="self-checks, or validate a system/pair")
    p.add_argument("--suite", choices=[*SUITE_NAMES, "all"], default=None)
    p.add_argument("--system", type=str, default=None, metavar="FILE")
    p.add_argument("--pair", nargs=2, default=None, metavar=("F1", "F2"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="best union-free pair at small n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--budget",
        type=float,
        default=10.0,
        help="seconds of node budget, 150,000 nodes per second",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("system", help="emit the log2(3) construction")
    p.add_argument("--log3", action="store_true")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_system)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
