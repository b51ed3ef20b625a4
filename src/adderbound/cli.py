"""Command-line front end.

Subcommands:
  bound    evaluate the r2 bounds at one first-family rate
  curve    export the bounds over an r1 grid as CSV
  sauer    evaluate the soft shattering bound exactly
  verify   run seeded self-check suites, or check a serialized system/pair
  search   exhaustive union-free pair search at small n
  system   emit the log2(3) construction

Handlers return (exit code, JSON record, text lines) and print nothing; main
prints one of the two, so a command that stops on an error leaves stdout
empty.

Exit codes: 0 on success, 1 when a verification fails or a bound cannot be
evaluated, 2 on usage errors.
Output is deterministic: identical argv (and seed) give identical bytes on one host.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import Optional, Sequence

from .bounds import (
    MAX_CURVE_STEPS,
    EvaluationError,
    curve,
    main_bound,
    simple_bound,
    ul_bound,
    weldon_bound,
)
from .families import (
    MAX_SAUER_N,
    SEARCH_NODES_PER_SEC,
    exhaustive_pair_search,
    family_from_text,
    family_to_text,
    is_multiset_union_free,
    soft_sauer_bound,
)
from .systems import (
    log3_construction,
    system_from_json,
    system_json_chunks,
    system_rates,
    validate_system,
)
from .verify import SUITE_NAMES, run_all, run_suite

__all__ = ["main"]

# `bound --which` names in `all` order; the lambdas look each bound up when
# called, so a patched module attribute is the one that runs
_BOUNDS = {
    "simple": lambda r1: simple_bound(r1),
    "weldon": lambda r1: weldon_bound(r1),
    "ul": lambda r1: ul_bound(r1),
    "main": lambda r1: main_bound(r1),
}


def _cmd_bound(args):
    names = _BOUNDS if args.which == "all" else (args.which,)
    values = {name: _BOUNDS[name](args.r1) for name in names}
    lines = [f"{name:<7} {v:.6f}" for name, v in values.items()]
    return 0, {"r1": args.r1, "bounds": values}, lines


def _cmd_curve(args):
    bc = curve(args.lo, args.hi, args.steps)
    text = bc.to_csv()
    if not args.out:
        return 0, None, text.splitlines()
    with open(args.out, "w") as fh:
        fh.write(text)
    return 0, None, [f"wrote {len(bc.rows)} rows to {args.out}"]


def _cmd_sauer(args):
    res = soft_sauer_bound(args.n, args.d, args.k)
    record = {**asdict(res), "exact": str(res.exact), "value": res.value}
    lines = [
        f"t_star = {res.t_star}",
        f"exact  = {res.exact}",
        f"value  = {res.value:.6f}",
    ]
    return 0, record, lines


def _cmd_verify(args):
    modes = sum(x is not None for x in (args.suite, args.system, args.pair))
    if modes > 1:
        raise ValueError("choose one of --suite, --system, --pair")
    if args.seed is not None and (args.system is not None or args.pair is not None):
        raise ValueError("--seed applies only to the suites, not to --system or --pair")
    if args.system is not None:
        return _verify_system(args)
    if args.pair is not None:
        return _verify_pair(args)
    return _verify_suites(args)


def _verify_suites(args):
    seed = args.seed or 0
    if args.suite in (None, "all"):
        suites = run_all(seed)
    else:
        suites = {args.suite: run_suite(args.suite, seed)}
    checks = [(s, c) for s, cs in suites.items() for c in cs]
    bad = sum(1 for _, c in checks if not c.passed)
    record = {
        "seed": seed,
        "passed": bad == 0,
        "suites": {s: list(map(asdict, cs)) for s, cs in suites.items()},
    }
    lines = [
        f"{'PASS' if c.passed else 'FAIL'} {s}/{c.name}  samples={c.samples}"
        f"  max_violation={c.max_violation:.3e}  tolerance={c.tolerance:.0e}"
        for s, c in checks
    ]
    if bad:
        lines.append(f"{bad} of {len(checks)} checks failed")
    else:
        lines.append(f"all {len(checks)} checks passed")
    return 0 if bad == 0 else 1, record, lines


def _system_summary(u):
    """Validate u; return (reason, record fields, text lines) shared by two commands."""
    reason = validate_system(u)
    r = system_rates(u)
    fields = {
        "n": u.n,
        "m": [u.m0, u.m1, u.m2],
        "rates": list(r.as_tuple()),
        "total": r.total,
    }
    lines = [
        f"n = {u.n}, pairs = {u.m0}, m1 = {u.m1}, m2 = {u.m2}",
        f"rates = ({r.r0:.6f}, {r.r1:.6f}, {r.r2:.6f}), total = {r.total:.6f}",
        "valid" if reason is None else f"invalid: {reason}",
    ]
    return reason, fields, lines


def _verify_system(args):
    with open(args.system) as fh:
        u = system_from_json(fh.read())
    reason, fields, lines = _system_summary(u)
    record = {"file": args.system, "valid": reason is None, "reason": reason, **fields}
    return 0 if reason is None else 1, record, lines


def _verify_pair(args):
    fams = []
    for path in args.pair:
        with open(path) as fh:
            fams.append(family_from_text(fh.read()))
    f1, f2 = fams
    for side, f in (("first", f1), ("second", f2)):
        if not f:
            raise ValueError(f"{side} family is empty")
    ok = is_multiset_union_free(f1, f2)
    record = {
        "files": list(args.pair),
        "n": f1.n,
        "sizes": [len(f1), len(f2)],
        "product": len(f1) * len(f2),
        "union_free": ok,
    }
    lines = [
        f"n = {f1.n}, sizes = {len(f1)} x {len(f2)} = {len(f1) * len(f2)}",
        "union-free" if ok else "not union-free",
    ]
    return 0 if ok else 1, record, lines


def _cmd_search(args):
    res = exhaustive_pair_search(args.n, args.budget)
    record = {
        "n": args.n,
        "product": res.product,
        "exact": res.exact,
        "nodes": res.nodes,
        "f1": family_to_text(res.f1),
        "f2": family_to_text(res.f2),
    }
    lines = [
        f"product = {res.product}",
        f"exact   = {'yes' if res.exact else 'no'}",
        f"nodes   = {res.nodes}",
        "f1:",
        *record["f1"].splitlines(),
        "f2:",
        *record["f2"].splitlines(),
    ]
    return 0, record, lines


def _cmd_system(args):
    if not args.log3:
        raise ValueError("the only available construction is --log3")
    u = log3_construction(args.n)
    reason, fields, lines = _system_summary(u)
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(system_json_chunks(u))  # system_to_json's text, never held whole
        lines.append(f"wrote {args.out}")
    record = {**fields, "valid": reason is None, "out": args.out}
    return 0 if reason is None else 1, record, lines


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
        choices=[*_BOUNDS, "all"],
        default="all",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("curve", help="CSV of the bounds over an r1 grid")
    p.add_argument("--from", dest="lo", type=float, default=0.9)
    p.add_argument("--to", dest="hi", type=float, default=1.0)
    p.add_argument(
        "--steps",
        type=int,
        default=101,
        help=f"r1 grid points, 2 to {MAX_CURVE_STEPS} (default: %(default)s)",
    )
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_curve, json=False)

    p = sub.add_parser("sauer", help="soft shattering bound, exact")
    p.add_argument(
        "--n",
        type=int,
        required=True,
        help=f"ground-set size, at most {MAX_SAUER_N}",
    )
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sauer)

    p = sub.add_parser("verify", help="self-checks, or validate a system/pair")
    p.add_argument("--suite", choices=[*SUITE_NAMES, "all"], default=None)
    p.add_argument("--system", type=str, default=None, metavar="FILE")
    p.add_argument("--pair", nargs=2, default=None, metavar=("F1", "F2"))
    p.add_argument("--seed", type=int, default=None, help="suite seed (default: 0)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="best union-free pair at small n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--budget",
        type=float,
        default=10.0,
        help=f"seconds of node budget, {SEARCH_NODES_PER_SEC:,} nodes per second",
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
    args = _build_parser().parse_args(argv)
    try:
        code, record, lines = args.func(args)
        print(json.dumps(record, indent=2) if args.json else "\n".join(lines), flush=True)
    except (ValueError, OSError, EvaluationError) as exc:
        if isinstance(exc, BrokenPipeError):
            # the reader is gone: the flush at exit then writes to devnull, not raising again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        try:
            print(f"error: {exc}", file=sys.stderr)
        except BrokenPipeError:  # stderr is that pipe too, as after 2>&1
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
        return 1 if isinstance(exc, EvaluationError) else 2
    return code


if __name__ == "__main__":
    sys.exit(main())
