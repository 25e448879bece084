"""Command-line surface: generate triangles, expand grammars, print series,
run verification suites, and diff brute-force censuses against rows.

`oracle KIND` is a thin layer over `verify.ORACLES`, the table that also
drives the `*-oracle` suites: the kinds, their option, census, reference
row and buckets all come from it.

Exit codes: 0 everything passed, 1 a check failed, 2 usage or parse error,
3 an enumeration budget was exceeded, 4 an internal error (any other
exception, one `internal error: Type: message` line).  The enumeration
budget (`--budget`, else the GKPTRI_BUDGET environment variable, else 10**7)
is a positive integer written as `10` or `1e6`; anything else is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from fractions import Fraction

from . import census as census_mod
from .errors import BudgetExceeded, GkpError, PolyParseError
from .fps import CheckReport, gen_series, tree_function
from .grammar import Grammar, hao_grammar, hao_seed, iterate_D
from .polyring import LaurentPoly, parse_poly
from .triangles import (
    FORMATS,
    Triangle,
    TriangleParams,
    format_triangle,
    recurrence_triangle,
    r_eulerian,
    second_order_eulerian,
    stirling2_triangle,
    whitney_eulerian,
)
from .verify import ORACLES, SUITES, VerifyOptions, run_suites

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

FAMILIES = ("whitney", "r-eulerian", "second-order", "stirling2", "gkp")


class SystemExit2(Exception):
    """Usage error carrying an actionable message; mapped to exit code 2."""


def dumps_canonical(payload) -> str:
    """The one JSON dumper used everywhere, so output round-trips
    byte-identically through json.loads."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


BUDGET_HELP = ("enumeration budget, a positive integer such as 10 or 1e6 "
               "(default: GKPTRI_BUDGET, else 1e7)")


def _default_budget(args) -> int:
    source, text = "--budget", args.budget
    if text is None:
        source, text = "GKPTRI_BUDGET", os.environ.get("GKPTRI_BUDGET")
        if not text:
            return census_mod.DEFAULT_BUDGET
    match = re.fullmatch(r"\s*([0-9]+)(?:[eE]\+?([0-9]{1,4}))?\s*", text)
    if match and int(match[1]) > 0:
        return int(match[1]) * 10 ** int(match[2] or 0)
    raise SystemExit2(f"{source} must be a positive integer such as 10 or 1e6, got {text!r}")


def _triangle_from_args(args) -> Triangle:
    if args.params is not None:
        return recurrence_triangle(TriangleParams.parse(args.params), args.rows)
    if args.family is None:
        raise SystemExit2("one of --family or --params is required")
    if args.family == "whitney":
        if args.m is None or args.r is None:
            raise SystemExit2("--family whitney needs --m and --r")
        return whitney_eulerian(args.m, args.r, args.rows)
    if args.family == "r-eulerian":
        if args.r is None:
            raise SystemExit2("--family r-eulerian needs --r")
        return r_eulerian(args.r, args.rows)
    if args.family == "second-order":
        if args.r is None:
            raise SystemExit2("--family second-order needs --r")
        return second_order_eulerian(args.r, args.rows)
    if args.family == "stirling2":
        return stirling2_triangle(args.rows)
    raise SystemExit2("--family gkp needs --params")


def cmd_triangle(args) -> int:
    print(format_triangle(_triangle_from_args(args), args.format))
    return EXIT_OK


def _grammar_from_args(args) -> tuple[Grammar, LaurentPoly]:
    if args.hao is not None:
        params = TriangleParams.parse(args.hao)
        g = hao_grammar(params)
        seed = parse_poly(args.seed) if args.seed else hao_seed(params)
        return g, seed
    if args.rules is None:
        raise SystemExit2("one of --hao or --rules is required")
    with open(args.rules) as fh:
        g = Grammar.from_text(fh.read())
    if not args.seed:
        raise SystemExit2("--rules needs an explicit --seed")
    return g, parse_poly(args.seed)


def cmd_grammar(args) -> int:
    g, seed = _grammar_from_args(args)
    for level in iterate_D(g, seed, args.n):
        print(level)
    return EXIT_OK


def cmd_series(args) -> int:
    if args.tree_function:
        print(tree_function(args.order))
        return EXIT_OK
    g, seed = _grammar_from_args(args)
    series = gen_series(g, seed, args.order)
    for n in range(args.order + 1):
        print(f"t^{n}: {series.coefficient(n)}")
    return EXIT_OK


def _report_record(r: CheckReport) -> dict:
    return {
        "name": r.name,
        "params": {k: str(v) for k, v in sorted(r.params.items())},
        "order": r.order,
        "status": "pass" if r.passed else "fail",
        "locus": r.failure,
    }


def cmd_verify(args) -> int:
    opts = VerifyOptions(
        max_n=args.max_n,
        order=args.order,
        budget=_default_budget(args),
    )
    if args.y:
        opts.y_values = tuple(Fraction(y) for y in args.y)
    start = time.monotonic()
    reports = run_suites(args.suites, opts)
    wall_ms = int((time.monotonic() - start) * 1000)
    payload = {
        "command": ["verify"] + args.suites,
        "checks": [_report_record(r) for r in reports],
        "passed": all(r.passed for r in reports),
        "wall_ms": wall_ms,
    }
    if args.format == "json":
        print(dumps_canonical(payload))
    else:
        for r in reports:
            print(r)
        status = "all checks passed" if payload["passed"] else "FAILURES above"
        print(f"{len(reports)} check(s) in {wall_ms} ms: {status}")
    return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED


def cmd_oracle(args) -> int:
    oracle = ORACLES[args.kind]
    budget = _default_budget(args)
    text = getattr(args, oracle.option) if oracle.option else ""
    if text is None:
        raise SystemExit2(f"oracle {args.kind} needs {oracle.usage or '--' + oracle.option}")
    arg = oracle.parse(text)
    census = oracle.census(arg, args.n, budget)
    print(census)
    if not args.diff:
        return EXIT_OK
    row = recurrence_triangle(oracle.params(arg), args.n).rows[args.n]
    got = oracle.census_row(census, arg, args.n)
    if got == row:
        print(f"diff: matches row n={args.n}")
        return EXIT_OK
    print(f"diff: MISMATCH row n={args.n}: census {got} vs triangle {row}")
    return EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkptri",
        description="Exact triangular arrays from two-term recurrences: "
                    "generate, expand via grammar derivatives, and cross-verify.",
        epilog="Family parameter six-tuples (a0,a1,a2,b0,b1,b2): "
               "whitney(m,r) = r,m,0,m-r,-m,m; r-eulerian(r) = r,1,0,1-r,-1,1; "
               "second-order(r) = 1,1,0,1-r,-1,r; stirling2 = 0,1,0,1,0,0.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("triangle", help="print rows of a triangle")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--m", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--params", help="a0,a1,a2,b0,b1,b2 (integers or p/q)")
    p.add_argument("--rows", type=int, required=True, help="compute rows 0..N")
    p.add_argument("--format", choices=FORMATS, default="oeis")
    p.set_defaults(fn=cmd_triangle)

    p = sub.add_parser("grammar", help="print D^0..D^n of a seed polynomial")
    p.add_argument("--rules", help="file with one `letter -> polynomial` per line")
    p.add_argument("--hao", help="six-tuple a0,a1,a2,b0,b1,b2")
    p.add_argument("--seed", help="seed polynomial, e.g. 'u*v^2'")
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(fn=cmd_grammar)

    p = sub.add_parser("series", help="print series coefficients")
    p.add_argument("--tree-function", action="store_true",
                   help="coefficients n^(n-1)/n! of the tree function")
    p.add_argument("--rules")
    p.add_argument("--hao")
    p.add_argument("--seed")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("verify", help="run identity/oracle suites")
    p.add_argument("suites", nargs="+",
                   help=f"suite names or 'all'; available: {', '.join(sorted(SUITES))}")
    p.add_argument("--family", choices=("whitney",), default="whitney",
                   help="family for the sum suites (only whitney is defined)")
    p.add_argument("--max-n", type=int, help="cap every suite's row grid")
    p.add_argument("--order", type=int, help="override series truncation orders")
    p.add_argument("--budget", help=BUDGET_HELP)
    p.add_argument("--y", action="append",
                   help="evaluation point for second-order-egf (repeatable)")
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force censuses, two-column tables")
    p.add_argument("kind", choices=tuple(ORACLES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--params", help="a0,a1,a2 for kind=components")
    p.add_argument("--hao", help="six-tuple a0,a1,a2,b0,b1,b2 for kind=vleaves")
    p.add_argument("--diff", action="store_true",
                   help="compare against the matching triangle row")
    p.add_argument("--budget", help=BUDGET_HELP)
    p.set_defaults(fn=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with its own code; normalise usage errors to 2
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except PolyParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SystemExit2, GkpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
