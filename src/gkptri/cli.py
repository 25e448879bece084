"""Command-line surface: generate triangles, expand grammars, print series,
run verification suites, and diff brute-force censuses against rows.

`oracle KIND` is a thin layer over `verify.ORACLES`, the table that also
drives the `*-oracle` suites: the kinds, their option, census, reference
row and buckets all come from it.

Exit codes: 0 everything passed or stdout was closed early (`| head`), 1 a
check failed, 2 usage or parse error, 3 an enumeration budget was exceeded,
4 an internal error (any other exception, one `internal error: Type: message`
line).  The enumeration budget (`--budget`, else the GKPTRI_BUDGET variable,
else 10**7) is a positive integer such as `10` or `1e6`; else a usage error.
`oracle` and `verify` spend it on census objects, `triangle` on the
(N+1)(N+2)/2 entries of rows 0..N, all of them before the first row.
So is an option that the chosen source (family, six-tuple, oracle kind or
the tree function) does not read: it is rejected, never ignored.
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import json
import os
import re
import sys
import time

from . import census as census_mod
from .errors import BudgetExceeded, GkpError, PolyParseError
from .fps import gen_series, tree_function
from .grammar import Grammar, hao_grammar, hao_seed, iterate_D
from .polyring import LaurentPoly, parse_poly, parse_rational
from .triangles import (
    FORMATS,
    Triangle,
    TriangleParams,
    r_eulerian,
    recurrence_triangle,
    render_triangle,
    second_order_eulerian,
    stirling2_triangle,
    triangle_rows,
    whitney_eulerian,
)
from .verify import ORACLES, SUITES, VerifyOptions, run_suites

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# --family name -> (family function, the options it takes, in call order)
FAMILIES = {
    "whitney": (whitney_eulerian, ("m", "r")),
    "r-eulerian": (r_eulerian, ("r",)),
    "second-order": (second_order_eulerian, ("r",)),
    "stirling2": (stirling2_triangle, ()),
}


def dumps_canonical(payload) -> str:
    """The compact, key-sorted JSON of `verify --format json`; it round-trips byte-identically
    through json.loads.  `render_triangle` writes the triangle JSON in that form itself."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


BUDGET_HELP = ("enumeration budget, a positive integer such as 10 or 1e6 "
               "(default: GKPTRI_BUDGET, else 1e7)")
HAO_HELP = "six-tuple a0,a1,a2,b0,b1,b2 (a0 < 0: --hao=-2,...)"


def _default_budget(args) -> int:
    source, text = "--budget", args.budget
    if text is None:
        source, text = "GKPTRI_BUDGET", os.environ.get("GKPTRI_BUDGET")
        if not text:
            return census_mod.DEFAULT_BUDGET
    match = re.fullmatch(r"\s*([0-9]+)(?:[eE]\+?([0-9]{1,4}))?\s*", text)
    if match and int(match[1]) > 0:
        return int(match[1]) * 10 ** int(match[2] or 0)
    raise ValueError(f"{source} must be a positive integer such as 10 or 1e6, got {text!r}")


# Exact integers (exponent 0, so str() is linear); a lost digit raises.
EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                        traps=[decimal.Inexact, decimal.Rounded])


def _reject_unread(args, source: str, options) -> None:
    """A usage error if any of `options`, which `source` does not read, was given."""
    given = [f"--{o}" for o in options if getattr(args, o) is not None]
    if given:
        raise ValueError(f"{source} does not take {' or '.join(given)}")


def _triangle_from_args(args) -> Triangle:
    # Row 0 only: the family functions check the arguments and give the label.
    if args.params is None and args.family is None:
        raise ValueError("one of --family or --params is required")
    source = f"--family {args.family}" if args.family else "--params"
    family, takes = FAMILIES.get(args.family, (None, ()))
    if any(getattr(args, o) is None for o in takes):
        raise ValueError(f"{source} needs {' and '.join('--' + o for o in takes)}")
    _reject_unread(args, source, [o for o in ("m", "r") if o not in takes])
    if family is None:
        return recurrence_triangle(TriangleParams.parse(args.params), 0)
    return family(*(getattr(args, o) for o in takes), 0)


def cmd_triangle(args) -> int:
    """Write each row as it is filled, in exact Decimal or in Fraction, after
    spending the (N+1)(N+2)/2 entries of rows 0..N against the budget."""
    t = _triangle_from_args(args)
    entries, budget = (args.rows + 1) * (args.rows + 2) // 2, _default_budget(args)
    if entries > budget:
        raise BudgetExceeded(f"{entries} triangle entries pass the budget of {budget}")
    with decimal.localcontext(EXACT):
        one = decimal.Decimal(1) if t.params.is_integral() else 1
        rows = triangle_rows(t.params, args.rows, one)
        sys.stdout.writelines(render_triangle(t, rows, args.format))
    sys.stdout.write("\n")
    return EXIT_OK


def _grammar_from_args(args) -> tuple[Grammar, LaurentPoly]:
    if args.hao is not None:
        params = TriangleParams.parse(args.hao)
        g = hao_grammar(params)
        seed = parse_poly(args.seed) if args.seed else hao_seed(params)
        return g, seed
    if args.rules is None:
        raise ValueError("one of --hao or --rules is required")
    with open(args.rules) as fh:
        g = Grammar.from_text(fh.read())
    if not args.seed:
        raise ValueError("--rules needs an explicit --seed")
    return g, parse_poly(args.seed)


def cmd_grammar(args) -> int:
    g, seed = _grammar_from_args(args)
    for level in iterate_D(g, seed, args.n):
        print(level)
    return EXIT_OK


def cmd_series(args) -> int:
    if args.tree_function:
        _reject_unread(args, "--tree-function", ("hao", "rules", "seed"))
        print(tree_function(args.order))
        return EXIT_OK
    g, seed = _grammar_from_args(args)
    series = gen_series(g, seed, args.order)
    for n in range(args.order + 1):
        print(f"t^{n}: {series.coefficient(n)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    for flag, value in (("--max-n", args.max_n), ("--order", args.order)):
        if value is not None and value < 0:
            raise ValueError(f"{flag} must be nonnegative, got {value}")
    opts = VerifyOptions(
        max_n=args.max_n,
        order=args.order,
        budget=_default_budget(args),
    )
    if args.y:
        opts.y_values = tuple(map(parse_rational, args.y))
        if {0, 1} & set(opts.y_values):
            raise ValueError("the identity needs y outside {0, 1}")
    start = time.monotonic()
    reports = run_suites(args.suites, opts)
    wall_ms = int((time.monotonic() - start) * 1000)
    payload = {
        "command": ["verify"] + args.suites,
        "checks": [r.record() for r in reports],
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
        raise ValueError(f"oracle {args.kind} needs {oracle.usage or '--' + oracle.option}")
    _reject_unread(args, f"oracle {args.kind}",
                   [o for o in ("r", "params", "hao") if o != oracle.option])
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
    source = p.add_mutually_exclusive_group()
    source.add_argument("--family", choices=FAMILIES)
    source.add_argument("--params",
                        help="a0,a1,a2,b0,b1,b2, integers or p/q (a0 < 0: --params=-2,...)")
    p.add_argument("--m", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--rows", type=int, required=True, help="compute rows 0..N")
    p.add_argument("--format", choices=FORMATS, default="oeis")
    p.add_argument("--budget", help=BUDGET_HELP)
    p.set_defaults(fn=cmd_triangle)

    p = sub.add_parser("grammar", help="print D^0..D^n of a seed polynomial")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--rules", help="file with one `letter -> polynomial` per line")
    source.add_argument("--hao", help=HAO_HELP)
    p.add_argument("--seed", help="seed polynomial, e.g. 'u*v^2'")
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(fn=cmd_grammar)

    p = sub.add_parser("series", help="print series coefficients")
    p.add_argument("--tree-function", action="store_true",
                   help="coefficients n^(n-1)/n! of the tree function")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--rules")
    source.add_argument("--hao", help=HAO_HELP)
    p.add_argument("--seed")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("verify", help="run identity/oracle suites")
    p.add_argument("suites", nargs="+",
                   help=f"suite names or 'all'; available: {', '.join(sorted(SUITES))}")
    p.add_argument("--max-n", type=int, help="cap every suite's row grid")
    p.add_argument("--order", type=int, help="override series truncation orders")
    p.add_argument("--budget", help=BUDGET_HELP)
    p.add_argument("--y", action="append",
                   help="evaluation point for second-order-egf, repeatable (y < 0: --y=-3/7)")
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force censuses, two-column tables")
    p.add_argument("kind", choices=tuple(ORACLES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--params", help="a0,a1,a2 for kind=components (a0 < 0: --params=-1,...)")
    p.add_argument("--hao", help=HAO_HELP + " (kind=vleaves)")
    p.add_argument("--diff", action="store_true",
                   help="compare against the matching triangle row")
    p.add_argument("--budget", help=BUDGET_HELP)
    p.set_defaults(fn=cmd_oracle)

    return parser


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift CPython's cap on int-to-text conversion (4300 digits by default,
    Python 3.10.7 and later) for the duration of one command."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with its own code; normalise usage errors to 2
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        with _unlimited_int_digits():
            code = args.fn(args)
        sys.stdout.flush()
        return code
    except PolyParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BrokenPipeError:
        # The reader left (`| head`); send the exit-time flush to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (GkpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
