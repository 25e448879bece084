"""Operation lists of the four benchmark workloads.

Every operation is either a CLI call, run through `gkptri.cli.main(argv)`
with its standard output hashed, or a call into the public library, whose
return value is rendered and hashed after the timed span.  `pins.json`
holds the expected exit code and sha256 of every operation that any seed
can pick.

`verify-all` and `triangle-600` take no seed.  In `deep-expand` and
`oracle-census` the seed picks each slot's input from a pool of inputs of
like cost (on the reference machine each entry's timing was within about
10% of the pool's first entry).  Seed 0 picks the first entry of every
pool, which is the default list.  NOTES.md says why each workload exists.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import gkptri


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    A CLI operation has `argv`; a library operation has `call` and
    `render`, which turns the returned value into the pieces of text that
    are hashed (pieces, so that the whole text never sits in memory).
    `normalize` rewrites captured CLI output before hashing; an operation
    without it is hashed as a stream and its output is never kept.
    `check` cross-checks the result (or the CLI output text) by another
    route; pin.py runs it before pinning, never inside a timed run.
    """

    id: str
    argv: tuple[str, ...] | None = None
    call: Callable[[], object] | None = None
    render: Callable[[object], Iterable[str]] | None = None
    normalize: Callable[[str], str] | None = None
    check: Callable[[object], bool] | None = None


def _cli(*argv: str, normalize=None, check=None) -> Op:
    return Op(id="gkptri " + " ".join(argv), argv=argv, normalize=normalize, check=check)


def _verify_outcome(text: str) -> str:
    """verify JSON reduced to its outcome: no `wall_ms`, and each check only
    with the fields that describe its result, so telemetry fields added to
    the schema later do not read as a changed result."""
    payload = json.loads(text)
    checks = [{key: c.get(key) for key in ("name", "params", "order", "status", "locus")}
              for c in payload["checks"]]
    outcome = {"command": payload["command"], "passed": payload["passed"], "checks": checks}
    return json.dumps(outcome, sort_keys=True, separators=(",", ":"))


def _only_c13_fails(text: str) -> bool:
    """The known red check (C13) is the one failing verify check."""
    checks = json.loads(text)["checks"]
    return {c["name"] for c in checks if c["status"] != "pass"} == {"excedance-oracle"}


def _diff_matches(text: str) -> bool:
    return text.splitlines()[-1].startswith("diff: matches")


# -- rendering of library results -----------------------------------------------
# Only public, documented output is rendered (str of numbers and polynomials,
# the outcome of a check), so an internal change of representation does not
# read as a changed result.


def _render_triangle(t):
    for row in t.rows:
        yield ",".join(str(v) for v in row) + "\n"


def _render_solution(sol):
    for letter in sorted(sol):
        for c in sol[letter].coeffs:
            yield f"{letter}: {c}\n"


def _render_report(report):
    yield f"{report.name} passed={report.passed} failure={report.failure}\n"


# -- library operations ----------------------------------------------------------
# Calls go through the `gkptri` namespace at call time, so the traced run
# sees the wrapped functions.


def _extract(params: str, n: int) -> Op:
    p = gkptri.TriangleParams.parse(params)
    return Op(id=f"extract_triangle({params}, {n})",
              call=lambda: gkptri.extract_triangle(p, n), render=_render_triangle,
              check=lambda t: t.rows == gkptri.recurrence_triangle(p, n).rows)


def _solves_ode(g, sol, order: int) -> bool:
    return all(sol[x] == gkptri.gen_series(g, gkptri.LaurentPoly.variable(x), order)
               for x in g.alphabet)


def _ode(params: str, order: int) -> Op:
    p = gkptri.TriangleParams.parse(params)
    return Op(
        id=f"solve_ode(hao_grammar({params}), {order})",
        call=lambda: gkptri.solve_ode(gkptri.grammar_ode(gkptri.hao_grammar(p)), order),
        render=_render_solution,
        check=lambda sol: _solves_ode(gkptri.hao_grammar(p), sol, order),
    )


def _identity_check(op_id: str, call) -> Op:
    return Op(id=op_id, call=call, render=_render_report,
              check=lambda report: report.passed)


def _whitney_egf(m: int, r: int, order: int) -> Op:
    return _identity_check(f"verify_closed_form_whitney({m}, {r}, {order})",
                           lambda: gkptri.verify_closed_form_whitney(m, r, order))


def _second_order_egf(y: str, order: int) -> Op:
    return _identity_check(f"verify_secondorder_egf({y}, {order})",
                           lambda: gkptri.verify_secondorder_egf(Fraction(y), order))


def _a1zero(a0: int, a2: int, order: int) -> Op:
    return _identity_check(f"verify_sol_a1zero({a0}, {a2}, {order})",
                           lambda: gkptri.verify_sol_a1zero(a0, a2, order))


# -- pools: the first entry of each is the default ------------------------------

# extract_triangle at n = 400 on whitney(3, r).
EXTRACT_LARGE = [("2,3,0,1,-3,3", 400), ("0,3,0,3,-3,3", 400), ("1,3,0,2,-3,3", 400),
                 ("3,3,0,0,-3,3", 400)]
# extract_triangle at n = 300 on grammars with negative exponents.
EXTRACT_NEGATIVE = [("1,-2,1,0,2,-2", 300), ("1,-2,1,1,2,-2", 300),
                    ("2,-2,1,1,2,-2", 300), ("1,-1,1,0,1,-1", 300)]
# solve_ode at order 28 on two-letter grammars of total degree 4.
ODE_LARGE = [("2,3,0,1,-3,3", 28), ("0,-1,2,0,1,1", 28), ("0,1,2,0,-1,1", 28)]
# solve_ode at order 24 on grammars with negative exponents.
ODE_NEGATIVE = [("1,-2,1,0,2,-2", 24), ("0,-2,1,0,1,-2", 24)]
WHITNEY_EGF = [(3, 2, 80), (3, 1, 80), (3, 3, 80), (2, 1, 80)]
SECOND_ORDER_EGF = [("1/2", 120), ("2", 120), ("1/3", 120)]
A1ZERO = [(2, 3, 60), (1, 3, 60)]
GRAMMAR_CLI = [("2,3,0,1,-3,3", 100), ("1,3,0,2,-3,3", 100), ("0,3,0,3,-3,3", 100)]
SERIES_CLI = [("2,3,0,1,-3,3", 80), ("1,3,0,2,-3,3", 80), ("0,3,0,3,-3,3", 80)]

# oracle vleaves on whitney(2, r) at n = 7: n! 2^n histories for every r.
VLEAVES = [("1,2,0,1,-2,2", 7), ("0,2,0,2,-2,2", 7), ("2,2,0,0,-2,2", 7)]
COMPONENTS = [("1,2,1", 7), ("0,3,1", 7)]

_POOLS = (EXTRACT_LARGE, EXTRACT_NEGATIVE, ODE_LARGE, ODE_NEGATIVE, WHITNEY_EGF,
          SECOND_ORDER_EGF, A1ZERO, GRAMMAR_CLI, SERIES_CLI, VLEAVES, COMPONENTS)


def _deep_expand(pick) -> list[Op]:
    grammar_hao, grammar_n = pick(GRAMMAR_CLI)
    series_hao, series_order = pick(SERIES_CLI)
    return [
        _extract(*pick(EXTRACT_LARGE)),
        _extract(*pick(EXTRACT_NEGATIVE)),
        _ode(*pick(ODE_LARGE)),
        _ode(*pick(ODE_NEGATIVE)),
        _whitney_egf(*pick(WHITNEY_EGF)),
        _second_order_egf(*pick(SECOND_ORDER_EGF)),
        _a1zero(*pick(A1ZERO)),
        _cli("grammar", "--hao", grammar_hao, "--n", str(grammar_n)),
        _cli("series", "--hao", series_hao, "--seed", "u*v^2",
             "--order", str(series_order)),
    ]


def _oracle(*args: str) -> Op:
    return _cli("oracle", *args, "--diff", check=_diff_matches)


def _oracle_census(pick) -> list[Op]:
    vleaves_hao, vleaves_n = pick(VLEAVES)
    components, components_n = pick(COMPONENTS)
    return [
        _oracle("descents", "--n", "4", "--r", "3"),
        _oracle("partitions", "--n", "12"),
        _oracle("vleaves", "--hao", vleaves_hao, "--n", str(vleaves_n)),
        _oracle("components", "--params", components, "--n", str(components_n)),
        _oracle("excedances", "--n", "8", "--r", "0"),
        _oracle("excedances", "--n", "8", "--r", "1"),
        _oracle("cadets", "--n", "7", "--r", "2"),
    ]


def _verify_all(pick) -> list[Op]:
    return [_cli("verify", "all", "--format", "json", normalize=_verify_outcome,
                 check=_only_c13_fails)]


def _triangle_600(pick) -> list[Op]:
    return [
        _cli("triangle", "--family", "whitney", "--m", "3", "--r", "2",
             "--rows", "600", "--format", "oeis"),
        _cli("triangle", "--family", "second-order", "--r", "2",
             "--rows", "600", "--format", "json"),
        _cli("triangle", "--family", "stirling2", "--rows", "600", "--format", "csv"),
        _cli("triangle", "--params", "1/2,1,1/3,1,-1,2", "--rows", "200",
             "--format", "plain"),
    ]


# The speed probe's kernel for each workload (probe.py): the one whose work
# resembles the workload's.  triangle-600 spends about 90% of its time
# turning big ints into text.
PROBE = {
    "verify-all": "interp",
    "triangle-600": "bigint",
    "deep-expand": "interp",
    "oracle-census": "interp",
}

_BUILDERS = {
    "verify-all": _verify_all,
    "triangle-600": _triangle_600,
    "deep-expand": _deep_expand,
    "oracle-census": _oracle_census,
}


def build(workload: str, seed: int) -> list[Op]:
    """The operation list of a workload for a seed (seed 0: the defaults)."""
    if seed == 0:
        return _BUILDERS[workload](lambda pool: pool[0])
    rng = random.Random(seed)
    return _BUILDERS[workload](rng.choice)


def every_op() -> list[Op]:
    """Each distinct operation that some seed can pick, for pinning."""
    longest = max(len(pool) for pool in _POOLS)
    ops: dict[str, Op] = {}
    for builder in _BUILDERS.values():
        for index in range(longest):
            for op in builder(lambda pool: pool[index % len(pool)]):
                ops.setdefault(op.id, op)
    return list(ops.values())

