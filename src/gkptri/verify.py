"""Registry of named verification suites.

Each suite runs one identity battery over a documented default grid and
returns a list of CheckReport records; the grids can be shrunk with the
`max_n` / `order` options so CI runs stay deterministic and fast.  Suites
are registered under kebab-case names and always executed in name order;
the `*-oracle` suites are generated from ORACLES, which `gkptri oracle` reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial
from typing import Callable

from . import census as census_mod
from . import closedforms as cf
from .errors import NonTriangularExpansion, UnknownSuite
from .fps import (
    gen_series,
    grammar_ode,
    solve_ode,
    tree_function,
    verify_closed_form_whitney,
    verify_secondorder_egf,
    verify_sol_a1zero,
    verify_sol_a2zero,
    CheckReport,
    TruncatedSeries,
)
from .grammar import Grammar, extract_triangle, hao_grammar, hao_seed, iterate_D
from .polyring import LaurentPoly, parse_poly
from .triangles import (
    TriangleParams,
    r_eulerian_params,
    recurrence_triangle,
    second_order_params,
    stirling2_params,
    whitney_eulerian,
    whitney_params,
)


@dataclass
class VerifyOptions:
    """Grid overrides shared by all suites."""

    max_n: int | None = None
    order: int | None = None
    budget: int | None = None
    y_values: tuple[Fraction, ...] = (Fraction(1, 2), Fraction(2))
    points: tuple[tuple[int, int], ...] = ((2, 1), (1, 2), (3, 2))

    def cap_n(self, default: int) -> int:
        return default if self.max_n is None else min(default, self.max_n)

    def cap_order(self, default: int) -> int:
        return default if self.order is None else self.order

    def cap_budget(self, default: int) -> int:
        return default if self.budget is None else self.budget


SUITES: dict[str, callable] = {}


def suite(name: str):
    def register(fn):
        SUITES[name] = fn
        return fn
    return register


def _whitney_grid():
    for m in (1, 2, 3):
        for r in range(m + 1):
            yield m, r


def _a_grid():
    return product((0, 1, 2), (1, 2, 3), (1, 2, 3))


# -- grammar vs recurrence -----------------------------------------------------


@suite("grammar-recurrence")
def suite_grammar_recurrence(opts: VerifyOptions) -> list[CheckReport]:
    """Triangle extraction from D^n equals the direct recurrence for every
    integer six-tuple in [-2,2]^6 with a nondegenerate lattice."""
    n_max = opts.cap_n(6)
    report = CheckReport(
        name="grammar-recurrence",
        params={"grid": "a,b in [-2,2]^6, (a1,b1) != (0,0)", "n_max": n_max},
    )
    span = range(-2, 3)
    checked = 0
    for a0, a1, a2, b0, b1, b2 in product(span, span, span, span, span, span):
        if a1 == 0 and b1 == 0:
            continue
        params = TriangleParams(a0, a1, a2, b0, b1, b2)
        extracted = extract_triangle(params, n_max)
        direct = recurrence_triangle(params, n_max)
        checked += 1
        if extracted.rows != direct.rows:
            return [report.fail(f"params {params}")]
    report.params["tuples"] = checked
    return [report]


@suite("expansion-golden")
def suite_expansion_golden(opts: VerifyOptions) -> list[CheckReport]:
    """Bit-exact reproduction of the displayed derivative expansions."""
    report = CheckReport(name="expansion-golden", params={"cases": 2})
    g1 = Grammar.from_text("u -> u*v^3\nv -> u^3*v")
    seed = parse_poly("u*v^2")
    levels = iterate_D(g1, seed, 2)
    if levels[1] != parse_poly("u*v^5 + 2*u^4*v^2"):
        report.fail(f"first grammar, D^1 = {levels[1]}")
    if levels[2] != parse_poly("u*v^8 + 13*u^4*v^5 + 4*u^7*v^2"):
        report.fail(f"first grammar, D^2 = {levels[2]}")
    g2 = Grammar.from_text("u -> u*v^2\nv -> v")
    levels = iterate_D(g2, seed, 2)
    if levels[1] != parse_poly("u*v^4 + 2*u*v^2"):
        report.fail(f"second grammar, D^1 = {levels[1]}")
    if levels[2] != parse_poly("u*v^6 + 6*u*v^4 + 4*u*v^2"):
        report.fail(f"second grammar, D^2 = {levels[2]}")
    return [report]


# -- row aggregates -------------------------------------------------------------


@suite("row-sums")
def suite_row_sums(opts: VerifyOptions) -> list[CheckReport]:
    """Rows of the (mk+r)/(mn-mk+m-r) triangles sum to m^n n!."""
    n_max = opts.cap_n(7)
    report = CheckReport(
        name="row-sums",
        params={"grid": "m in {1,2,3}, 0 <= r <= m", "n_max": n_max},
    )
    for m, r in _whitney_grid():
        tri = whitney_eulerian(m, r, n_max)
        for n in range(n_max + 1):
            if tri.row_sum(n) != m ** n * factorial(n):
                report.fail(f"m={m}, r={r}, n={n}")
    return [report]


@suite("alternating-sums")
def suite_alternating_sums(opts: VerifyOptions) -> list[CheckReport]:
    """Alternating row sums equal 2^n sum_k C(n,k) m^k E_k(0) r^(n-k)."""
    n_max = opts.cap_n(7)
    report = CheckReport(
        name="alternating-sums",
        params={"grid": "m in {1,2,3}, 0 <= r <= m", "n_max": n_max},
    )
    for m, r in _whitney_grid():
        tri = whitney_eulerian(m, r, n_max)
        for n in range(n_max + 1):
            rhs = 2 ** n * sum(
                comb(n, k) * Fraction(m) ** k * cf.euler_at_zero(k)
                * Fraction(r) ** (n - k)
                for k in range(n + 1)
            )
            if tri.alternating_row_sum(n) != rhs:
                report.fail(f"m={m}, r={r}, n={n}")
    return [report]


# -- closed forms ----------------------------------------------------------------


@suite("whitney-explicit")
def suite_whitney_explicit(opts: VerifyOptions) -> list[CheckReport]:
    """The alternating binomial formula equals the recurrence entrywise."""
    n_max = opts.cap_n(7)
    report = CheckReport(
        name="whitney-explicit",
        params={"grid": "m in {1,2,3}, 0 <= r <= m", "n_max": n_max},
    )
    for m, r in _whitney_grid():
        tri = whitney_eulerian(m, r, n_max)
        for n in range(n_max + 1):
            for k in range(n + 1):
                value = cf.a_mr_explicit(m, r, n, k)
                if value != tri.entry(n, k):
                    report.fail(f"m={m}, r={r}, n={n}, k={k}")
    return [report]


@suite("b1-explicit")
def suite_b1_explicit(opts: VerifyOptions) -> list[CheckReport]:
    """Finite-difference product formula equals the b = 1 recurrence, and
    every value is integral despite the 1/(a1^k k!) prefactor."""
    n_max = opts.cap_n(7)
    report = CheckReport(
        name="b1-explicit",
        params={"grid": "a0 in {0,1,2}, a1,a2 in {1,2,3}", "n_max": n_max},
    )
    for a0, a1, a2 in _a_grid():
        tri = recurrence_triangle(TriangleParams(a0, a1, a2, 1, 0, 0), n_max)
        for n in range(n_max + 1):
            for k in range(n + 1):
                value = cf.f_gram_explicit(a0, a1, a2, n, k)
                if value != tri.entry(n, k):
                    report.fail(f"a=({a0},{a1},{a2}), n={n}, k={k}")
                if not isinstance(value, int):
                    report.fail(f"non-integral a=({a0},{a1},{a2}), n={n}, k={k}")
    return [report]


@suite("b2zero-explicit")
def suite_b2zero_explicit(opts: VerifyOptions) -> list[CheckReport]:
    """Rising-step prefactor formula equals the b2 = 0 recurrence."""
    n_max = opts.cap_n(7)
    report = CheckReport(
        name="b2zero-explicit",
        params={"grid": "a0 in {0,1,2}, a1,a2 in {1,2,3}, b0,b1 in {0,1,2}",
                "n_max": n_max},
    )
    for (a0, a1, a2), b0, b1 in product(_a_grid(), (0, 1, 2), (0, 1, 2)):
        tri = recurrence_triangle(TriangleParams(a0, a1, a2, b0, b1, 0), n_max)
        for n in range(n_max + 1):
            for k in range(n + 1):
                if cf.t_b2zero_explicit(a0, a1, a2, b0, b1, n, k) != tri.entry(n, k):
                    report.fail(f"a=({a0},{a1},{a2}), b=({b0},{b1}), n={n}, k={k}")
    return [report]


@suite("touchard")
def suite_touchard(opts: VerifyOptions) -> list[CheckReport]:
    """Bell-polynomial row identity holds as a polynomial identity."""
    n_max = opts.cap_n(6)
    report = CheckReport(
        name="touchard",
        params={"grid": "a0 in {0,1,2}, a1 in {1,2,3}", "n_max": n_max},
    )
    for a0, a1, n in product((0, 1, 2), (1, 2, 3), range(n_max + 1)):
        lhs, rhs = cf.touchard_check(a0, a1, n)
        if lhs != rhs:
            report.fail(f"a0={a0}, a1={a1}, n={n}")
    return [report]


@suite("a2zero-explicit")
def suite_a2zero_explicit(opts: VerifyOptions) -> list[CheckReport]:
    """Stirling-weighted binomial formula equals the a2 = 0 recurrence."""
    n_max = opts.cap_n(6)
    report = CheckReport(
        name="a2zero-explicit",
        params={"grid": "a0 in {0,1,2}, a1 in {1,2,3}", "n_max": n_max},
    )
    for a0, a1 in product((0, 1, 2), (1, 2, 3)):
        tri = recurrence_triangle(TriangleParams(a0, a1, 0, 1, 0, 0), n_max)
        for n in range(n_max + 1):
            for k in range(n + 1):
                if cf.f_a2zero_explicit(a0, a1, n, k) != tri.entry(n, k):
                    report.fail(f"a0={a0}, a1={a1}, n={n}, k={k}")
    return [report]


@suite("a1zero-rowsum")
def suite_a1zero_rowsum(opts: VerifyOptions) -> list[CheckReport]:
    """Rising-factorial row sums for the a1 = 0, b = 1 family."""
    n_max = opts.cap_n(7)
    report = CheckReport(
        name="a1zero-rowsum",
        params={"grid": "a0 in {0,1,2}, a2 in {1,2,3}", "n_max": n_max},
    )
    for a0, a2 in product((0, 1, 2), (1, 2, 3)):
        tri = recurrence_triangle(TriangleParams(a0, 0, a2, 1, 0, 0), n_max)
        for n in range(n_max + 1):
            if cf.a1zero_rowsum(a0, a2, n) != tri.row_sum(n):
                report.fail(f"a0={a0}, a2={a2}, n={n}")
    return [report]


# -- generating functions ---------------------------------------------------------


@suite("whitney-egf")
def suite_whitney_egf(opts: VerifyOptions) -> list[CheckReport]:
    """Closed bivariate EGF at exact rational points."""
    order = opts.cap_order(6)
    return [
        verify_closed_form_whitney(m, r, order, points=opts.points)
        for m, r in _whitney_grid()
    ]


@suite("ode-gen")
def suite_ode_gen(opts: VerifyOptions) -> list[CheckReport]:
    """The letter generating functions solve the analytic system: solve_ode
    equals gen_series letterwise for every grammar in the battery."""
    order = opts.cap_order(8)
    report = CheckReport(
        name="ode-gen",
        params={"grid": "hao rules (a1,a2,b1,b2) in [-2,2]^4 nondegenerate "
                        "+ named grammars"},
        order=order,
    )
    grammars: list[Grammar] = []
    span = range(-2, 3)
    seen = set()
    for a1, a2, b1, b2 in product(span, span, span, span):
        if a1 == 0 and b1 == 0:
            continue
        key = (b1 + b2 + 1, a1 + a2, b2, a2 + 1)
        if key in seen:
            continue
        seen.add(key)
        grammars.append(hao_grammar(TriangleParams(0, a1, a2, 0, b1, b2)))
    grammars.append(Grammar.from_text("x -> x^2*y\ny -> x^2*y"))
    for a1 in (1, 2, 3):
        grammars.append(Grammar.from_text(f"u -> u*v^{a1}\nv -> v"))
    for a1, a2 in product((1, 2, 3), (1, 2, 3)):
        grammars.append(Grammar.from_text(f"u -> u*v^{a1 + a2}\nv -> v^{a2 + 1}"))
    report.params["grammars"] = len(grammars)
    for g in grammars:
        sol = solve_ode(grammar_ode(g), order)
        for letter in g.alphabet:
            if sol[letter] != gen_series(g, LaurentPoly.variable(letter), order):
                report.fail(f"grammar [{g!r}], letter {letter}")
                return [report]
    return [report]


@suite("tree-function")
def suite_tree_function(opts: VerifyOptions) -> list[CheckReport]:
    """Coefficients n^(n-1)/n! and the fixed point T = z exp(T)."""
    order = opts.cap_order(12)
    report = CheckReport(name="tree-function", params={}, order=order)
    T = tree_function(order)
    for n in range(1, order + 1):
        if T.coefficient(n) != Fraction(n ** (n - 1), factorial(n)):
            report.fail(f"coefficient {n}")
    z_exp = TruncatedSeries.t_term(T.ring, 1, order) * T.exp()
    if (T - z_exp).coeffs != TruncatedSeries.zero(T.ring, order).coeffs:
        report.fail("functional equation T - z*exp(T) != 0")
    if order >= 1:
        lhs = T.differentiate() * (
            TruncatedSeries.one(T.ring, order) - T
        ).truncate(order - 1)
        if lhs != T.exp().truncate(order - 1):
            report.fail("derivative identity T'(1-T) != exp(T)")
    return [report]


@suite("second-order-egf")
def suite_second_order_egf(opts: VerifyOptions) -> list[CheckReport]:
    """Tree-function EGF of the second-order rows at rational y."""
    order = opts.cap_order(6)
    return [verify_secondorder_egf(y, order) for y in opts.y_values]


@suite("closed-solutions")
def suite_closed_solutions(opts: VerifyOptions) -> list[CheckReport]:
    """Closed solutions of the two one-parameter systems."""
    order = opts.cap_order(5)
    grid = list(product((0, 1, 2), (1, 2, 3)))
    reports = [verify_sol_a2zero(a0, a1, order) for a0, a1 in grid]
    reports += [verify_sol_a1zero(a0, a2, order) for a0, a2 in grid]
    failed = [r for r in reports if not r.passed]
    merged = CheckReport(
        name="closed-solutions",
        params={"grid": "a0 in {0,1,2}, a1/a2 in {1,2,3}"},
        order=order,
    )
    if failed:
        merged.fail("; ".join(f"{r.name}{r.params}: {r.failure}" for r in failed))
    return [merged]


# -- oracle equivalences -------------------------------------------------------------


@dataclass(frozen=True)
class Oracle:
    """A brute-force census and the triangle row it must equal: entry k of
    row n of the triangle with six-tuple `params(arg)` is the count in bucket
    `bucket(arg, n, k)` of `census(arg, n, budget)`.  `arg` is `parse` of the
    CLI option `--<option>` (written `usage` when it is missing); the verify
    suite `suite` runs over `grid`, pairs of (locus prefix, option text), to
    row `n_max` and reports `report`.
    """

    census: Callable
    params: Callable
    option: str | None
    suite: str
    grid: tuple[tuple[str, str], ...]
    n_max: int
    report: dict
    usage: str = ""
    parse: Callable = int
    bucket: Callable = lambda arg, n, k: k

    def census_row(self, census, arg, n: int) -> list[int]:
        """The census read as row n, for comparison with the triangle's."""
        return census.as_row(n + 1, bucket_of_index=lambda k: self.bucket(arg, n, k))

    def run(self, opts: VerifyOptions) -> list[CheckReport]:
        """The verify suite: every grid argument, rows 0..n_max."""
        n_max = opts.cap_n(self.n_max)
        budget = opts.cap_budget(census_mod.DEFAULT_BUDGET)
        report = CheckReport(name=self.suite, params={**self.report, "n_max": n_max})
        for label, text in self.grid:
            arg = self.parse(text)
            tri = recurrence_triangle(self.params(arg), n_max)
            for n in range(n_max + 1):
                census = self.census(arg, n, budget)
                if self.census_row(census, arg, n) != tri.rows[n]:
                    report.fail(f"{label}, n={n}" if label else f"n={n}")
        return [report]


def _parse_a_triple(text: str) -> tuple[int, ...]:
    if text.count(",") != 2:
        raise ValueError(f"--params needs three integers a0,a1,a2, got {text!r}")
    return tuple(int(p) for p in text.split(","))


def _vleaf_bucket(p: TriangleParams, n: int, k: int):
    if p.a1 == 0 and n >= 1:
        raise NonTriangularExpansion(f"a1 = 0 puts all of row {n} in one v-leaf bucket, "
                                     "so the census cannot be read as a row")
    return p.a2 * n + p.a1 * k + p.a0 + p.a2


ORACLES: dict[str, Oracle] = {
    # Stirling r-permutations by descents: the second-order rows.
    "descents": Oracle(
        lambda r, n, budget: census_mod.stirling_descent_census(n, r, budget=budget),
        second_order_params, option="r", suite="descent-oracle", n_max=4,
        grid=tuple((f"r={r}", str(r)) for r in (1, 2, 3)), report={"grid": "r in {1,2,3}"}),
    # Permutations by r-excedances: the (k+r)/(n-k+1-r) rows (red at r = 2).
    "excedances": Oracle(
        lambda r, n, budget: census_mod.r_excedance_census(n, r, budget=budget),
        r_eulerian_params, option="r", suite="excedance-oracle", n_max=6,
        grid=tuple((f"r={r}", str(r)) for r in (0, 1, 2)), report={"grid": "r in {0,1,2}"}),
    # Set partitions by block count: the Stirling subset triangle.
    "partitions": Oracle(
        lambda _, n, budget: census_mod.set_partition_census(n, budget=budget),
        lambda _: stirling2_params(), option=None, parse=str, suite="partition-oracle",
        n_max=7, grid=(("", ""),), report={}),
    # Cadet leaves of full (r+1)-ary trees: the second-order rows, shifted by one.
    "cadets": Oracle(
        lambda r, n, budget: census_mod.cadet_leaf_census(n, r, budget=budget),
        second_order_params, option="r", bucket=lambda r, n, k: k + 1,
        suite="cadet-oracle", n_max=4, grid=(("", "2"),), report={"r": 2}),
    # Spine points of type-(E) histories: the b = 1 rows.
    "components": Oracle(
        lambda a, n, budget: census_mod.census_components(*a, n, budget=budget),
        lambda a: TriangleParams(*a, 1, 0, 0), option="params", parse=_parse_a_triple,
        usage="--params a0,a1,a2 (comma-separated)", suite="component-oracle", n_max=4,
        grid=tuple((f"a=({a0},{a1},{a2})", f"{a0},{a1},{a2}") for a0, a1, a2 in _a_grid()),
        report={"grid": "a0 in {0,1,2}, a1,a2 in {1,2,3}"}),
    # Grammar histories by v-leaves: the rows of any integer six-tuple.
    "vleaves": Oracle(
        lambda p, n, budget: census_mod.census_vleaves(hao_grammar(p), hao_seed(p), n, "v",
                                                       budget=budget),
        lambda p: p, option="hao", parse=TriangleParams.parse, bucket=_vleaf_bucket,
        usage="--hao a0,a1,a2,b0,b1,b2", suite="vleaf-oracle", n_max=4,
        grid=tuple((f"m={m}, r={r}", str(whitney_params(m, r))) for m, r in _whitney_grid()),
        report={"grid": "m in {1,2,3}, 0 <= r <= m"}),
}


SUITES.update((oracle.suite, oracle.run) for oracle in ORACLES.values())


@suite("history-counts")
def suite_history_counts(opts: VerifyOptions) -> list[CheckReport]:
    """Structural counts: n! m^n histories and m(n+1) leaves."""
    n_max = opts.cap_n(5)
    budget = opts.cap_budget(census_mod.DEFAULT_BUDGET)
    report = CheckReport(
        name="history-counts",
        params={"grid": "m in {1,2,3}, 0 <= r <= m", "n_max": n_max},
    )
    for m, r in _whitney_grid():
        params = whitney_params(m, r)
        g = hao_grammar(params)
        seed = hao_seed(params)
        profile = census_mod.history_leaf_profile(g, seed, n_max)
        if profile != [m * (i + 1) for i in range(n_max + 1)]:
            report.fail(f"leaf profile, m={m}, r={r}")
        for n in range(n_max + 1):
            census = census_mod.census_vleaves(g, seed, n, "v", budget=budget)
            if census.total != factorial(n) * m ** n:
                report.fail(f"total histories, m={m}, r={r}, n={n}")
    return [report]


def run_suites(names: list[str], opts: VerifyOptions) -> list[CheckReport]:
    """Run the named suites (or all of them) in name order."""
    if names == ["all"]:
        names = sorted(SUITES)
    else:
        unknown = [n for n in names if n not in SUITES]
        if unknown:
            raise UnknownSuite(
                f"unknown suite(s) {', '.join(unknown)}; "
                f"available: {', '.join(sorted(SUITES))}"
            )
        names = sorted(set(names))
    reports: list[CheckReport] = []
    for name in names:
        reports.extend(SUITES[name](opts))
    return reports
