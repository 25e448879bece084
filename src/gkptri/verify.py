"""Registry of named verification suites, and the checks they are made of.

A CheckReport is one check's outcome; its `record()` is the entry that
`verify --format json` prints.  The series identity checks (`verify_*`:
the Whitney EGF, the two closed ODE solutions, the second-order EGF) are
defined here, next to the suites that run them; they compare EGF-normal
coefficients (n! [t^n]) with denominators cleared, so none inverts a series
or divides by n!.

Each suite runs one identity battery over a documented default grid and
returns a list of CheckReport records; the grids can be shrunk with the
`max_n` / `order` options so CI runs stay deterministic and fast.  Suites
are registered under kebab-case names and always executed in name order.
The closed-form suites are the rows of CLOSED_FORMS, one runner comparing
each closed form with the recurrence; the `*-oracle` suites are generated
from ORACLES, which `gkptri oracle` reads.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from fractions import Fraction
from functools import partial
from itertools import product
from math import comb, factorial

from . import census as census_mod
from . import closedforms as cf
from .errors import (
    DegeneratePoint,
    DegenerateY,
    NonTriangularExpansion,
    UnknownSuite,
    ZeroA1,
    ZeroA2,
)
from .fps import (
    OdeSystem,
    TruncatedSeries,
    egf_levels,
    gen_levels,
    grammar_ode,
    solve_ode,
    tree_function,
)
from .grammar import Grammar, extract_triangle, hao_grammar, hao_seed, iterate_D
from .polyring import LaurentPoly, monomial, normalize_scalar, parse_poly
from .triangles import (
    Triangle,
    TriangleParams,
    r_eulerian_params,
    recurrence_triangle,
    second_order_eulerian,
    second_order_params,
    stirling2_params,
    whitney_eulerian,
    whitney_params,
)


class CheckReport:
    """Outcome of one exact identity check."""

    def __init__(self, name: str, params: dict | None = None, order: int | None = None,
                 passed: bool = True, failure: str | None = None):
        self.name = name
        self.params = {} if params is None else params
        self.order = order
        self.passed = passed
        self.failure = failure

    def fail(self, locus: str) -> "CheckReport":
        self.passed = False
        if self.failure is None:
            self.failure = locus
        return self

    def record(self) -> dict:
        """The report as one entry of `verify --format json`."""
        return {
            "name": self.name,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "order": self.order,
            "status": "pass" if self.passed else "fail",
            "locus": self.failure,
        }

    def __str__(self):
        status = "pass" if self.passed else f"FAIL ({self.failure})"
        extras = ", ".join(f"{k}={v}" for k, v in self.params.items())
        order = f" order<={self.order}" if self.order is not None else ""
        return f"{self.name} [{extras}]{order}: {status}"


class VerifyOptions:
    """Grid overrides shared by all suites."""

    def __init__(self, max_n: int | None = None, order: int | None = None,
                 budget: int | None = None,
                 y_values: tuple[Fraction, ...] = (Fraction(1, 2), Fraction(2))):
        self.max_n = max_n
        self.order = order
        self.budget = budget
        self.y_values = y_values

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


def _loci(label: str, *ranges) -> tuple[tuple[str, tuple], ...]:
    """(label filled in with args, args) for every args in product(*ranges)."""
    return tuple((label.format(*args), args) for args in product(*ranges))


_WHITNEY_TEXT = "m in {1,2,3}, 0 <= r <= m"
_WHITNEY_LOCI = tuple((f"m={m}, r={r}", (m, r)) for m in (1, 2, 3) for r in range(m + 1))
_A_TEXT = "a0 in {0,1,2}, a1,a2 in {1,2,3}"
_A_LOCI = _loci("a=({},{},{})", (0, 1, 2), (1, 2, 3), (1, 2, 3))


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


# -- closed forms ----------------------------------------------------------------


class ClosedForm:
    """A closed form and the recurrence triangle it must equal.  For each
    `(label, args)` in `grid`, the triangle with six-tuple `params(*args)` is
    filled to row `n_max`.  With no `row` reader, `form(*args, n, k)` must
    equal entry (n, k) and be an int; with one, `form(*args, n)` must equal
    `row(triangle, n)`.  The report prints the grid as `grid_text`.
    """

    def __init__(self, grid: tuple[tuple[str, tuple], ...], params: Callable, form: Callable,
                 n_max: int, grid_text: str, row: Callable | None = None):
        self.grid, self.grid_text, self.n_max = grid, grid_text, n_max
        self.params, self.form, self.row = params, form, row

    def run(self, name: str, opts: VerifyOptions) -> list[CheckReport]:
        """The verify suite `name`: every grid point, rows 0..n_max."""
        n_max = opts.cap_n(self.n_max)
        report = CheckReport(name=name, params={"grid": self.grid_text, "n_max": n_max})
        for label, args in self.grid:
            tri = recurrence_triangle(self.params(*args), n_max)
            for n in range(n_max + 1):
                if self.row is not None:
                    if self.form(*args, n) != self.row(tri, n):
                        report.fail(f"{label}, n={n}")
                    continue
                for k in range(n + 1):
                    value = self.form(*args, n, k)
                    if value != tri.entry(n, k):
                        report.fail(f"{label}, n={n}, k={k}")
                    if not isinstance(value, int):
                        report.fail(f"non-integral {label}, n={n}, k={k}")
        return [report]


# Each row calls `cf.*` when it runs, not when the table is built, so that a
# traced or patched closed form is the one that is checked.
CLOSED_FORMS: dict[str, ClosedForm] = {
    # Rows of the (mk+r)/(mn-mk+m-r) triangles sum to m^n n!.
    "row-sums": ClosedForm(
        _WHITNEY_LOCI, whitney_params, lambda m, r, n: m ** n * factorial(n),
        n_max=7, grid_text=_WHITNEY_TEXT, row=Triangle.row_sum),
    # Their alternating row sums are 2^n sum_k C(n,k) m^k E_k(0) r^(n-k).
    "alternating-sums": ClosedForm(
        _WHITNEY_LOCI, whitney_params,
        lambda m, r, n: 2 ** n * sum(comb(n, k) * Fraction(m) ** k * cf.euler_at_zero(k)
                                     * Fraction(r) ** (n - k) for k in range(n + 1)),
        n_max=7, grid_text=_WHITNEY_TEXT, row=Triangle.alternating_row_sum),
    # Their entries by the alternating binomial formula.
    "whitney-explicit": ClosedForm(
        _WHITNEY_LOCI, whitney_params, lambda *a: cf.a_mr_explicit(*a),
        n_max=7, grid_text=_WHITNEY_TEXT),
    # b = 1 entries by the finite-difference product formula, integral despite
    # its 1/(a1^k k!) prefactor.
    "b1-explicit": ClosedForm(
        _A_LOCI, lambda *a: TriangleParams(*a, 1, 0, 0), lambda *a: cf.f_gram_explicit(*a),
        n_max=7, grid_text=_A_TEXT),
    # b2 = 0 entries by the rising-step prefactor formula.
    "b2zero-explicit": ClosedForm(
        _loci("a=({},{},{}), b=({},{})", (0, 1, 2), (1, 2, 3), (1, 2, 3), (0, 1, 2), (0, 1, 2)),
        lambda *a: TriangleParams(*a, 0), lambda *a: cf.t_b2zero_explicit(*a),
        n_max=7, grid_text=_A_TEXT + ", b0,b1 in {0,1,2}"),
    # b = 1, a2 = 0 rows as Bell-polynomial coefficients.
    "touchard": ClosedForm(
        _loci("a0={}, a1={}", (0, 1, 2), (1, 2, 3)),
        lambda a0, a1: TriangleParams(a0, a1, 0, 1, 0, 0), lambda *a: cf.touchard_row(*a),
        n_max=6, grid_text="a0 in {0,1,2}, a1 in {1,2,3}", row=Triangle.row),
    # b = 1, a2 = 0 entries by the Stirling-weighted binomial formula.
    "a2zero-explicit": ClosedForm(
        _loci("a0={}, a1={}", (0, 1, 2), (1, 2, 3)),
        lambda a0, a1: TriangleParams(a0, a1, 0, 1, 0, 0), lambda *a: cf.f_a2zero_explicit(*a),
        n_max=6, grid_text="a0 in {0,1,2}, a1 in {1,2,3}"),
    # b = 1, a1 = 0 row sums are rising factorials.
    "a1zero-rowsum": ClosedForm(
        _loci("a0={}, a2={}", (0, 1, 2), (1, 2, 3)),
        lambda a0, a2: TriangleParams(a0, 0, a2, 1, 0, 0), lambda *a: cf.a1zero_rowsum(*a),
        n_max=7, grid_text="a0 in {0,1,2}, a2 in {1,2,3}", row=Triangle.row_sum),
}


SUITES.update((name, partial(form.run, name)) for name, form in CLOSED_FORMS.items())


# -- generating functions ---------------------------------------------------------


def _compare_rows(report: CheckReport, checks) -> CheckReport:
    """For each (label, series, rows) of `checks` in turn, fail `report` at
    the first n with n! [t^n] series != rows[n]; the first failure is kept."""
    for label, series, rows in checks:
        for n, row in enumerate(rows):
            if series.coefficient(n) * factorial(n) != row:
                report.fail(f"{label}: first mismatch at order {n}")
                break
    return report


def verify_closed_form_whitney(m: int, r: int, order: int,
                               points=((2, 1), (1, 2), (3, 2))) -> CheckReport:
    """Check, at exact rational points, that the bivariate EGF of the
    (mk+r)/(mn-mk+m-r) triangle equals
    (u^m - v^m) e^((u^m - v^m) r t) / (u^m - v^m e^((u^m - v^m) m t)), cleared:
    with R_n = sum_k T(n,k) u^(m(n-k)) v^(mk) and c = u^m - v^m,
    u^m R_n - v^m sum_j C(n,j) R_j (cm)^(n-j) = c (cr)^n for every n, with
    the powers of u^m, v^m, cm and cr read from one table each per point."""
    report = CheckReport(
        name="whitney-egf",
        params={"m": m, "r": r, "points": tuple(points)},
        order=order,
    )
    if order < 0:
        raise ValueError("order must be nonnegative")
    tri = whitney_eulerian(m, r, order)
    for point in points:
        u, v = map(normalize_scalar, point)
        um, vm = u ** m, v ** m
        if um == vm:
            raise DegeneratePoint(f"u^m = v^m at point {point}")
        c = um - vm
        u_pow, v_pow, cm_pow, cr_pow = ([x ** i for i in range(order + 1)]
                                        for x in (um, vm, c * m, c * r))
        rows = []
        for n, row in enumerate(tri.rows):
            rows.append(sum(t * u_pow[n - k] * v_pow[k] for k, t in enumerate(row)))
            shifted = sum(comb(n, j) * rows[j] * cm_pow[n - j] for j in range(n + 1))
            if um * rows[n] - vm * shifted != c * cr_pow[n]:
                report.fail(f"point {point}: first mismatch at order {n}")
                break
    return report


def _hao_system(p: TriangleParams) -> OdeSystem:
    """The analytic system of `hao_grammar(p)` plus a letter w that starts at
    `hao_seed(p)` = u^P v^Q (P = b0+b1+b2, Q = a0+a2) and has the rule
    w (P u^(b1+b2) v^(a1+a2) + Q u^b2 v^a2) = w D(u^P v^Q) / (u^P v^Q).
    Gen is a ring homomorphism, so w solves to U^P V^Q, and its EGF-normal
    levels are the D^n(u^P v^Q) that carry the rows of the triangle."""
    a0, a1, a2, b0, b1, b2 = p.as_tuple()
    ode = grammar_ode(hao_grammar(p))
    log_d = (LaurentPoly.from_exponents({"u": b1 + b2, "v": a1 + a2}, b0 + b1 + b2)
             + LaurentPoly.from_exponents({"u": b2, "v": a2}, a0 + a2))
    return OdeSystem(variables=("u", "v", "w"),
                     rhs={**ode.rhs, "w": LaurentPoly.variable("w") * log_d},
                     initial={**ode.initial, "w": hao_seed(p)})


def verify_sol_a2zero(a0: int, a1: int, order: int) -> CheckReport:
    """Check the closed solution U = u exp(v^a1 (e^(a1 t) - 1)/a1), V = v e^t
    of U' = U V^a1, V' = V through its EGF-normal rows (Bell/Touchard):
    n! [t^n] U = u sum_j a1^(n-j) S(n,j) v^(a1 j) and n! [t^n] V = v, and
    that U V^a0, the seed letter w of the system, reproduces the
    Bell-polynomial expansion."""
    if a1 == 0:
        raise ZeroA1("the check needs a1 != 0")
    report = CheckReport(name="a2zero-solution", params={"a0": a0, "a1": a1}, order=order)
    sol = solve_ode(_hao_system(TriangleParams(a0, a1, 0, 1, 0, 0)), order)
    ns = range(order + 1)
    u_rows = [LaurentPoly({monomial({"u": 1, "v": a1 * j}): a1 ** (n - j) * cf.stirling2(n, j)
                           for j in range(n + 1)}) for n in ns]
    # Row n of U V^a0 is u v^a0 times the Bell-polynomial row at alpha = v^a1.
    uv_rows = [LaurentPoly({monomial({"u": 1, "v": a0 + a1 * j}): c
                            for j, c in enumerate(cf.touchard_row(a0, a1, n))}) for n in ns]
    return _compare_rows(report, (
        ("U", sol["u"], u_rows),
        ("V", sol["v"], [LaurentPoly.variable("v")] * len(ns)),
        ("U*V^a0", sol["w"], uv_rows),
    ))


def verify_sol_a1zero(a0: int, a2: int, order: int) -> CheckReport:
    """Check the closed solution of U' = U V^a2, V' = V^(a2+1) through its
    EGF-normal rows n! [t^n] V = v^(1 + a2 n) rho_n and n! [t^n] U =
    u v^(a2 n) rho_n, rho_n = 1 (1+a2) ... (1+(n-1)a2), plus the
    rising-factorial row sums of U V^(a0+a2), the seed letter w."""
    if a2 == 0:
        raise ZeroA2("the check needs a2 != 0")
    report = CheckReport(name="a1zero-solution", params={"a0": a0, "a2": a2}, order=order)
    sol = solve_ode(_hao_system(TriangleParams(a0, 0, a2, 1, 0, 0)), order)
    ns = range(order + 1)
    rho = [cf.rising_step(1, a2, n) for n in ns]
    return _compare_rows(report, (
        ("V", sol["v"], [LaurentPoly.from_exponents({"v": 1 + a2 * n}, rho[n]) for n in ns]),
        ("U", sol["u"], [LaurentPoly.from_exponents({"u": 1, "v": a2 * n}, rho[n]) for n in ns]),
        ("row sums", sol["w"],
         [LaurentPoly.from_exponents({"u": 1, "v": a0 + a2 + a2 * n}, cf.a1zero_rowsum(a0, a2, n))
          for n in ns]),
    ))


def verify_secondorder_egf(y, order: int) -> CheckReport:
    """Check that sum_n sum_k B(n,k) y^(k+1) t^n/n! (second-order rows, r=2)
    equals (1-y) W / (1 - W) where W solves W' = (1-y)^2 W/(1-W), W(0) = y.

    W(t) stands in for the tree function T evaluated at y e^(-y + (1-y)^2 t);
    the first-order equation is the formal content of that composition.
    The check runs on integers. With y = p/q in lowest terms, s = q - p, the
    EGF-normal W_n scaled to Wh_n = q^(n+1) W_n and Lh_n = sum_k B(n,k) p^(k+1)
    q^(n-k): s Wh_(n+1) = s^2 Wh_n + sum_(i=1..n) C(n,i) Wh_i Wh_(n+1-i) with
    Wh_0 = p, and q Lh_n - sum_j C(n,j) Lh_j Wh_(n-j) = s Wh_n for every n.
    The division by s is exact: d/dt = (1-y)^2 x d/dx and x T' = T/(1-T) give
    W_n = (1-y) P_n(y) for n >= 1, where P_1 = T and P_(n+1) = T ((1-T) P_n'
    + (2n-1) P_n), so P_n is in Z[T] of degree <= n and Wh_n = s q^n P_n(p/q)
    is an integer. A remainder would fail the report at order n+1.
    """
    y = Fraction(normalize_scalar(y))
    if y in (0, 1):
        raise DegenerateY("the identity needs y outside {0, 1}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    report = CheckReport(name="second-order-egf", params={"y": str(y)}, order=order)

    p, q = y.numerator, y.denominator
    s = q - p
    w = [p]
    for n in range(order):
        acc = sum(comb(n, i) * w[i] * w[n + 1 - i] for i in range(1, n + 1))
        nxt, rem = divmod(s * s * w[n] + acc, s)
        if rem:
            break
        w.append(nxt)

    p_pow, q_pow = [p ** (k + 1) for k in range(order + 1)], [q ** k for k in range(order + 1)]
    rows = []
    for n, row in enumerate(second_order_eulerian(2, order).rows):
        rows.append(sum(b * p_pow[k] * q_pow[n - k] for k, b in enumerate(row)))
        if n == len(w) or (q * rows[n] - sum(comb(n, j) * rows[j] * w[n - j]
                                             for j in range(n + 1)) != s * w[n]):
            report.fail(f"first mismatch at order {n}")
            break
    return report


@suite("whitney-egf")
def suite_whitney_egf(opts: VerifyOptions) -> list[CheckReport]:
    """Closed bivariate EGF at exact rational points."""
    order = opts.cap_order(6)
    return [verify_closed_form_whitney(m, r, order) for _, (m, r) in _WHITNEY_LOCI]


@suite("ode-gen")
def suite_ode_gen(opts: VerifyOptions) -> list[CheckReport]:
    """The letter generating functions solve the analytic system: for every
    grammar in the battery and each letter x, the packed EGF-normal solution
    levels Y_n = n! y_n equal the packed D^n(x), over the same sorted letters."""
    order = opts.cap_order(8)
    report = CheckReport(
        name="ode-gen",
        params={"grid": "hao rules (a1,a2,b1,b2) in [-2,2]^4 nondegenerate "
                        "+ named grammars"},
        order=order,
    )
    span = range(-2, 3)
    grammars = list(dict.fromkeys(hao_grammar(TriangleParams(0, a1, a2, 0, b1, b2))
                                  for a1, a2, b1, b2 in product(span, repeat=4) if a1 or b1))
    grammars.append(Grammar.from_text("x -> x^2*y\ny -> x^2*y"))
    for a1 in (1, 2, 3):
        grammars.append(Grammar.from_text(f"u -> u*v^{a1}\nv -> v"))
    for a1, a2 in product((1, 2, 3), (1, 2, 3)):
        grammars.append(Grammar.from_text(f"u -> u*v^{a1 + a2}\nv -> v^{a2 + 1}"))
    report.params["grammars"] = len(grammars)
    for g in grammars:
        names, ys = egf_levels(grammar_ode(g), order)
        for letter in g.alphabet:
            levels = gen_levels(g, LaurentPoly.variable(letter), order)
            if names != tuple(sorted(g.alphabet)) or ys[letter] != levels:
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
        if T.coefficient(n) * factorial(n) != n ** (n - 1):
            report.fail(f"coefficient {n}")
    z_exp = TruncatedSeries.t_term(1, order) * T.exp()
    if T - z_exp != TruncatedSeries.zero(order):
        report.fail("functional equation T - z*exp(T) != 0")
    if order >= 1:
        lhs = T.differentiate() * (TruncatedSeries.one(order) - T).truncate(order - 1)
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


class Oracle:
    """A brute-force census and the triangle row it must equal: entry k of
    row n of the triangle with six-tuple `params(arg)` is the count in bucket
    `bucket(arg, n, k)` of `census(arg, n, budget)`.  `arg` is `parse` of the
    CLI option `--<option>` (written `usage` when it is missing); the verify
    suite `suite` runs over `grid`, pairs of (locus prefix, option text), to
    row `n_max` and reports `report`.
    """

    def __init__(self, census: Callable, params: Callable, option: str | None, suite: str,
                 grid: tuple[tuple[str, str], ...], n_max: int, report: dict, usage: str = "",
                 parse: Callable = int, bucket: Callable = lambda arg, n, k: k):
        self.census, self.params, self.bucket = census, params, bucket
        self.option, self.usage, self.parse = option, usage, parse
        self.suite, self.grid, self.n_max, self.report = suite, grid, n_max, report

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
    if not re.fullmatch(r"\s*[+-]?\d+\s*(,\s*[+-]?\d+\s*){2}", text):
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
        grid=tuple((label, ",".join(map(str, a))) for label, a in _A_LOCI),
        report={"grid": _A_TEXT}),
    # Grammar histories by v-leaves: the rows of any integer six-tuple.
    "vleaves": Oracle(
        lambda p, n, budget: census_mod.census_vleaves(hao_grammar(p), hao_seed(p), n, "v",
                                                       budget=budget),
        lambda p: p, option="hao", parse=TriangleParams.parse, bucket=_vleaf_bucket,
        usage="--hao a0,a1,a2,b0,b1,b2", suite="vleaf-oracle", n_max=4,
        grid=tuple((label, str(whitney_params(*mr))) for label, mr in _WHITNEY_LOCI),
        report={"grid": _WHITNEY_TEXT}),
}


SUITES.update((oracle.suite, oracle.run) for oracle in ORACLES.values())


@suite("history-counts")
def suite_history_counts(opts: VerifyOptions) -> list[CheckReport]:
    """Structural counts: n! m^n histories and m(n+1) leaves."""
    n_max = opts.cap_n(5)
    budget = opts.cap_budget(census_mod.DEFAULT_BUDGET)
    report = CheckReport(name="history-counts", params={"grid": _WHITNEY_TEXT, "n_max": n_max})
    for label, (m, r) in _WHITNEY_LOCI:
        params = whitney_params(m, r)
        g = hao_grammar(params)
        seed = hao_seed(params)
        profile = census_mod.history_leaf_profile(g, seed, n_max)
        if profile != [m * (i + 1) for i in range(n_max + 1)]:
            report.fail(f"leaf profile, {label}")
        for n in range(n_max + 1):
            census = census_mod.census_vleaves(g, seed, n, "v", budget=budget)
            if census.total != factorial(n) * m ** n:
                report.fail(f"total histories, {label}, n={n}")
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
