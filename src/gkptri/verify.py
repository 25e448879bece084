"""Registry of named verification suites, and the checks they are made of.

A CheckReport is one check's outcome; its `record()` is the entry that
`verify --format json` prints.  The series identity checks (`verify_*`:
the Whitney EGF, the two closed ODE solutions, the second-order EGF) are
defined here, next to the suites that run them; they compare EGF-normal
coefficients (n! [t^n]) with denominators cleared, so none inverts a series
or divides by n!; the closed solutions read the packed levels of
`egf_levels`, and `tree-function` checks its identities on such integers.

Every check is a stream of `(expected, got, locus, *args)` comparisons
that `CheckReport.first_mismatch` runs in turn: it reports the first
difference and stops there, so nothing after it is computed and a locus is
formatted only when it fails; an engine error raised inside the stream
fails it too.  `closed-solutions` chains the streams of its 18 sub-checks,
each solving its ODE system only when read, and reports the first failure
as `{name}{params}: {locus}`.

Each suite runs one identity battery over a documented default grid and
returns a list of CheckReport records; the grids can be shrunk with the
`max_n` / `order` options so CI runs stay deterministic and fast.  Suites
are registered under kebab-case names and always executed in name order.
The route suites are the rows of ROUTES: the grammar, each closed form and
each census is a route to the triangle, and one runner, `Route.run`,
compares it with the recurrence.  The census rows, the `*-oracle` suites,
are the ORACLES, which `gkptri oracle` reads.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Callable
from fractions import Fraction
from functools import partial
from itertools import product
from math import comb, factorial

from . import census as census_mod
from . import closedforms as cf
from .errors import (
    BudgetExceeded,
    DegenerateY,
    GkpError,
    NonTriangularExpansion,
    UnknownSuite,
    ZeroA1,
    ZeroA2,
)
from .fps import OdeSystem, egf_levels, gen_levels, grammar_ode, tree_function
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

    def __init__(self, name: str, params: dict | None = None, order: int | None = None):
        self.name = name
        self.params = {} if params is None else params
        self.order = order
        self.passed = True
        self.failure = None

    def fail(self, locus: str) -> "CheckReport":
        self.passed = False
        if self.failure is None:
            self.failure = locus
        return self

    def first_mismatch(self, comparisons) -> "CheckReport":
        """Fail on `locus.format(*args)` at the first `(expected, got, locus,
        *args)` of `comparisons` with expected != got, and stop there; an
        engine error while they are computed is one more mismatch."""
        for c in _errors_as_mismatch(comparisons):  # indexed: cheaper than a starred unpack
            if c[0] != c[1]:
                return self.fail(c[2].format(*c[3:]))
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


def _errors_as_mismatch(comparisons):
    """`comparisons`, then, if a `GkpError` other than `BudgetExceeded` is
    raised while they are computed, a mismatch at `{Class}: {message}` that
    ends in ` after {locus}` of the last comparison read, if there is one."""
    c = (None, None, "")  # no comparison read yet
    try:
        for c in comparisons:
            yield c
    except BudgetExceeded:
        raise
    except GkpError as exc:
        yield False, True, "{}: {}" + (c[2] and " after " + c[2]), type(exc).__name__, exc, *c[3:]


class VerifyOptions:
    """Grid overrides shared by all suites."""

    def __init__(self, max_n: int | None = None, order: int | None = None,
                 budget: int = census_mod.DEFAULT_BUDGET,
                 y_values: tuple[Fraction, ...] = (Fraction(1, 2), Fraction(2))):
        self.max_n = max_n
        self.order = order
        self.budget = budget
        self.y_values = y_values

    def cap_n(self, default: int) -> int:
        return default if self.max_n is None else min(default, self.max_n)

    def cap_order(self, default: int) -> int:
        return default if self.order is None else self.order


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
_WHITNEY_POINTS = ((2, 1), (1, 2), (3, 2))  # (u, v) of whitney-egf
_A_TEXT = "a0 in {0,1,2}, a1,a2 in {1,2,3}"
_A_LOCI = _loci("a=({},{},{})", (0, 1, 2), (1, 2, 3), (1, 2, 3))
_A2ZERO_TEXT = "a0 in {0,1,2}, a1 in {1,2,3}"
_A2ZERO_LOCI = _loci("a0={}, a1={}", (0, 1, 2), (1, 2, 3))
_AT_ORDER = "{}: first mismatch at order {}"


# -- grammar expansions ---------------------------------------------------------


@suite("expansion-golden")
def suite_expansion_golden(opts: VerifyOptions) -> list[CheckReport]:
    """Bit-exact reproduction of the displayed derivative expansions."""
    report = CheckReport(name="expansion-golden", params={"cases": 2})
    seed = parse_poly("u*v^2")
    cases = (("first", "u -> u*v^3\nv -> u^3*v", "u*v^5 + 2*u^4*v^2",
              "u*v^8 + 13*u^4*v^5 + 4*u^7*v^2"),
             ("second", "u -> u*v^2\nv -> v", "u*v^4 + 2*u*v^2", "u*v^6 + 6*u*v^4 + 4*u*v^2"))
    return [report.first_mismatch(
        (parse_poly(want), got, "{} grammar, D^{} = {}", which, n, got)
        for which, rules, *wants in cases
        for n, want, got in zip((1, 2), wants, iterate_D(Grammar.from_text(rules), seed, 2)[1:]))]


# -- routes ---------------------------------------------------------------------


class Route:
    """A route to the triangle, checked on `grid` to the first mismatch: for
    each `(label, arg)`, the recurrence triangle of six-tuple `params(arg)`,
    filled to row `n_max`, against `read` at one grain.  "row":
    `read(arg, n, budget)` equals `reference(triangle, n)`.  "entry":
    `read(arg, n, k)` equals entry (n, k) and is an int.  "triangle":
    `read(arg, n_max, budget)` is the triangle; `grid()` yields the args
    alone (locus `params {arg}`), and the report counts them as `tuples`.
    """

    def __init__(self, grid, params: Callable, read: Callable, n_max: int, report: dict,
                 grain: str = "row", reference: Callable = Triangle.row):
        self.grid, self.params, self.read, self.n_max = grid, params, read, n_max
        self.report, self.grain, self.reference = report, grain, reference

    def run(self, name: str, opts: VerifyOptions) -> list[CheckReport]:
        """The verify suite `name`, reporting `report`, then `n_max`."""
        n_max = opts.cap_n(self.n_max)
        report = CheckReport(name=name, params={**self.report, "n_max": n_max})
        comparisons = (self._triangle if self.grain == "triangle" else self._rows)(
            report, n_max, opts.budget)
        report.first_mismatch(comparisons)
        comparisons.close()  # the triangle grain writes its count as it closes
        return [report]

    def _triangle(self, report: CheckReport, n_max: int, budget: int):
        params, read, tuples = self.params, self.read, 0
        try:
            for tuples, arg in enumerate(self.grid(), 1):
                yield (recurrence_triangle(params(arg), n_max).rows, read(arg, n_max, budget),
                       "params {}", arg)
        finally:
            report.params["tuples"] = tuples

    def _rows(self, report: CheckReport, n_max: int, budget: int):
        for label, arg in self.grid:
            tri, at = recurrence_triangle(self.params(arg), n_max), f"{label}, " if label else ""
            for n in range(n_max + 1):
                if self.grain == "row":
                    yield self.reference(tri, n), self.read(arg, n, budget), "{}n={}", at, n
                    continue
                for k in range(n + 1):
                    value = self.read(arg, n, k)
                    yield tri.entry(n, k), value, "{}n={}, k={}", at, n, k
                    yield True, isinstance(value, int), "non-integral {}n={}, k={}", at, n, k


# A row looks up `cf.*` and the engines as it runs, so a traced or patched one is checked.
ROUTES: dict[str, Route] = {
    # The grammar: D^n(u^P v^Q) at each six-tuple of [-2,2]^6 with a nondegenerate lattice.
    "grammar-recurrence": Route(
        lambda: (TriangleParams(*six) for six in product(range(-2, 3), repeat=6)
                 if six[1] or six[4]),
        lambda p: p, lambda p, n, _: extract_triangle(p, n).rows, n_max=6,
        report={"grid": "a,b in [-2,2]^6, (a1,b1) != (0,0)"}, grain="triangle"),
    # Rows of the (mk+r)/(mn-mk+m-r) triangles sum to m^n n!.
    "row-sums": Route(
        _WHITNEY_LOCI, lambda mr: whitney_params(*mr), lambda mr, n, _: mr[0] ** n * factorial(n),
        n_max=7, report={"grid": _WHITNEY_TEXT}, reference=Triangle.row_sum),
    # Their alternating row sums are 2^n sum_k C(n,k) m^k E_k(0) r^(n-k).
    "alternating-sums": Route(
        _WHITNEY_LOCI, lambda mr: whitney_params(*mr),
        lambda mr, n, _: 2 ** n * sum(comb(n, k) * Fraction(mr[0]) ** k * cf.euler_at_zero(k)
                                      * Fraction(mr[1]) ** (n - k) for k in range(n + 1)),
        n_max=7, report={"grid": _WHITNEY_TEXT}, reference=Triangle.alternating_row_sum),
    # Their entries by the alternating binomial formula.
    "whitney-explicit": Route(
        _WHITNEY_LOCI, lambda mr: whitney_params(*mr),
        lambda mr, n, k: cf.a_mr_explicit(*mr, n, k),
        n_max=7, report={"grid": _WHITNEY_TEXT}, grain="entry"),
    # b = 1 entries by the finite-difference product formula, integral despite
    # its 1/(a1^k k!) prefactor.
    "b1-explicit": Route(
        _A_LOCI, lambda a: TriangleParams(*a, 1, 0, 0),
        lambda a, n, k: cf.f_gram_explicit(*a, n, k),
        n_max=7, report={"grid": _A_TEXT}, grain="entry"),
    # b2 = 0 entries by the rising-step prefactor formula.
    "b2zero-explicit": Route(
        _loci("a=({},{},{}), b=({},{})", (0, 1, 2), (1, 2, 3), (1, 2, 3), (0, 1, 2), (0, 1, 2)),
        lambda a: TriangleParams(*a, 0), lambda a, n, k: cf.t_b2zero_explicit(*a, n, k),
        n_max=7, report={"grid": _A_TEXT + ", b0,b1 in {0,1,2}"}, grain="entry"),
    # b = 1, a2 = 0 rows as Bell-polynomial coefficients.
    "touchard": Route(
        _A2ZERO_LOCI, lambda a: TriangleParams(*a, 0, 1, 0, 0),
        lambda a, n, _: cf.touchard_row(*a, n), n_max=6, report={"grid": _A2ZERO_TEXT}),
    # b = 1, a2 = 0 entries by the Stirling-weighted binomial formula.
    "a2zero-explicit": Route(
        _A2ZERO_LOCI, lambda a: TriangleParams(*a, 0, 1, 0, 0),
        lambda a, n, k: cf.f_a2zero_explicit(*a, n, k),
        n_max=6, report={"grid": _A2ZERO_TEXT}, grain="entry"),
    # b = 1, a1 = 0 row sums are rising factorials.
    "a1zero-rowsum": Route(
        _loci("a0={}, a2={}", (0, 1, 2), (1, 2, 3)),
        lambda a: TriangleParams(a[0], 0, a[1], 1, 0, 0), lambda a, n, _: cf.a1zero_rowsum(*a, n),
        n_max=7, report={"grid": "a0 in {0,1,2}, a2 in {1,2,3}"}, reference=Triangle.row_sum),
}


# -- generating functions ---------------------------------------------------------


def verify_closed_form_whitney(m: int, r: int, order: int) -> CheckReport:
    """Check, at three integer points (u, v), that the bivariate EGF of the
    (mk+r)/(mn-mk+m-r) triangle equals
    (u^m - v^m) e^((u^m - v^m) r t) / (u^m - v^m e^((u^m - v^m) m t)), cleared:
    with R_n = sum_k T(n,k) u^(m(n-k)) v^(mk) and c = u^m - v^m != 0 (m >= 1),
    u^m R_n - v^m sum_j C(n,j) R_j (cm)^(n-j) = c (cr)^n for every n, with
    the powers of u^m, v^m, cm and cr read from one table each per point."""
    report = CheckReport(
        name="whitney-egf",
        params={"m": m, "r": r, "points": _WHITNEY_POINTS},
        order=order,
    )
    if order < 0:
        raise ValueError("order must be nonnegative")
    tri = whitney_eulerian(m, r, order)

    def comparisons():
        for point in _WHITNEY_POINTS:
            um, vm = (x ** m for x in point)
            c = um - vm
            u_pow, v_pow, cm_pow, cr_pow = ([x ** i for i in range(order + 1)]
                                            for x in (um, vm, c * m, c * r))
            rows = []
            for n, row in enumerate(tri.rows):
                rows.append(sum(t * u_pow[n - k] * v_pow[k] for k, t in enumerate(row)))
                shifted = sum(comb(n, j) * rows[j] * cm_pow[n - j] for j in range(n + 1))
                yield (c * cr_pow[n], um * rows[n] - vm * shifted,
                       "point {}: first mismatch at order {}", point, n)
    return report.first_mismatch(comparisons())


def _hao_system(p: TriangleParams) -> OdeSystem:
    """The analytic system of `hao_grammar(p)` plus a letter w that starts at
    `hao_seed(p)` = u^P v^Q (P = b0+b1+b2, Q = a0+a2) and has the rule
    w (P u^(b1+b2) v^(a1+a2) + Q u^b2 v^a2) = w D(u^P v^Q) / (u^P v^Q).
    Gen is a ring homomorphism, so w solves to U^P V^Q, and its EGF-normal
    levels are the D^n(u^P v^Q) that carry the rows of the triangle."""
    a0, a1, a2, b0, b1, b2 = p.as_tuple()
    ode = grammar_ode(hao_grammar(p))
    w_rule = Counter()  # its two terms are one monomial when a1 = b1 = 0
    for u, v, c in ((b1 + b2, a1 + a2, b0 + b1 + b2), (b2, a2, a0 + a2)):
        w_rule[monomial({"u": u, "v": v, "w": 1})] += c
    return OdeSystem(Grammar({**ode.rhs, "w": LaurentPoly(w_rule)}),
                     {**ode.initial, "w": hao_seed(p)})


def _a2zero_rows(a0: int, a1: int, order: int):
    """The comparisons of `verify_sol_a2zero`, solving the system when the first
    is read: closed-form rows packed over (u, v), zero coefficients dropped."""
    _, ys = egf_levels(_hao_system(TriangleParams(a0, a1, 0, 1, 0, 0)), order)
    # Row n of U V^a0 is u v^a0 times the Bell-polynomial row at alpha = v^a1.
    for label, x, terms in (
            ("U", "u", lambda n: (((1, a1 * j), a1 ** (n - j) * cf.stirling2(n, j))
                                  for j in range(n + 1))),
            ("V", "v", lambda n: [((0, 1), 1)]),
            ("U*V^a0", "w", lambda n: (((1, a0 + a1 * j), c)
                                       for j, c in enumerate(cf.touchard_row(a0, a1, n))))):
        yield from (({vec: c for vec, c in terms(n) if c}, level, _AT_ORDER, label, n)
                    for n, level in enumerate(ys[x]))


def verify_sol_a2zero(a0: int, a1: int, order: int) -> CheckReport:
    """Check the closed solution U = u exp(v^a1 (e^(a1 t) - 1)/a1), V = v e^t
    of U' = U V^a1, V' = V through its EGF-normal rows (Bell/Touchard):
    n! [t^n] U = u sum_j a1^(n-j) S(n,j) v^(a1 j) and n! [t^n] V = v, and
    that U V^a0, the seed letter w of the system, reproduces the
    Bell-polynomial expansion."""
    if a1 == 0:
        raise ZeroA1("the check needs a1 != 0")
    report = CheckReport(name="a2zero-solution", params={"a0": a0, "a1": a1}, order=order)
    return report.first_mismatch(_a2zero_rows(a0, a1, order))


def _a1zero_rows(a0: int, a2: int, order: int):
    """Like `_a2zero_rows`, the lazy comparisons of `verify_sol_a1zero`."""
    _, ys = egf_levels(_hao_system(TriangleParams(a0, 0, a2, 1, 0, 0)), order)
    rho = [cf.rising_step(1, a2, n) for n in range(order + 1)]
    for label, x, terms in (
            ("V", "v", lambda n: [((0, 1 + a2 * n), rho[n])]),
            ("U", "u", lambda n: [((1, a2 * n), rho[n])]),
            ("row sums", "w", lambda n: [((1, a0 + a2 + a2 * n), cf.a1zero_rowsum(a0, a2, n))])):
        yield from (({vec: c for vec, c in terms(n) if c}, level, _AT_ORDER, label, n)
                    for n, level in enumerate(ys[x]))


def verify_sol_a1zero(a0: int, a2: int, order: int) -> CheckReport:
    """Check the closed solution of U' = U V^a2, V' = V^(a2+1) through its
    EGF-normal rows n! [t^n] V = v^(1 + a2 n) rho_n and n! [t^n] U =
    u v^(a2 n) rho_n, rho_n = 1 (1+a2) ... (1+(n-1)a2), plus the
    rising-factorial row sums of U V^(a0+a2), the seed letter w."""
    if a2 == 0:
        raise ZeroA2("the check needs a2 != 0")
    report = CheckReport(name="a1zero-solution", params={"a0": a0, "a2": a2}, order=order)
    return report.first_mismatch(_a1zero_rows(a0, a2, order))


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
    is an integer. A remainder would fail the report at order n+1, as a
    comparison of the remainder with 0.
    """
    y = Fraction(normalize_scalar(y))
    if y in (0, 1):
        raise DegenerateY("the identity needs y outside {0, 1}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    report = CheckReport(name="second-order-egf", params={"y": str(y)}, order=order)
    p, q = y.numerator, y.denominator
    s = q - p
    p_pow, q_pow = [p ** (k + 1) for k in range(order + 1)], [q ** k for k in range(order + 1)]

    def comparisons():
        w, rows = [p], []
        for n, row in enumerate(second_order_eulerian(2, order).rows):
            if n:
                acc = sum(comb(n - 1, i) * w[i] * w[n - i] for i in range(1, n))
                nxt, rem = divmod(s * s * w[n - 1] + acc, s)
                yield 0, rem, "first mismatch at order {}", n
                w.append(nxt)
            rows.append(sum(b * p_pow[k] * q_pow[n - k] for k, b in enumerate(row)))
            yield (s * w[n], q * rows[n] - sum(comb(n, j) * rows[j] * w[n - j]
                                               for j in range(n + 1)),
                   "first mismatch at order {}", n)
    return report.first_mismatch(comparisons())


@suite("whitney-egf")
def suite_whitney_egf(opts: VerifyOptions) -> list[CheckReport]:
    """Closed bivariate EGF at three integer points."""
    order = opts.cap_order(6)
    return [verify_closed_form_whitney(m, r, order) for _, (m, r) in _WHITNEY_LOCI]


# Named grammars that are no hao rule: one and three letters, rational rule
# coefficients, and x -> y - z (cyclic), whose derivatives cancel terms.
_ODE_GEN_NAMED = (
    "x -> x^2*y\ny -> x^2*y", "u -> u*v^3\nv -> v", "u -> u*v^4\nv -> v^4",
    "u -> u*v^5\nv -> v^4", "u -> u*v^4\nv -> v^2", "u -> u*v^5\nv -> v^3",
    "u -> u*v^6\nv -> v^4", "x -> x^2", "x -> x^-1 + 2", "x -> y - z\ny -> z - x\nz -> x - y",
    "x -> y*z\ny -> x*z\nz -> x*y", "u -> 1/2*u^2*v\nv -> 1/3*u*v^-1",
    "x -> x^2*y^-1*z\ny -> y^3 + 1/2*x*z^-2\nz -> x^-1*y*z")


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
    grammars = [hao_grammar(TriangleParams(0, a1, a2, 0, b1, b2))
                for a1, a2, b1, b2 in product(span, repeat=4) if a1 or b1]
    grammars += map(Grammar.from_text, _ODE_GEN_NAMED)
    report.params["grammars"] = len(grammars)

    def comparisons():
        for g in grammars:
            names, ys = egf_levels(grammar_ode(g), order)
            for x in g.alphabet:
                yield ((tuple(sorted(g.alphabet)), gen_levels(g, LaurentPoly.variable(x), order)),
                       (names, ys[x]), "grammar [{!r}], letter {}", g, x)
    return [report.first_mismatch(comparisons())]


@suite("tree-function")
def suite_tree_function(opts: VerifyOptions) -> list[CheckReport]:
    """Coefficients n^(n-1)/n!, the fixed point T = z exp(T) and
    T'(1-T) = exp(T), on t_n = n! [z^n] T and e_n = n! [z^n] exp(T)."""
    order = opts.cap_order(12)
    report = CheckReport(name="tree-function", params={}, order=order)

    def comparisons():
        t = [normalize_scalar(c * factorial(n)) for n, c in enumerate(tree_function(order).coeffs)]
        yield from ((n ** (n - 1), t[n], "coefficient {}", n) for n in range(1, order + 1))
        # exp(T)' = T' exp(T), a binomial convolution; it needs t_0 = 0, as T = z exp(T) does.
        e = [1]
        for n in range(1, order):
            e.append(sum(comb(n - 1, k - 1) * t[k] * e[n - k] for k in range(1, n + 1)))
        yield ([0, *(n * e[n - 1] for n in range(1, order + 1))], t,
               "functional equation T - z*exp(T) != 0")
        yield (e[:order], [t[n + 1] - sum(comb(n, j) * t[j + 1] * t[n - j] for j in range(n + 1))
                           for n in range(order)], "derivative identity T'(1-T) != exp(T)")
    return [report.first_mismatch(comparisons())]


@suite("second-order-egf")
def suite_second_order_egf(opts: VerifyOptions) -> list[CheckReport]:
    """Tree-function EGF of the second-order rows at rational y."""
    order = opts.cap_order(6)
    return [verify_secondorder_egf(y, order) for y in opts.y_values]


@suite("closed-solutions")
def suite_closed_solutions(opts: VerifyOptions) -> list[CheckReport]:
    """Closed solutions of the two one-parameter systems: 18 sub-checks, to the first mismatch."""
    order = opts.cap_order(5)
    report = CheckReport(name="closed-solutions",
                         params={"grid": "a0 in {0,1,2}, a1/a2 in {1,2,3}"}, order=order)
    checks = [(name, {"a0": a0, key: a}, rows(a0, a, order))
              for name, key, rows in (("a2zero-solution", "a1", _a2zero_rows),
                                      ("a1zero-solution", "a2", _a1zero_rows))
              for a0, a in product((0, 1, 2), (1, 2, 3))]
    return [report.first_mismatch(
        (expected, got, "{}{}: " + locus, name, params, *args)
        for name, params, rows in checks for expected, got, locus, *args in rows)]


# -- oracle equivalences -------------------------------------------------------------


class Oracle(Route):
    """A brute-force census as a route, the verify suite `suite`: entry k of
    row n is the count in bucket `bucket(arg, n, k)` of `census(arg, n,
    budget)`.  `gkptri oracle` reads `arg` as `parse` of its option
    `--<option>` (written `usage` when it is missing).
    """

    def __init__(self, census: Callable, params: Callable, option: str | None, suite: str,
                 grid: tuple[tuple[str, object], ...], n_max: int, report: dict, usage: str = "",
                 parse: Callable = int, bucket: Callable = lambda arg, n, k: k):
        super().__init__(grid, params, lambda arg, n, budget: self.census_row(
            self.census(arg, n, budget), arg, n), n_max, report)
        self.census, self.bucket, self.option, self.usage = census, bucket, option, usage
        self.parse, self.suite = parse, suite

    def census_row(self, census, arg, n: int) -> list[int]:
        """The census read as row n, for comparison with the triangle's."""
        return census.as_row(n + 1, bucket_of_index=lambda k: self.bucket(arg, n, k))


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
        grid=tuple((f"r={r}", r) for r in (1, 2, 3)), report={"grid": "r in {1,2,3}"}),
    # Permutations by r-excedances: the (k+r)/(n-k+1-r) rows (red at r = 2).
    "excedances": Oracle(
        lambda r, n, budget: census_mod.r_excedance_census(n, r, budget=budget),
        r_eulerian_params, option="r", suite="excedance-oracle", n_max=6,
        grid=tuple((f"r={r}", r) for r in (0, 1, 2)), report={"grid": "r in {0,1,2}"}),
    # Set partitions by block count: the Stirling subset triangle.
    "partitions": Oracle(
        lambda _, n, budget: census_mod.set_partition_census(n, budget=budget),
        lambda _: stirling2_params(), option=None, parse=str, suite="partition-oracle",
        n_max=7, grid=(("", ""),), report={}),
    # Cadet leaves of full (r+1)-ary trees: the second-order rows, shifted by one.
    "cadets": Oracle(
        lambda r, n, budget: census_mod.cadet_leaf_census(n, r, budget=budget),
        second_order_params, option="r", bucket=lambda r, n, k: k + 1,
        suite="cadet-oracle", n_max=4, grid=(("", 2),), report={"r": 2}),
    # Spine points of type-(E) histories: the b = 1 rows.
    "components": Oracle(
        lambda a, n, budget: census_mod.census_components(*a, n, budget=budget),
        lambda a: TriangleParams(*a, 1, 0, 0), option="params", parse=_parse_a_triple,
        usage="--params a0,a1,a2 (comma-separated)", suite="component-oracle", n_max=4,
        grid=_A_LOCI, report={"grid": _A_TEXT}),
    # Grammar histories by v-leaves: the rows of any integer six-tuple.
    "vleaves": Oracle(
        lambda p, n, budget: census_mod.census_vleaves(hao_grammar(p), hao_seed(p), n, "v",
                                                       budget=budget),
        lambda p: p, option="hao", parse=TriangleParams.parse, bucket=_vleaf_bucket,
        usage="--hao a0,a1,a2,b0,b1,b2", suite="vleaf-oracle", n_max=4,
        grid=tuple((label, whitney_params(*mr)) for label, mr in _WHITNEY_LOCI),
        report={"grid": _WHITNEY_TEXT}),
}


ROUTES.update((oracle.suite, oracle) for oracle in ORACLES.values())
SUITES.update((name, partial(route.run, name)) for name, route in ROUTES.items())


@suite("history-counts")
def suite_history_counts(opts: VerifyOptions) -> list[CheckReport]:
    """Structural counts: n! m^n histories and m(n+1) leaves."""
    n_max = opts.cap_n(5)
    report = CheckReport(name="history-counts", params={"grid": _WHITNEY_TEXT, "n_max": n_max})

    def comparisons():
        for label, (m, r) in _WHITNEY_LOCI:
            params = whitney_params(m, r)
            g, seed = hao_grammar(params), hao_seed(params)
            yield ([m * (i + 1) for i in range(n_max + 1)],
                   census_mod.history_leaf_profile(g, seed, n_max), "leaf profile, {}", label)
            for n in range(n_max + 1):
                census = census_mod.census_vleaves(g, seed, n, "v", budget=opts.budget)
                yield factorial(n) * m ** n, census.total, "total histories, {}, n={}", label, n
    return [report.first_mismatch(comparisons())]


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
