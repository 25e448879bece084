"""Acceptance suite.

One test per exit criterion; every comparison is exact (rational/integer
equality, no tolerances).  Each test prints a single `ACCEPTANCE nn ...`
line; run with `pytest -s tests/test_acceptance.py` to see them all.

Criterion 13 contains one comparison that is mathematically false as
stated: the excedance census against the recurrence family at r = 2.  The
recurrence family propagated from T(0,0) = 1 goes negative ([2, -1] in row
1), so no permutation count can match it; the excedance reading of the
(k+r)/(n-k+1-r) recurrence is only valid for r < n, which r in {0,1}
satisfies on every row but r = 2 does not.  The comparison is kept as
stated and fails honestly rather than being weakened.
"""

import time
from fractions import Fraction
from itertools import product
from math import comb, factorial

from gkptri import census as census_mod
from gkptri import closedforms as cf
from gkptri.fps import gen_series, grammar_ode, solve_ode, tree_function
from gkptri.grammar import (
    Grammar,
    extract_triangle,
    hao_grammar,
    hao_seed,
    iterate_D,
)
from gkptri.polyring import LaurentPoly, parse_poly
from gkptri.triangles import (
    TriangleParams,
    r_eulerian,
    recurrence_triangle,
    second_order_eulerian,
    stirling2_triangle,
    whitney_eulerian,
    whitney_params,
)
from gkptri.verify import verify_closed_form_whitney, verify_secondorder_egf
from series_reference import constant, egf_series, series_exp, series_mul, series_sub, t_term

WHITNEY_GRID = [(m, r) for m in (1, 2, 3) for r in range(m + 1)]
A_GRID = list(product((0, 1, 2), (1, 2, 3), (1, 2, 3)))


def announce(num: int, name: str, failures: list):
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {num:02d} {name}: {status}")
    assert not failures, f"criterion {num} ({name}): {failures[:5]}"


def test_c01_grammar_recurrence_agreement():
    failures = []
    start = time.monotonic()
    span = range(-2, 3)
    for params_tuple in product(span, span, span, span, span, span):
        a0, a1, a2, b0, b1, b2 = params_tuple
        if a1 == 0 and b1 == 0:
            continue  # degenerate lattice: extraction refuses by contract
        params = TriangleParams(*params_tuple)
        if extract_triangle(params, 6).rows != recurrence_triangle(params, 6).rows:
            failures.append(params_tuple)
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s not under a minute")
    announce(1, "grammar equals recurrence on [-2,2]^6", failures)


def test_c02_displayed_expansions_bit_exact():
    failures = []
    seed = parse_poly("u*v^2")
    g1 = Grammar.from_text("u -> u*v^3\nv -> u^3*v")
    d0, d1, d2 = iterate_D(g1, seed, 2)
    if d1 != parse_poly("u*v^5 + 2*u^4*v^2"):
        failures.append(f"D(uv^2) under first grammar: {d1}")
    if d2 != parse_poly("u*v^8 + 13*u^4*v^5 + 4*u^7*v^2"):
        failures.append(f"D^2(uv^2) under first grammar: {d2}")
    g2 = Grammar.from_text("u -> u*v^2\nv -> v")
    d0, d1, d2 = iterate_D(g2, seed, 2)
    if d1 != parse_poly("u*v^4 + 2*u*v^2"):
        failures.append(f"D(uv^2) under second grammar: {d1}")
    if d2 != parse_poly("u*v^6 + 6*u*v^4 + 4*u*v^2"):
        failures.append(f"D^2(uv^2) under second grammar: {d2}")
    announce(2, "displayed expansions reproduced", failures)


def test_c03_row_sums():
    failures = []
    for m, r in WHITNEY_GRID:
        tri = whitney_eulerian(m, r, 7)
        for n in range(8):
            if tri.row_sum(n) != m ** n * factorial(n):
                failures.append((m, r, n))
    announce(3, "row sums m^n n!", failures)


def test_c04_alternating_sums():
    failures = []
    for m, r in WHITNEY_GRID:
        tri = whitney_eulerian(m, r, 7)
        for n in range(8):
            rhs = 2 ** n * sum(
                comb(n, k) * Fraction(m) ** k * cf.euler_at_zero(k)
                * Fraction(r) ** (n - k)
                for k in range(n + 1)
            )
            if tri.alternating_row_sum(n) != rhs:
                failures.append((m, r, n))
    announce(4, "alternating sums via Euler values", failures)


def test_c05_whitney_explicit_formula():
    failures = []
    for m, r in WHITNEY_GRID:
        tri = whitney_eulerian(m, r, 7)
        for n in range(8):
            for k in range(n + 1):
                value = cf.a_mr_explicit(m, r, n, k)
                if value != tri.entry(n, k):
                    failures.append((m, r, n, k))
                if not isinstance(value, int):
                    failures.append(("non-integral", m, r, n, k))
    announce(5, "explicit Whitney formula", failures)


def test_c06_b_unit_explicit_formula():
    failures = []
    for a0, a1, a2 in A_GRID:
        tri = recurrence_triangle(TriangleParams(a0, a1, a2, 1, 0, 0), 7)
        for n in range(8):
            for k in range(n + 1):
                value = cf.f_gram_explicit(a0, a1, a2, n, k)
                if value != tri.entry(n, k):
                    failures.append((a0, a1, a2, n, k))
                if not isinstance(value, int):
                    failures.append(("non-integral", a0, a1, a2, n, k))
    announce(6, "b=1 explicit formula, integral values", failures)


def test_c07_b2zero_explicit_formula():
    failures = []
    for a0, a1, a2 in A_GRID:
        for b0, b1 in product((0, 1, 2), (0, 1, 2)):
            tri = recurrence_triangle(TriangleParams(a0, a1, a2, b0, b1, 0), 7)
            for n in range(8):
                for k in range(n + 1):
                    if cf.t_b2zero_explicit(a0, a1, a2, b0, b1, n, k) != tri.entry(n, k):
                        failures.append((a0, a1, a2, b0, b1, n, k))
    announce(7, "b2=0 explicit formula", failures)


def test_c08_bell_identities():
    failures = []
    for a0 in (0, 1, 2):
        for a1 in (1, 2, 3):
            tri = recurrence_triangle(TriangleParams(a0, a1, 0, 1, 0, 0), 6)
            for n in range(7):
                if cf.touchard_row(a0, a1, n) != tri.row(n):
                    failures.append(("Bell-polynomial row", a0, a1, n))
                for k in range(n + 1):
                    if cf.f_a2zero_explicit(a0, a1, n, k) != tri.entry(n, k):
                        failures.append(("entrywise", a0, a1, n, k))
    announce(8, "Bell-polynomial row identities", failures)


def test_c09_whitney_egf():
    failures = []
    for m, r in WHITNEY_GRID:
        report = verify_closed_form_whitney(m, r, 6)
        if not report.passed:
            failures.append((m, r, report.failure))
    announce(9, "closed EGF at three integer points", failures)


def test_c10_ode_equals_gen_series():
    failures = []
    grammars = []
    span = range(-2, 3)
    seen = set()
    for a1, a2, b1, b2 in product(span, span, span, span):
        if a1 == 0 and b1 == 0:
            continue
        key = (b1 + b2 + 1, a1 + a2, b2, a2 + 1)
        if key not in seen:
            seen.add(key)
            grammars.append(hao_grammar(TriangleParams(0, a1, a2, 0, b1, b2)))
    grammars.append(Grammar.from_text("x -> x^2*y\ny -> x^2*y"))
    for a1 in (1, 2, 3):
        grammars.append(Grammar.from_text(f"u -> u*v^{a1}\nv -> v"))
    for a1, a2 in product((1, 2, 3), (1, 2, 3)):
        grammars.append(Grammar.from_text(f"u -> u*v^{a1 + a2}\nv -> v^{a2 + 1}"))
    for g in grammars:
        sol = solve_ode(grammar_ode(g), 8)
        for letter in g.alphabet:
            if sol[letter] != gen_series(g, LaurentPoly.variable(letter), 8):
                failures.append((repr(g), letter))
    announce(10, f"ODE solution equals Gen on {len(grammars)} grammars", failures)


def test_c11_tree_function():
    failures = []
    t = tree_function(12)
    for n in range(1, 13):
        if t[n] != n ** (n - 1):
            failures.append(f"coefficient {n}")
    T = egf_series(t)
    if series_sub(T, series_mul(t_term(1, 12), series_exp(T))) != constant(0, 12):
        failures.append("functional equation")
    announce(11, "tree function to order 12", failures)


def test_c12_second_order_egf():
    failures = []
    for y in (Fraction(1, 2), Fraction(2)):
        report = verify_secondorder_egf(y, 6)
        if not report.passed:
            failures.append((str(y), report.failure))
    announce(12, "second-order EGF via tree function", failures)


def test_c13_oracle_equivalences():
    failures = []
    start = time.monotonic()

    for r in (1, 2, 3):
        tri = second_order_eulerian(r, 4)
        for n in range(5):
            census = census_mod.stirling_descent_census(n, r)
            if census.as_row(n + 1) != [tri.entry(n, k) for k in range(n + 1)]:
                failures.append(("descents", r, n))

    for r in (0, 1, 2):
        tri = r_eulerian(r, 6)
        for n in range(7):
            census = census_mod.r_excedance_census(n, r)
            if census.as_row(n + 1) != [tri.entry(n, k) for k in range(n + 1)]:
                failures.append(("excedances", r, n))

    tri = second_order_eulerian(2, 4)
    for n in range(5):
        census = census_mod.cadet_leaf_census(n, 2)
        expected = {k + 1: tri.entry(n, k) for k in range(n + 1) if tri.entry(n, k)}
        if census.counts != expected:
            failures.append(("cadets", n))

    tri = stirling2_triangle(7)
    for n in range(8):
        census = census_mod.set_partition_census(n)
        if census.as_row(n + 1) != [tri.entry(n, k) for k in range(n + 1)]:
            failures.append(("partitions", n))

    for a0, a1, a2 in A_GRID:
        tri = recurrence_triangle(TriangleParams(a0, a1, a2, 1, 0, 0), 4)
        for n in range(5):
            census = census_mod.census_components(a0, a1, a2, n)
            if census.as_row(n + 1) != [tri.entry(n, k) for k in range(n + 1)]:
                failures.append(("components", a0, a1, a2, n))

    elapsed = time.monotonic() - start
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s not under two minutes")
    announce(13, "oracle equivalences", failures)


def test_c14_structural_counts():
    failures = []
    for m, r in WHITNEY_GRID:
        params = whitney_params(m, r)
        g = hao_grammar(params)
        seed = hao_seed(params)
        profile = census_mod.history_leaf_profile(g, seed, 5)
        if profile != [m * (i + 1) for i in range(6)]:
            failures.append(("leaf profile", m, r))
        for n in range(6):
            census = census_mod.census_vleaves(g, seed, n, "v")
            if census.total != factorial(n) * m ** n:
                failures.append(("history total", m, r, n))
    announce(14, "history totals and leaf counts", failures)
