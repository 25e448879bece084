"""Truncated series as values, generating series, ODE solving, the tree
function and the EGF verifications."""

from fractions import Fraction
from itertools import accumulate
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkptri import fps
from gkptri.errors import (
    DegenerateY,
    NonInvertibleConstantTerm,
    UnknownVariable,
    ZeroA1,
    ZeroA2,
)
from gkptri.fps import (
    OdeSystem,
    TruncatedSeries,
    egf_levels,
    gen_levels,
    gen_series,
    grammar_ode,
    solve_ode,
    tree_function,
)
from gkptri.grammar import Grammar, apply_D, hao_grammar, iterate_D
from gkptri.polyring import LaurentPoly, monomial, parse_poly
from gkptri.triangles import whitney_params
from gkptri.verify import (
    verify_closed_form_whitney,
    verify_secondorder_egf,
    verify_sol_a1zero,
    verify_sol_a2zero,
)
from series_reference import (
    accumulate_by_get,
    constant,
    egf_series,
    evaluate,
    poly_add,
    poly_mul,
    reference_solve,
    series_add,
    series_derivative,
    series_exp,
    series_mul,
    series_sub,
    t_term,
)


def series(*coeffs):
    return TruncatedSeries(coeffs)


WHITNEY_32 = hao_grammar(whitney_params(3, 2))


class TestGenSeries:
    def test_displayed_expansion(self):
        g = gen_series(WHITNEY_32, parse_poly("u*v^2"), 2)
        assert g.coefficient(0) == parse_poly("u*v^2")
        assert g.coefficient(1) == parse_poly("u*v^5 + 2*u^4*v^2")
        assert g.coefficient(2) == parse_poly("1/2*u*v^8 + 13/2*u^4*v^5 + 2*u^7*v^2")

    def test_levels_are_iterates_over_factorials(self):
        x = parse_poly("2/3*u*v^-1 + 5*v^2")
        g = gen_series(WHITNEY_32, x, 6)
        for n, level in enumerate(iterate_D(WHITNEY_32, x, 6)):
            want = poly_mul(level, Fraction(1, factorial(n)))
            assert g.coefficient(n) == want
            assert str(g.coefficient(n)) == str(want)

    def test_constant_argument(self):
        g = gen_series(WHITNEY_32, LaurentPoly.constant(1), 4)
        assert g == constant(1, 4)

    def test_multiplicative_on_arguments(self):
        u, v = LaurentPoly.variable("u"), LaurentPoly.variable("v")
        assert gen_series(WHITNEY_32, poly_mul(u, v), 5) == series_mul(
            gen_series(WHITNEY_32, u, 5), gen_series(WHITNEY_32, v, 5))

    def test_additive_on_arguments(self):
        u, v = LaurentPoly.variable("u"), LaurentPoly.variable("v")
        assert gen_series(WHITNEY_32, poly_add(u, v), 5) == series_add(
            gen_series(WHITNEY_32, u, 5), gen_series(WHITNEY_32, v, 5))

    def test_time_derivative_shifts(self):
        x = parse_poly("u*v^2")
        lhs = series_derivative(gen_series(WHITNEY_32, x, 6))
        rhs = gen_series(WHITNEY_32, apply_D(WHITNEY_32, x), 5)
        assert lhs == rhs


class TestSolveOde:
    def test_bell_like_system(self):
        # U' = U V^2, V' = V with symbolic initial values.
        g = Grammar.from_text("u -> u*v^2\nv -> v")
        sol = solve_ode(grammar_ode(g), 3)
        v = LaurentPoly.variable("v")
        expected_v = TruncatedSeries([poly_mul(v, Fraction(1, factorial(n))) for n in range(4)])
        assert sol["v"] == expected_v
        assert sol["u"] == gen_series(g, LaurentPoly.variable("u"), 3)

    def test_zero_rhs(self):
        sys = OdeSystem(Grammar({"x": LaurentPoly()}), {"x": Fraction(5)})
        assert solve_ode(sys, 4) == {"x": constant(5, 4)}

    def test_scalar_and_constant_initials_give_one_series(self):
        # Every system's coefficients are what `_egf` makes, whatever type the
        # initial values have: x' = x^2 from 2 gives c_n = 2^(n+1) either way.
        g = Grammar({"x": parse_poly("x^2")})
        a = solve_ode(OdeSystem(g, {"x": 2}), 6)["x"]
        b = solve_ode(OdeSystem(g, {"x": LaurentPoly.constant(2)}), 6)["x"]
        assert a == b == TruncatedSeries(2 ** (n + 1) for n in range(7))
        assert [type(c) for c in a.coeffs] == [type(c) for c in b.coeffs]

    def test_rational_initials_match_evaluated_gen_series(self):
        g = Grammar.from_text("x -> x^2*y\ny -> x^2*y")
        sol = solve_ode(OdeSystem(g, {"x": 2, "y": 1}), 5)
        for letter in ("x", "y"):
            gs = gen_series(g, LaurentPoly.variable(letter), 5)
            expected = TruncatedSeries(evaluate(p, {"x": 2, "y": 1}) for p in gs.coeffs)
            assert sol[letter] == expected

    def test_laurent_rhs(self):
        g = Grammar.from_text("u -> u^-1*v\nv -> v^-2")
        sol = solve_ode(grammar_ode(g), 6)
        for letter in ("u", "v"):
            assert sol[letter] == gen_series(g, LaurentPoly.variable(letter), 6)

    def test_system_rejects_mismatched_keys_and_foreign_letters(self):
        # Initial values cover the letters; the grammar checks rule letters.
        x = parse_poly("x")
        with pytest.raises(ValueError, match="cover exactly"):
            OdeSystem(Grammar({"x": x, "y": x}), {"x": 1})
        with pytest.raises(ValueError, match="cover exactly"):
            OdeSystem(Grammar({"x": x}), {})
        with pytest.raises(UnknownVariable, match="outside the alphabet"):
            OdeSystem(Grammar({"x": parse_poly("x*y")}), {"x": 1})

    def test_tan_from_zero_initial(self):
        # x' = 1 + x^2, x(0) = 0: x0 is no unit, so x^2 is a plain product.
        sys = OdeSystem(Grammar({"x": parse_poly("1 + x^2")}), {"x": 0})
        assert solve_ode(sys, 7)["x"] == series(
            0, 1, 0, Fraction(1, 3), 0, Fraction(2, 15), 0, Fraction(17, 315)
        )

    def test_square_from_binomial_initial(self):
        # x' = x^2, x(0) = u+v: x = (u+v)/(1 - (u+v)t), c_n = (u+v)^(n+1).
        s = parse_poly("u + v")
        sys = OdeSystem(Grammar({"x": parse_poly("x^2")}), {"x": s})
        assert solve_ode(sys, 6)["x"] == TruncatedSeries(accumulate([s] * 7, poly_mul))

    def test_high_power_of_binomial_initial(self):
        # x' = x^900, x(0) = u+v: x^900 is built by halving the exponent, so
        # its streams nest O(log 900) deep; c_1 = (u+v)^900.
        sys = OdeSystem(Grammar({"x": parse_poly("x^900")}), {"x": parse_poly("u + v")})
        c1 = solve_ode(sys, 1)["x"].coeffs[1]
        assert len(c1) == 901
        assert c1.terms().get(monomial({"u": 450, "v": 450}), 0) == comb(900, 450)

    def test_negative_power_of_binomial_initial(self):
        sys = OdeSystem(Grammar({"x": parse_poly("x^-1")}), {"x": parse_poly("u + v")})
        with pytest.raises(NonInvertibleConstantTerm):
            solve_ode(sys, 4)

    def test_miller_stream_of_a_scaled_unit_stays_int(self):
        # x' = x^2, x(0) = 2u: x = 2w with w(0) = u, so w^2 follows Miller's
        # recurrence from a unit start and divides by nothing; X_n = n! (2u)^(n+1).
        sys = OdeSystem(Grammar({"x": parse_poly("x^2")}), {"x": parse_poly("2*u")})
        names, ys = egf_levels(sys, 3)
        assert ys["x"] == [{(1,): 2}, {(2,): 4}, {(3,): 16}, {(4,): 96}]
        assert [type(c) for level in ys["x"] for c in level.values()] == [int] * 4


# The three-letter system whose Miller streams, started at c^e and divided by
# c, once ran on Fractions when an initial value had a coefficient c != +-1.
SCALED_SYSTEM = Grammar.from_text("x -> x^2*y^-1*z\ny -> 2*x*z^-2 + y^3\nz -> x^-1*y*z")


class TestScaledSingleTermInitials:
    @pytest.mark.parametrize("initial", [
        {"x": parse_poly("2*u"), "y": parse_poly("3*v"), "z": parse_poly("5*w")},
        {"x": parse_poly("1/2*u"), "y": 3, "z": parse_poly("-5*w")},
    ], ids=["2u,3v,5w", "u/2,3,-5w"])
    def test_three_letter_system_matches_reference(self, initial):
        system = OdeSystem(SCALED_SYSTEM, initial)
        assert solve_ode(system, 8) == reference_solve(system, 8)

    @pytest.mark.parametrize("e", [-2, -1, 2, 3])
    @pytest.mark.parametrize("c", [2, -3, Fraction(1, 2)])
    def test_power_of_a_scaled_unit_matches_reference(self, e, c):
        system = OdeSystem(Grammar({"x": parse_poly(f"x^{e}")}),
                           {"x": poly_mul(c, parse_poly("u"))})
        assert solve_ode(system, 8) == reference_solve(system, 8)


exact_coeffs = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
)


@st.composite
def monomial_grammars(draw):
    """2-3 letter grammars, letters declared in any order, whose rules are
    single monomials, exponents in [-3, 3], with int or Fraction coefficients."""
    alphabet = draw(st.sampled_from([("x", "y"), ("u", "v", "w")]))
    letters = tuple(draw(st.permutations(alphabet)))
    rules = {
        x: LaurentPoly.from_exponents(
            {y: draw(st.integers(-3, 3)) for y in letters}, draw(exact_coeffs)
        )
        for x in letters
    }
    return Grammar(rules)


INITIALS = st.sampled_from([
    LaurentPoly.variable("u"), parse_poly("2*u^-1*v"), parse_poly("-1/2*v^3"),
    2, Fraction(-2, 3), 0, parse_poly("u + v"),
])


@st.composite
def ode_systems(draw):
    """Small systems with a mix of unit, scalar, zero and two-term initial
    values; rhs monomials have exponents in [-2, 2]."""
    variables = draw(st.sampled_from([("x",), ("x", "y"), ("x", "y", "z")]))
    initial = {x: draw(INITIALS) for x in variables}
    terms = st.tuples(
        st.dictionaries(st.sampled_from(variables), st.integers(-2, 2),
                        max_size=len(variables)),
        exact_coeffs,
    )
    rhs = {
        x: poly_add(LaurentPoly(), *(LaurentPoly.from_exponents(m, c)
                                     for m, c in draw(st.lists(terms, max_size=2))))
        for x in variables
    }
    return OdeSystem(Grammar(rhs), initial)


@st.composite
def packed_products(draw):
    """width, out, a, b and w for `fps._accumulate` over one to three letters,
    on exponent tuples in [-2, 2] so that keys collide, and int or Fraction
    coefficients; half the draws start `out` at -w*a*b' for a prefix b' of
    b, so that the keys of a*b' cancel and are deleted."""
    width = draw(st.integers(1, 3))
    packed = st.dictionaries(st.tuples(*[st.integers(-2, 2)] * width), exact_coeffs,
                             max_size=5)
    out, a, b, w = draw(packed), draw(packed), draw(packed), draw(exact_coeffs)
    if draw(st.booleans()):
        prefix = dict(list(b.items())[:draw(st.integers(0, len(b)))])
        accumulate_by_get(out, a, prefix, -w)
    return width, out, a, b, w


# The kernel tests' exponents stay in [-4, 4], well inside 8-bit balanced fields.
BITS = 8


def kron(packed):
    """Exponent tuples to the Kronecker int keys of `fps.egf_levels`, in order."""
    return {sum(e << BITS * i for i, e in enumerate(vec)): c for vec, c in packed.items()}


def unkron(keyed, width):
    """Kronecker keys back to exponent tuples, one balanced residue at a time."""
    half, out = 1 << BITS - 1, {}
    for key, c in keyed.items():
        vec = []
        for _ in range(width):
            vec.append((key + half) % (1 << BITS) - half)
            key = (key - vec[-1]) >> BITS
        assert key == 0
        out[tuple(vec)] = c
    return out


def accumulate_kron(out, a, b, w, width):
    """`fps._accumulate` run on the Kronecker keys of tuple-keyed out, a and b,
    and its result decoded back to tuples."""
    keyed = kron(out)
    fps._accumulate(keyed, kron(a), kron(b), w)
    return unkron(keyed, width)


class TestAccumulate:
    @given(packed_products())
    @settings(max_examples=300)
    def test_equals_the_get_kernel(self, case):
        width, out, a, b, w = case
        expected = dict(out)
        accumulate_by_get(expected, a, b, w)
        got = accumulate_kron(out, a, b, w, width)
        assert list(got.items()) == list(expected.items())
        assert list(map(type, got.values())) == list(map(type, expected.values()))

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_cancelled_keys_are_deleted(self, width):
        a = {(1,) * width: Fraction(2, 3), (-1,) * width: 3}
        b = {(0,) * width: 1, (2,) * width: -2}
        out = {}
        accumulate_by_get(out, a, b, -5)
        assert out != {}
        assert accumulate_kron(out, a, b, 5, width) == {}

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_cancelled_key_reappears_last(self, width):
        # (1, ...) cancels on the first product and comes back on the last,
        # after the keys first met in between; a Fraction product stays one.
        pad, zeros = (1, -1)[:width - 1], (0, 0)[:width - 1]
        a = {(0, *pad): 1, (1, *pad): Fraction(1, 2)}
        b = {(1, *zeros): 2, (0, *zeros): 3}
        out = {(1, *pad): -2}
        expected = dict(out)
        accumulate_by_get(expected, a, b, 1)
        got = accumulate_kron(out, a, b, 1, width)
        assert list(got.items()) == list(expected.items()) == [
            ((0, *pad), 3), ((2, *pad), 1), ((1, *pad), Fraction(3, 2))]
        assert list(map(type, got.values())) == [int, Fraction, Fraction]


class TestOdeEngineParity:
    @given(monomial_grammars())
    @settings(max_examples=25, deadline=None)
    def test_solve_ode_equals_gen_series(self, g):
        # solve_ode and gen_series both hand these levels and names to fps._egf.
        names, ys = egf_levels(grammar_ode(g), 16)
        assert names == tuple(sorted(g.alphabet))
        for x in g.alphabet:
            assert ys[x] == gen_levels(g, LaurentPoly.variable(x), 16)

    @pytest.mark.parametrize("text", [
        f"u -> u^{2 ** 70}*v^-{2 ** 70}\nv -> 3*u^-1*v^2",
        f"x -> x^{2 ** 70}*y^-{2 ** 69}*z^3\ny -> 2*x^-1*z^{2 ** 71} + y^-2\nz -> x^-5*y*z^2",
    ], ids=["two-letter", "three-letter"])
    def test_huge_exponents_get_wide_enough_key_fields(self, text):
        # egf_levels sizes its Kronecker fields from the system and the order;
        # fixed 64-bit fields alias distinct exponent vectors on both grammars.
        g = Grammar.from_text(text)
        names, ys = egf_levels(grammar_ode(g), 4)
        for x in g.alphabet:
            assert ys[x] == gen_levels(g, LaurentPoly.variable(x), 4)

    def test_packed_levels_agree_on_an_unsorted_alphabet(self):
        g = Grammar.from_text("y -> x*y^2\nx -> 2*x^-1*y")
        names, ys = egf_levels(grammar_ode(g), 8)
        assert names == ("x", "y")
        for x in g.alphabet:
            assert ys[x] == gen_levels(g, LaurentPoly.variable(x), 8)

    def test_unsorted_alphabet_unpacks_to_canonical_monomials(self):
        # z is declared before a; every unpacked monomial is still sorted by
        # letter, and the text is the one of the sorted packing.
        g = Grammar.from_text("z -> a*z^2\na -> z")
        levels = iterate_D(g, parse_poly("z*a^-1 + 2*a"), 2)
        series = gen_series(g, LaurentPoly.variable("z"), 3)
        sol = solve_ode(grammar_ode(g), 3)
        polys = [*levels, *series.coeffs, *sol["z"].coeffs, *sol["a"].coeffs]
        assert all(mono == monomial(dict(mono)) for p in polys for mono in p.terms())
        assert list(map(str, levels)) == [
            "2*a + a^-1*z", "z^2 + 2*z - a^-2*z^2",
            "2*a*z^3 + 2*a*z^2 - 2*a^-1*z^3 + 2*a^-3*z^3"]
        assert sol["z"] == series
        assert str(series) == "z, a*z^2, a^2*z^3 + 1/2*z^3, a^3*z^4 + 7/6*a*z^4"
        assert str(sol["a"]) == "a, z, 1/2*a*z^2, 1/3*a^2*z^3 + 1/6*z^3"

    @given(ode_systems())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_recurrence(self, system):
        try:
            expected = reference_solve(system, 6)
        except NonInvertibleConstantTerm:
            with pytest.raises(NonInvertibleConstantTerm):
                solve_ode(system, 6)
            return
        assert solve_ode(system, 6) == expected


class TestMixedCoefficients:
    """Coefficients are exact rationals or Laurent polynomials, never floats."""

    def test_float_coefficient_raises(self):
        with pytest.raises(TypeError):
            TruncatedSeries([1, 0.5])
        with pytest.raises(TypeError):
            TruncatedSeries([1.0, 0, 0])


class TestNegativeOrder:
    @pytest.mark.parametrize("build", [
        lambda: gen_levels(WHITNEY_32, LaurentPoly.variable("u"), -1),
        lambda: gen_series(WHITNEY_32, LaurentPoly.variable("u"), -1),
        lambda: egf_levels(grammar_ode(WHITNEY_32), -1),
        lambda: solve_ode(OdeSystem(Grammar({"x": parse_poly("1 + x^2")}), {"x": 0}), -1),
        lambda: tree_function(-1),
        lambda: solve_ode(grammar_ode(WHITNEY_32), -1),
    ])
    def test_raises(self, build):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            build()

    def test_order_zero_is_fine(self):
        assert solve_ode(grammar_ode(WHITNEY_32), 0)["u"] == constant(LaurentPoly.variable("u"), 0)


class TestTreeFunction:
    def test_first_coefficients(self):
        assert tree_function(4) == [0, 1, 2, 9, 64]
        assert egf_series(tree_function(4)) == series(0, 1, 1, Fraction(3, 2), Fraction(8, 3))

    def test_functional_equation(self):
        T = egf_series(tree_function(12))
        assert series_sub(T, series_mul(t_term(1, 12), series_exp(T))) == constant(0, 12)

    def test_derivative_identity(self):
        T = egf_series(tree_function(9))
        lhs = series_mul(series_derivative(T), series_sub(constant(1, 9), T))
        assert lhs == TruncatedSeries(series_exp(T).coeffs[:9])


class TestVerifications:
    def test_whitney_egf_passes(self):
        for m, r in ((1, 1), (3, 2), (2, 0)):
            assert verify_closed_form_whitney(m, r, 6).passed

    def test_a2zero_solution_passes(self):
        report = verify_sol_a2zero(2, 2, 4)
        assert report.passed

    def test_a2zero_solution_negative_a1(self):
        assert verify_sol_a2zero(1, -2, 4).passed

    def test_a2zero_solution_zero_a1(self):
        with pytest.raises(ZeroA1):
            verify_sol_a2zero(1, 0, 3)

    def test_a1zero_solution_passes(self):
        for a0, a2 in ((1, 2), (0, 1), (2, 3)):
            assert verify_sol_a1zero(a0, a2, 5).passed

    def test_a1zero_geometric_case(self):
        # a2 = 1: V(t) = v/(1 - t v), so V (1 - t v) is constant.
        report = verify_sol_a1zero(0, 1, 6)
        assert report.passed

    def test_a1zero_solution_zero_a2(self):
        with pytest.raises(ZeroA2):
            verify_sol_a1zero(1, 0, 3)

    def test_second_order_passes(self):
        assert verify_secondorder_egf(Fraction(1, 2), 6).passed
        assert verify_secondorder_egf(2, 5).passed

    def test_second_order_degenerate(self):
        with pytest.raises(DegenerateY):
            verify_secondorder_egf(1, 4)
        with pytest.raises(DegenerateY):
            verify_secondorder_egf(0, 4)

    def test_negative_order_errors(self):
        for check, args in ((verify_secondorder_egf, (Fraction(1, 2),)),
                            (verify_closed_form_whitney, (1, 1)),
                            (verify_sol_a2zero, (1, 2)), (verify_sol_a1zero, (1, 2))):
            with pytest.raises(ValueError, match="^order must be nonnegative$"):
                check(*args, -1)

    def test_float_arguments_are_rejected(self):
        # Fraction(0.5) would silently pass a binary fraction into an exact check.
        with pytest.raises(TypeError, match="got float"):
            verify_secondorder_egf(0.5, 3)
