"""Grammars, the derivation operator, and triangle extraction."""

from fractions import Fraction
from itertools import product
from math import factorial
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkptri import grammar as grammar_module
from gkptri.errors import (
    NonIntegerParams,
    NonTriangularExpansion,
    UnknownVariable,
)
from gkptri.grammar import (
    Grammar,
    _pack,
    apply_D,
    extract_triangle,
    hao_grammar,
    hao_seed,
    iterate_D,
)
from gkptri.polyring import LaurentPoly, parse_poly
from gkptri.triangles import TriangleParams, recurrence_triangle, whitney_params
from series_reference import derive_by_get, partial, poly_add, poly_mul

WHITNEY_32 = Grammar.from_text("u -> u*v^3\nv -> u^3*v")
BELLISH = Grammar.from_text("u -> u*v^2\nv -> v")
SEED = parse_poly("u*v^2")


class TestGrammarConstruction:
    def test_hao_grammar_whitney_32(self):
        assert hao_grammar(whitney_params(3, 2)) == WHITNEY_32

    def test_hao_grammar_all_zero(self):
        g = hao_grammar(TriangleParams(0, 0, 0, 0, 0, 0))
        assert g.rules["u"] == LaurentPoly.variable("u")
        assert g.rules["v"] == LaurentPoly.variable("v")

    def test_hao_grammar_b_unit(self):
        g = hao_grammar(TriangleParams(0, 2, 0, 1, 0, 0))
        assert g == Grammar.from_text("u -> u*v^2\nv -> v")

    def test_hao_seed(self):
        assert hao_seed(whitney_params(3, 2)) == parse_poly("u*v^2")

    def test_non_integer_params(self):
        from fractions import Fraction

        with pytest.raises(NonIntegerParams):
            hao_grammar(TriangleParams(Fraction(1, 2), 0, 0, 0, 0, 0))

    def test_rule_outside_alphabet(self):
        with pytest.raises(UnknownVariable):
            Grammar({"u": parse_poly("u*w")})

    def test_alphabet_keeps_the_rule_order(self):
        rules = {"v": parse_poly("u*v"), "u": parse_poly("u")}
        assert Grammar(rules).alphabet == ("v", "u")
        assert Grammar.from_text("v -> u*v\nu -> u").alphabet == ("v", "u")

    def test_text_round_trip(self):
        text = "u -> u*v^3\nv -> u^3*v"
        assert str(Grammar.from_text(text)) == text


class TestDerivation:
    def test_displayed_first_derivative(self):
        assert apply_D(WHITNEY_32, SEED) == parse_poly("u*v^5 + 2*u^4*v^2")

    def test_displayed_first_derivative_bellish(self):
        assert apply_D(BELLISH, SEED) == parse_poly("u*v^4 + 2*u*v^2")

    def test_derivative_of_constant(self):
        assert apply_D(WHITNEY_32, LaurentPoly.constant(1)) == LaurentPoly()

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            apply_D(WHITNEY_32, parse_poly("u*w"))

    def test_iterate_levels(self):
        levels = iterate_D(WHITNEY_32, SEED, 2)
        assert levels == [
            SEED,
            parse_poly("u*v^5 + 2*u^4*v^2"),
            parse_poly("u*v^8 + 13*u^4*v^5 + 4*u^7*v^2"),
        ]

    def test_iterate_merges_like_terms(self):
        levels = iterate_D(BELLISH, SEED, 2)
        assert levels[2] == parse_poly("u*v^6 + 6*u*v^4 + 4*u*v^2")

    def test_iterate_zero_steps(self):
        assert iterate_D(WHITNEY_32, SEED, 0) == [SEED]

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_foreign_letter_in_seed_raises_at_every_n(self, n):
        with pytest.raises(UnknownVariable):
            iterate_D(WHITNEY_32, parse_poly("u*w"), n)


small_polys = st.lists(
    st.tuples(
        st.dictionaries(st.sampled_from(["u", "v"]), st.integers(-2, 3), max_size=2),
        st.integers(-5, 5),
    ),
    max_size=3,
).map(
    lambda items: poly_add(
        LaurentPoly(), *(LaurentPoly.from_exponents(e, c) for e, c in items)
    )
)


class TestDerivationLaws:
    @given(small_polys, small_polys)
    @settings(max_examples=50)
    def test_linearity(self, p, q):
        assert apply_D(WHITNEY_32, poly_add(p, q)) == poly_add(
            apply_D(WHITNEY_32, p), apply_D(WHITNEY_32, q)
        )

    @given(small_polys, small_polys)
    @settings(max_examples=50)
    def test_leibniz(self, p, q):
        assert apply_D(WHITNEY_32, poly_mul(p, q)) == poly_add(
            poly_mul(apply_D(WHITNEY_32, p), q), poly_mul(p, apply_D(WHITNEY_32, q))
        )


def _laurent_over(letters, coeffs):
    term = st.tuples(
        st.dictionaries(st.sampled_from(letters), st.integers(-3, 3), max_size=len(letters)),
        coeffs,
    )
    return st.lists(term, max_size=3).map(
        lambda items: poly_add(
            LaurentPoly(), *(LaurentPoly.from_exponents(e, c) for e, c in items)
        )
    )


@st.composite
def grammar_and_poly(draw):
    letters = draw(st.sampled_from([("u", "v"), ("v", "u"), ("u", "v", "w")]))
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
    rules = {x: draw(_laurent_over(letters, coeffs)) for x in letters}
    return Grammar(rules), draw(_laurent_over(letters, coeffs))


def reference_D(g, p):
    """The textbook derivation step, sum of rule(x) * dp/dx over the letters."""
    return poly_add(LaurentPoly(), *(poly_mul(g.rules[x], partial(p, x)) for x in g.alphabet))


class TestPackedEngineAgainstPartials:
    @pytest.mark.parametrize("rules, seed", [
        ("u -> 2/3*u^2*v - 5/7*v^-1\nv -> -3/4*u*v^3", "7/2*u^3*v^-2 + 4*u*v"),
        ("u -> 2/3*u*w - 5/7*v^-1\nv -> -3/4*u*v^3\nw -> 1/5*w^2", "7/2*u^3*v^-2*w + 4*v"),
    ])
    def test_derive_with_fraction_rule_coefficients(self, rules, seed):
        # Each packed term is a level coefficient times exponent times rule
        # coefficient; every level must equal the textbook iterate exactly.
        g = Grammar.from_text(rules)
        names = sorted(g.alphabet)
        want = parse_poly(seed)
        for level in grammar_module._derive(g._steps, _pack(names, want), 5):
            assert level == _pack(names, want)
            want = reference_D(g, want)

    @given(grammar_and_poly())
    @settings(max_examples=150)
    def test_apply_D_matches_partial_formula(self, case):
        g, p = case
        assert apply_D(g, p) == reference_D(g, p)

    @given(grammar_and_poly())
    @settings(max_examples=50)
    def test_iterate_D_matches_repeated_partial_formula(self, case):
        g, p = case
        expected = [p]
        for _ in range(3):
            expected.append(reference_D(g, expected[-1]))
        assert iterate_D(g, p, 3) == expected

    @given(
        st.tuples(*[st.integers(-3, 3)] * 6).filter(lambda t: (t[1], t[4]) != (0, 0)),
        st.integers(0, 10),
    )
    @settings(max_examples=120)
    def test_extract_triangle_matches_recurrence(self, six, n):
        params = TriangleParams(*six)
        assert extract_triangle(params, n).rows == recurrence_triangle(params, n).rows


exact_coeffs = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
)


@st.composite
def steps_and_seeds(draw):
    """Steps as in `Grammar._steps` and a packed seed over one to three
    letters, with seed exponents in [-2, 2] and shifts in [-1, 1] so that
    keys collide and cancel, int or Fraction coefficients, and sometimes
    no steps at all."""
    width = draw(st.integers(1, 3))
    step = st.tuples(st.integers(0, width - 1), st.tuples(*[st.integers(-1, 1)] * width),
                     exact_coeffs)
    seed = st.dictionaries(st.tuples(*[st.integers(-2, 2)] * width), exact_coeffs,
                           max_size=6)
    return draw(st.lists(step, max_size=4)), draw(seed)


def items_and_types(levels):
    return [(list(level.items()), list(map(type, level.values()))) for level in levels]


class TestDeriveKernel:
    @given(steps_and_seeds(), st.integers(0, 4))
    @settings(max_examples=300)
    def test_equals_the_get_kernel(self, case, n):
        steps, seed = case
        assert items_and_types(grammar_module._derive(steps, seed, n)) == items_and_types(
            derive_by_get(steps, seed, n))

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_cancelled_key_reappears_last(self, width):
        # The rule x -> x^2 + x + 1 on 2x - x^2 + x^3: x^2 gets 2, then -2,
        # which deletes it, then 3, which puts it back after x^0, x^3, x^4.
        pad, zeros = (1, -1)[:width - 1], (0, 0)[:width - 1]
        steps = [(0, (s, *zeros), 1) for s in (1, 0, -1)]
        seed = {(1, *pad): 2, (2, *pad): -1, (3, *pad): 1}
        level = list(grammar_module._derive(steps, seed, 1))[1]
        assert list(level.items()) == [((0, *pad), 2), ((3, *pad), 1), ((4, *pad), 3),
                                       ((2, *pad), 3)]
        assert items_and_types([level]) == items_and_types(derive_by_get(steps, seed, 1)[1:])

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_no_steps(self, width):
        seed = {(1,) * width: 2, (-1,) * width: Fraction(1, 2)}
        assert list(grammar_module._derive([], seed, 3)) == [seed, {}, {}, {}]

    def test_grammar_without_steps(self):
        g = Grammar.from_text("u -> 0\nv -> 0\nw -> 0")
        assert g._steps == []
        assert iterate_D(g, parse_poly("u*v*w + 2"), 2) == [
            parse_poly("u*v*w + 2"), LaurentPoly(), LaurentPoly()]


class TestExtractTriangle:
    @given(st.tuples(*[st.integers(-3, 3)] * 6), st.integers(0, 3))
    @settings(max_examples=300)
    def test_derives_the_hao_steps_and_seed(self, six, n):
        # The steps and seed vector handed to the derivation engine are
        # those the Grammar built by hao_grammar/hao_seed would give.
        assume(n == 0 or (six[1], six[4]) != (0, 0))
        params = TriangleParams(*six)
        seen = []
        derive = grammar_module._derive

        def spy(steps, seed, levels):
            seen.append((steps, seed))
            return derive(steps, seed, levels)

        with mock.patch.object(grammar_module, "_derive", spy):
            extract_triangle(params, n)
        assert seen == [(hao_grammar(params)._steps, _pack(("u", "v"), hao_seed(params)))]

    def test_whitney_32_row_2(self):
        tri = extract_triangle(whitney_params(3, 2), 2)
        assert tri.rows[2] == [4, 13, 1]

    def test_classical_eulerian_rows(self):
        tri = extract_triangle(TriangleParams(1, 1, 0, 0, -1, 1), 4)

        def trim(row):
            out = list(row)
            while len(out) > 1 and out[-1] == 0:
                out.pop()
            return out

        assert [trim(r) for r in tri.rows[1:]] == [
            [1],
            [1, 1],
            [1, 4, 1],
            [1, 11, 11, 1],
        ]

    def test_row_zero_only(self):
        tri = extract_triangle(TriangleParams(0, 1, 0, 1, 0, 0), 0)
        assert tri.rows == [[1]]

    def test_degenerate_lattice_raises(self):
        with pytest.raises(NonTriangularExpansion):
            extract_triangle(TriangleParams(1, 0, 1, 1, 0, 1), 2)

    def test_degenerate_lattice_row_zero_is_fine(self):
        assert extract_triangle(TriangleParams(1, 0, 1, 1, 0, 1), 0).rows == [[1]]

    def test_matches_recurrence_on_small_battery(self):
        span = (-2, -1, 0, 1, 2)
        for a0, a1, b0, b1 in product(span, span, span, span):
            if a1 == 0 and b1 == 0:
                continue
            params = TriangleParams(a0, a1, 1, b0, b1, -1)
            assert (
                extract_triangle(params, 4).rows
                == recurrence_triangle(params, 4).rows
            ), params

    def test_laurent_seed_allowed(self):
        params = TriangleParams(-3, 1, 0, -2, 1, 0)  # seed u^-1 v^-3
        assert (
            extract_triangle(params, 5).rows == recurrence_triangle(params, 5).rows
        )

    def test_whitney_family_matches_extraction(self):
        from gkptri.triangles import whitney_eulerian

        for m in (1, 2, 3):
            for r in range(m + 1):
                assert (
                    extract_triangle(whitney_params(m, r), 6).rows
                    == whitney_eulerian(m, r, 6).rows
                )


def test_absolute_row_sums_count_histories():
    # Total weight of D^n(u^(m-r) v^r) is n! m^n for the rules u -> u v^m,
    # v -> u^m v.
    for m, r in ((2, 1), (3, 2)):
        g = hao_grammar(whitney_params(m, r))
        levels = iterate_D(g, hao_seed(whitney_params(m, r)), 5)
        for n, poly in enumerate(levels):
            total = sum(abs(c) for c in poly.terms().values())
            assert total == factorial(n) * m ** n
