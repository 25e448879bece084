"""Laurent polynomial arithmetic, rendering, parsing, and ring laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkptri.errors import (
    MissingVariable,
    NonInvertibleElement,
    PolyParseError,
    ZeroToNegativePower,
)
from gkptri.polyring import LaurentPoly, monomial, parse_poly

U = LaurentPoly.variable("u")
V = LaurentPoly.variable("v")


def mono(coeff=1, **exps):
    return LaurentPoly.from_exponents(exps, coeff)


# -- hypothesis strategies ------------------------------------------------------

coefficients = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6
)
monomials = st.dictionaries(
    st.sampled_from(["u", "v", "w"]), st.integers(-3, 3), max_size=3
)
polys = st.lists(st.tuples(monomials, coefficients), max_size=4).map(
    lambda items: sum(
        (LaurentPoly.from_exponents(e, c) for e, c in items), LaurentPoly.zero()
    )
)


class TestArithmetic:
    def test_additive_inverse(self):
        p = mono(1, u=1, v=2)
        assert p + (-p) == LaurentPoly.zero()
        assert (p + (-p)).is_zero()

    def test_add_distinct_terms(self):
        assert mono(1, u=1, v=5) + mono(2, u=4, v=2) == parse_poly(
            "u*v^5 + 2*u^4*v^2"
        )

    def test_add_merges_like_terms(self):
        assert mono(3, u=-1) + mono(Fraction(1, 2), u=-1) == mono(
            Fraction(7, 2), u=-1
        )

    def test_mul_single_terms(self):
        assert U * mono(1, v=-1) == mono(1, u=1, v=-1)

    def test_difference_of_squares(self):
        assert (U + V) * (U - V) == U ** 2 - V ** 2

    def test_mul_is_first_leibniz_term(self):
        # u*v^2 rewritten through the rule u -> u*v^3 contributes u*v^5.
        assert mono(1, u=1, v=2) * mono(1, v=3) == mono(1, u=1, v=5)

    def test_pow_negative(self):
        p = mono(2, u=1, v=-2)
        assert p ** -2 == mono(Fraction(1, 4), u=-2, v=4)
        assert p ** -1 * p == LaurentPoly.one()

    def test_inv_requires_single_term(self):
        with pytest.raises(NonInvertibleElement):
            (U + V).inv()

    def test_scalar_coercion(self):
        assert 2 * U - U == U
        assert U + 0 == U
        assert (U * Fraction(1, 2)) * 2 == U


class TestPartial:
    def test_power_rule(self):
        assert mono(1, u=1, v=2).partial("v") == mono(2, u=1, v=1)

    def test_constant_in_variable(self):
        assert mono(1, v=3).partial("u") == LaurentPoly.zero()

    def test_laurent_power_rule(self):
        assert mono(1, u=1, v=-2).partial("v") == mono(-2, u=1, v=-3)

    def test_derivative_of_constant(self):
        assert LaurentPoly.one().partial("u") == LaurentPoly.zero()


class TestEvaluate:
    def test_direct_substitution(self):
        assert mono(1, u=1, v=2).evaluate({"u": 2, "v": 3}) == 18

    def test_symmetry_point(self):
        assert (U - V).evaluate({"u": 1, "v": 1}) == 0

    def test_zero_to_negative_power(self):
        with pytest.raises(ZeroToNegativePower):
            mono(1, u=1, v=-1).evaluate({"u": 1, "v": 0})

    def test_missing_variable(self):
        with pytest.raises(MissingVariable):
            mono(1, u=1, v=2).evaluate({"u": 1})


class TestRendering:
    def test_graded_lex_order(self):
        p = mono(4, u=7, v=2) + mono(1, u=1, v=8) + mono(13, u=4, v=5)
        assert str(p) == "u*v^8 + 13*u^4*v^5 + 4*u^7*v^2"

    def test_degree_descending(self):
        p = mono(4, u=1, v=2) + mono(1, u=1, v=6) + mono(6, u=1, v=4)
        assert str(p) == "u*v^6 + 6*u*v^4 + 4*u*v^2"

    def test_negative_and_fraction_coefficients(self):
        p = mono(Fraction(-7, 2), u=-1) + mono(1, v=1)
        assert str(p) == "v - 7/2*u^-1"

    def test_zero_and_constant(self):
        assert str(LaurentPoly.zero()) == "0"
        assert str(LaurentPoly.constant(Fraction(3, 4))) == "3/4"

    def test_parse_render_round_trip(self):
        for text in ("u*v^5 + 2*u^4*v^2", "v - 7/2*u^-1", "0", "3/4"):
            assert str(parse_poly(text)) == text


class TestParsing:
    def test_rational_coefficient(self):
        assert parse_poly("1/2*u^2") == mono(Fraction(1, 2), u=2)

    def test_leading_minus(self):
        assert parse_poly("-u + v") == -U + V

    def test_negative_exponent(self):
        assert parse_poly("3*u^-2*v") == mono(3, u=-2, v=1)

    def test_error_carries_position(self):
        with pytest.raises(PolyParseError) as err:
            parse_poly("u + ?", line=7)
        assert err.value.line == 7
        assert err.value.column == 5

    def test_error_on_missing_exponent(self):
        with pytest.raises(PolyParseError):
            parse_poly("u^v")


class TestRingLaws:
    @given(polys, polys, polys)
    @settings(max_examples=60)
    def test_add_mul_laws(self, p, q, r):
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polys)
    @settings(max_examples=30)
    def test_identities(self, p):
        assert p + LaurentPoly.zero() == p
        assert p * LaurentPoly.one() == p
        assert p * LaurentPoly.zero() == LaurentPoly.zero()

    @given(polys, polys)
    @settings(max_examples=60)
    def test_leibniz_rule(self, p, q):
        for x in ("u", "v"):
            lhs = (p * q).partial(x)
            rhs = p.partial(x) * q + p * q.partial(x)
            assert lhs == rhs

    @given(polys, polys)
    @settings(max_examples=40)
    def test_evaluate_is_ring_homomorphism(self, p, q):
        point = {"u": Fraction(2), "v": Fraction(-3), "w": Fraction(1, 2)}
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)

    @given(polys)
    @settings(max_examples=30)
    def test_canonical_form_round_trip(self, p):
        # Rebuilding from the term map reproduces the canonical object.
        assert LaurentPoly(p.terms()) == p
        assert hash(LaurentPoly(p.terms())) == hash(p)

    @pytest.mark.parametrize("value", [3, -1, Fraction(2, 3), Fraction(4, 2), 0])
    def test_constant_hashes_as_its_scalar(self, value):
        c = LaurentPoly.constant(value)
        assert c == value
        assert hash(c) == hash(value)
        assert len({c, value}) == 1


def test_monomial_helper_drops_zero_exponents():
    assert monomial({"u": 0, "v": 2}) == (("v", 2),)
