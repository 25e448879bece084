"""Closed formulas against the recurrence engine, and the special numbers."""

from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkptri.closedforms import (
    a_mr_explicit,
    bell_polynomial,
    euler_at_zero,
    f_a2zero_explicit,
    f_gram_explicit,
    rising_step,
    stirling2,
    t_b2zero_explicit,
    touchard_check,
    a1zero_rowsum,
)
from gkptri.errors import ZeroA1, ZeroA2
from gkptri.fps import TruncatedSeries, exp_t
from gkptri.polyring import LaurentPoly, normalize_scalar, parse_poly
from gkptri.triangles import (
    TriangleParams,
    recurrence_triangle,
    whitney_eulerian,
)

A_GRID = list(product((0, 1, 2), (1, 2, 3), (1, 2, 3)))


# Fraction-only references for the closed forms.


def euler_at_zero_by_series(order):
    """E_0(0)..E_order(0) as k! [t^k] 2/(e^t + 1), by series inversion."""
    series = TruncatedSeries.constant(2, order) * (
        exp_t(1, order) + TruncatedSeries.one(order)).inverse()
    return [normalize_scalar(Fraction(series.coefficient(k)) * factorial(k))
            for k in range(order + 1)]

def rising_step_fraction(x, a, k):
    x, a = Fraction(x), Fraction(a)
    result = Fraction(1)
    for i in range(k):
        result *= x + i * a
    return normalize_scalar(result)


def f_gram_fraction(a0, a1, a2, n, k):
    total = Fraction(0)
    for j in range(k + 1):
        prod = Fraction(1)
        for r in range(1, n + 1):
            prod *= a0 + a1 * j + r * a2
        total += (-1) ** (k - j) * comb(k, j) * prod
    return normalize_scalar(total / (Fraction(a1) ** k * factorial(k)))


def t_b2zero_fraction(a0, a1, a2, b0, b1, n, k):
    prefactor = rising_step_fraction(b0 + b1, b1, k)
    return normalize_scalar(Fraction(prefactor) * f_gram_fraction(a0, a1, a2, n, k))


scalars = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)
nonzero = scalars.filter(lambda v: v != 0)


@st.composite
def entries(draw):
    n = draw(st.integers(0, 8))
    return n, draw(st.integers(0, n))


def same(value, expected):
    return value == expected and type(value) is type(expected)


class TestFractionParity:
    @given(scalars, scalars, st.integers(0, 8))
    @settings(max_examples=200)
    def test_rising_step(self, x, a, k):
        assert same(rising_step(x, a, k), rising_step_fraction(x, a, k))

    @given(scalars, nonzero, scalars, entries())
    @settings(max_examples=200)
    def test_f_gram_explicit(self, a0, a1, a2, nk):
        n, k = nk
        assert same(f_gram_explicit(a0, a1, a2, n, k), f_gram_fraction(a0, a1, a2, n, k))

    @given(scalars, nonzero, nonzero, scalars, scalars, entries())
    @settings(max_examples=200)
    def test_t_b2zero_explicit(self, a0, a1, a2, b0, b1, nk):
        n, k = nk
        assert same(t_b2zero_explicit(a0, a1, a2, b0, b1, n, k),
                    t_b2zero_fraction(a0, a1, a2, b0, b1, n, k))

    @given(st.tuples(*[st.integers(-4, 4)] * 5).filter(lambda t: t[1] and t[2]), entries())
    @settings(max_examples=100)
    def test_int_arguments(self, args, nk):
        a0, a1, a2, b0, b1 = args
        n, k = nk
        assert type(rising_step(b0 + b1, b1, k)) is int
        value = t_b2zero_explicit(a0, a1, a2, b0, b1, n, k)
        assert same(value, t_b2zero_fraction(a0, a1, a2, b0, b1, n, k))


class TestSpecialNumbers:
    def test_stirling_known_values(self):
        assert stirling2(4, 2) == 7
        assert stirling2(0, 0) == 1
        assert stirling2(5, 0) == 0
        assert stirling2(3, 5) == 0

    def test_bell_numbers(self):
        # B_n = B_n(1) = sum_k S(n,k)
        bells = [bell_polynomial(n, 1) for n in range(6)]
        assert bells == [1, 1, 2, 5, 15, 52]
        for n in range(6):
            assert bells[n] == sum(stirling2(n, k) for k in range(n + 1))

    def test_rising_step_empty_product(self):
        assert rising_step(Fraction(7, 3), 5, 0) == 1

    def test_rising_step_values(self):
        assert rising_step(2, 1, 3) == 2 * 3 * 4
        assert rising_step(1, 2, 3) == 1 * 3 * 5

    def test_euler_values(self):
        assert [euler_at_zero(k) for k in range(4)] == [
            1,
            Fraction(-1, 2),
            0,
            Fraction(1, 4),
        ]
        # Odd-index values vanish beyond k = 1 in pairs with the even ones.
        assert euler_at_zero(4) == 0
        assert euler_at_zero(5) == Fraction(-1, 2)

    def test_euler_values_match_the_series_route(self):
        expected = euler_at_zero_by_series(40)
        for ks in (range(40, -1, -1), range(41)):
            values = [euler_at_zero(k) for k in ks]
            assert values == [expected[k] for k in ks]
            assert [type(v) for v in values] == [type(expected[k]) for k in ks]


class TestWhitneyExplicit:
    def test_displayed_coefficient(self):
        assert a_mr_explicit(3, 2, 2, 1) == 13

    def test_row_zero(self):
        assert a_mr_explicit(2, 0, 0, 0) == 1

    def test_eulerian_value(self):
        assert a_mr_explicit(1, 1, 4, 1) == 11

    def test_matches_recurrence(self):
        for m in (1, 2, 3):
            for r in range(m + 1):
                tri = whitney_eulerian(m, r, 6)
                for n in range(7):
                    for k in range(n + 1):
                        assert a_mr_explicit(m, r, n, k) == tri.entry(n, k)


class TestBUnitExplicit:
    def test_known_value(self):
        # (a0,a1,a2) = (0,1,1): coefficient n+k, so F(3,1) = 18.
        assert f_gram_explicit(0, 1, 1, 3, 1) == 18

    def test_k_zero_is_plain_product(self):
        assert f_gram_explicit(1, 2, 3, 4, 0) == (1 + 3) * (1 + 6) * (1 + 9) * (1 + 12)

    def test_zero_a1(self):
        with pytest.raises(ZeroA1):
            f_gram_explicit(1, 0, 1, 3, 1)

    def test_matches_recurrence_and_integrality(self):
        for a0, a1, a2 in A_GRID:
            tri = recurrence_triangle(TriangleParams(a0, a1, a2, 1, 0, 0), 6)
            for n in range(7):
                for k in range(n + 1):
                    value = f_gram_explicit(a0, a1, a2, n, k)
                    assert value == tri.entry(n, k)
                    assert isinstance(value, int)


class TestB2ZeroExplicit:
    def test_prefactor_one_reduces_to_b_unit(self):
        for n in range(5):
            for k in range(n + 1):
                assert t_b2zero_explicit(1, 2, 1, 1, 0, n, k) == f_gram_explicit(
                    1, 2, 1, n, k
                )

    def test_known_value(self):
        # a = n+k, b = k+1: T(3,2) = 54 by direct recurrence.
        assert t_b2zero_explicit(0, 1, 1, 1, 1, 3, 2) == 54

    def test_k_zero(self):
        assert t_b2zero_explicit(2, 1, 2, 0, 2, 4, 0) == f_gram_explicit(2, 1, 2, 4, 0)

    def test_errors(self):
        with pytest.raises(ZeroA1):
            t_b2zero_explicit(1, 0, 1, 1, 1, 2, 1)
        with pytest.raises(ZeroA2):
            t_b2zero_explicit(1, 1, 0, 1, 1, 2, 1)

    def test_matches_recurrence(self):
        for a0, a1, a2 in A_GRID:
            for b0, b1 in product((0, 1, 2), (0, 1, 2)):
                tri = recurrence_triangle(TriangleParams(a0, a1, a2, b0, b1, 0), 5)
                for n in range(6):
                    for k in range(n + 1):
                        assert t_b2zero_explicit(a0, a1, a2, b0, b1, n, k) == tri.entry(
                            n, k
                        )


class TestA2ZeroExplicit:
    def test_reduces_to_stirling(self):
        for n in range(6):
            for k in range(n + 1):
                assert f_a2zero_explicit(0, 1, n, k) == stirling2(n, k)

    def test_row_matches_derivative_coefficients(self):
        # (a0,a1) = (2,2): row 2 = [4,6,1] = coefficients of u v^2, u v^4,
        # u v^6 in the second displayed D^2 expansion.
        assert [f_a2zero_explicit(2, 2, 2, k) for k in range(3)] == [4, 6, 1]

    def test_matches_recurrence(self):
        for a0 in (0, 1, 2):
            for a1 in (1, 2, 3):
                tri = recurrence_triangle(TriangleParams(a0, a1, 0, 1, 0, 0), 6)
                for n in range(7):
                    for k in range(n + 1):
                        assert f_a2zero_explicit(a0, a1, n, k) == tri.entry(n, k)


class TestTouchard:
    def test_row_zero(self):
        lhs, rhs = touchard_check(2, 2, 0)
        assert lhs == rhs == LaurentPoly.one()

    def test_stirling_case(self):
        lhs, rhs = touchard_check(0, 1, 3)
        assert lhs == rhs == parse_poly("alpha + 3*alpha^2 + alpha^3")

    def test_two_two_case(self):
        lhs, rhs = touchard_check(2, 2, 2)
        assert lhs == rhs
        assert lhs == parse_poly("4 + 6*alpha + alpha^2")

    def test_zero_a1(self):
        with pytest.raises(ZeroA1):
            touchard_check(1, 0, 2)

    def test_identity_on_grid(self):
        for a0 in (0, 1, 2):
            for a1 in (1, 2, 3):
                for n in range(7):
                    lhs, rhs = touchard_check(a0, a1, n)
                    assert lhs == rhs


class TestWitn1RowSum:
    def test_first_row(self):
        for a0, a2 in ((0, 1), (1, 2), (2, 3)):
            assert a1zero_rowsum(a0, a2, 1) == 1 + a0 + a2

    def test_row_zero(self):
        assert a1zero_rowsum(5, 3, 0) == 1

    def test_known_value(self):
        assert a1zero_rowsum(0, 1, 3) == 24

    def test_zero_a2(self):
        with pytest.raises(ZeroA2):
            a1zero_rowsum(1, 0, 2)

    def test_matches_recurrence_row_sums(self):
        for a0 in (0, 1, 2):
            for a2 in (1, 2, 3):
                tri = recurrence_triangle(TriangleParams(a0, 0, a2, 1, 0, 0), 7)
                for n in range(8):
                    assert a1zero_rowsum(a0, a2, n) == tri.row_sum(n)
