"""Closed formulas against the recurrence engine, and the special numbers."""

import random
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkptri import closedforms
from gkptri.closedforms import (
    a_mr_explicit,
    euler_at_zero,
    f_a2zero_explicit,
    f_gram_explicit,
    rising_step,
    stirling2,
    t_b2zero_explicit,
    touchard_row,
    a1zero_rowsum,
)
from gkptri.errors import ZeroA1, ZeroA2
from gkptri.polyring import normalize_scalar
from gkptri.triangles import (
    TriangleParams,
    recurrence_triangle,
    stirling2_triangle,
    whitney_eulerian,
)
from series_reference import euler_at_zero_by_series

A_GRID = list(product((0, 1, 2), (1, 2, 3), (1, 2, 3)))


# Fraction-only references for the closed forms.


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

    @given(scalars, nonzero, scalars, scalars, scalars, entries())
    @settings(max_examples=200)
    def test_t_b2zero_explicit(self, a0, a1, a2, b0, b1, nk):
        n, k = nk
        assert same(t_b2zero_explicit(a0, a1, a2, b0, b1, n, k),
                    t_b2zero_fraction(a0, a1, a2, b0, b1, n, k))

    @given(st.tuples(*[st.integers(-4, 4)] * 5).filter(lambda t: t[1]), entries())
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

    def test_stirling_matches_the_triangle(self, monkeypatch):
        # From an empty column cache, in an order that jumps between columns.
        monkeypatch.setattr(closedforms, "_stirling2_columns", [])
        tri = stirling2_triangle(60)
        pairs = [(n, k) for n in range(61) for k in range(-1, n + 2)]
        random.Random(0).shuffle(pairs)
        assert [stirling2(n, k) for n, k in pairs] == [tri.entry(n, k) for n, k in pairs]

    def test_no_recursion_depth_limit(self):
        # Each of these once raised RecursionError from a stirling2 that
        # recursed once per n.
        assert stirling2(1500, 2) == 2 ** 1499 - 1
        # sum_j C(n,j) S(j,k) = S(n+1,k+1) reaches column k+1 another way.
        assert f_a2zero_explicit(1, 1, 1200, 1100) == stirling2(1201, 1101)
        assert touchard_row(1, 1, 300) == [stirling2(301, j + 1) for j in range(301)]
        # B_600 from the Bell triangle (Aitken's array), which needs no S(n,k).
        row = [1]
        for _ in range(600):
            nxt = [row[-1]]
            for x in row:
                nxt.append(nxt[-1] + x)
            row = nxt
        assert sum(stirling2(600, k) for k in range(601)) == row[0]

    def test_bell_numbers(self):
        # B_n = sum_k S(n,k)
        assert [sum(stirling2(n, k) for k in range(n + 1)) for n in range(6)] == [
            1, 1, 2, 5, 15, 52]

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
        # a2 = 0 is no error: the factorization holds for any a2.
        tri = recurrence_triangle(TriangleParams(1, 1, 0, 1, 1, 0), 2)
        assert t_b2zero_explicit(1, 1, 0, 1, 1, 2, 1) == tri.entry(2, 1)

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


def touchard_row_per_pair(a0, a1, n):
    """touchard_row as it was, with the binomial weight recomputed for every
    (j, k): the reference its output must match byte for byte."""
    return [
        normalize_scalar(Fraction(1, a1) ** j * sum(
            comb(n, k) * a1 ** k * a0 ** (n - k) * stirling2(k, j) for k in range(j, n + 1)))
        for j in range(n + 1)
    ]


def recurrence_row(a0, a1, n):
    """Row n of the b = 1, a2 = 0 triangle, from the recurrence."""
    return recurrence_triangle(TriangleParams(a0, a1, 0, 1, 0, 0), n).row(n)


class TestTouchard:
    def test_row_matches_per_pair_weights(self):
        for a0, a1, n in product(range(-2, 3), (-2, -1, 1, 2), range(13)):
            assert [(type(c), str(c)) for c in touchard_row(a0, a1, n)] == [
                (type(c), str(c)) for c in touchard_row_per_pair(a0, a1, n)]

    def test_row_zero(self):
        assert touchard_row(2, 2, 0) == recurrence_row(2, 2, 0) == [1]

    def test_stirling_case(self):
        assert touchard_row(0, 1, 3) == recurrence_row(0, 1, 3) == [0, 1, 3, 1]

    def test_two_two_case(self):
        assert touchard_row(2, 2, 2) == recurrence_row(2, 2, 2) == [4, 6, 1]

    def test_zero_a1(self):
        with pytest.raises(ZeroA1):
            touchard_row(1, 0, 2)

    def test_identity_on_grid(self):
        for a0, a1, n in product((0, 1, 2), (1, 2, 3), range(7)):
            assert touchard_row(a0, a1, n) == recurrence_row(a0, a1, n)


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
