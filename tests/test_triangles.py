"""Recurrence engine, named families, row aggregates, and export formats."""

import decimal
import json
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkptri import cli
from gkptri.errors import RowOutOfRange
from gkptri.polyring import normalize_scalar
from gkptri.triangles import (
    FORMATS,
    Triangle,
    TriangleParams,
    format_triangle,
    r_eulerian,
    recurrence_triangle,
    render_triangle,
    second_order_eulerian,
    stirling2_params,
    stirling2_triangle,
    triangle_rows,
    whitney_eulerian,
    whitney_params,
)

# Rows frozen from the independent enumerators in tests/test_census.py
# (set partitions, descent words, excedance scans).
STIRLING_ROW_4 = [0, 1, 7, 6, 1]
EULERIAN_ROW_3 = [1, 4, 1, 0]
EULERIAN_ROW_4 = [1, 11, 11, 1, 0]
SECOND_ORDER_2_ROW_3 = [1, 8, 6, 0]
SECOND_ORDER_2_ROW_4 = [1, 22, 58, 24, 0]


class TestParams:
    def test_parse_and_render(self):
        p = TriangleParams.parse("0,1,0,1,0,0")
        assert p == stirling2_params()
        assert str(p) == "0,1,0,1,0,0"

    def test_parse_rational(self):
        p = TriangleParams.parse("1/2,1,0,1,0,0")
        assert p.a0 == Fraction(1, 2)
        assert not p.is_integral()

    def test_parse_wrong_arity(self):
        with pytest.raises(ValueError):
            TriangleParams.parse("1,2,3")

    def test_coefficients(self):
        p = whitney_params(3, 2)
        assert p.coeff_a(5, 1) == 3 * 1 + 2
        assert p.coeff_b(5, 1) == 3 * 5 - 3 * 1 + 3 - 2

    def test_equal_six_tuples_are_equal_and_hash_alike(self):
        p, q = TriangleParams(1, 2, 0, 1, -2, 2), TriangleParams(1, 2, 0, 1, -2, 2)
        assert p == q and hash(p) == hash(q) and len({p, q}) == 1
        assert p != TriangleParams(1, 2, 0, 1, -2, 3)
        assert p != (1, 2, 0, 1, -2, 2)

    def test_fields_cannot_be_assigned(self):
        p = whitney_params(2, 1)
        for name in ("a0", "b2"):
            with pytest.raises(AttributeError):
                setattr(p, name, 5)
            with pytest.raises(AttributeError):
                delattr(p, name)
        assert p == whitney_params(2, 1)

    def test_entries_are_normalized(self):
        p = TriangleParams(Fraction(4, 2), 1, 0, Fraction(-3), 0, Fraction(1, 2))
        assert p.as_tuple() == (2, 1, 0, -3, 0, Fraction(1, 2))
        assert list(map(type, p.as_tuple())) == [int] * 5 + [Fraction]
        with pytest.raises(TypeError):
            TriangleParams(0.5, 1, 0, 1, 0, 0)

    def test_cleared_six_tuple_is_integral(self):
        p = TriangleParams.parse("1/2,1,1/3,1,-1,2")
        assert p.cleared() == (6, TriangleParams(3, 6, 2, 6, -6, 12))
        assert whitney_params(2, 1).cleared() == (1, whitney_params(2, 1))

    def test_keyword_and_positional_construction_agree(self):
        p = TriangleParams(a0=1, a1=2, a2=0, b0=1, b1=-2, b2=Fraction(1, 2))
        assert p == TriangleParams(1, 2, 0, 1, -2, Fraction(1, 2))
        assert p == TriangleParams(1, 2, 0, b0=1, b1=-2, b2=Fraction(1, 2))


class TestRecurrence:
    def test_row_zero(self):
        assert recurrence_triangle(whitney_params(2, 1), 0).rows == [[1]]

    def test_stirling_row_4(self):
        assert recurrence_triangle(stirling2_params(), 4).rows[4] == STIRLING_ROW_4

    def test_whitney_11_row_3(self):
        assert whitney_eulerian(1, 1, 3).rows[3] == EULERIAN_ROW_3

    def test_rational_params(self):
        p = TriangleParams.parse("1/2,1,0,1,0,0")
        tri = recurrence_triangle(p, 2)
        assert tri.rows[1] == [Fraction(1, 2), 1]

    def test_self_consistency(self):
        tri = whitney_eulerian(3, 2, 6)
        p = tri.params
        for n in range(1, 7):
            for k in range(n + 1):
                expected = p.coeff_a(n, k) * tri.entry(n - 1, k) + p.coeff_b(
                    n, k
                ) * tri.entry(n - 1, k - 1)
                assert tri.entry(n, k) == expected


def entrywise_rows(params, n_max):
    """The recurrence filled one entry at a time, each entry normalized."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = []
        for k in range(n + 1):
            value = 0
            if k <= n - 1:
                value += params.coeff_a(n, k) * prev[k]
            if k >= 1:
                value += params.coeff_b(n, k) * prev[k - 1]
            row.append(normalize_scalar(value))
        rows.append(row)
    return rows


scalars = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)


class TestRecurrenceParity:
    @given(st.tuples(*[scalars] * 6), st.integers(0, 12))
    @settings(max_examples=200)
    def test_matches_entrywise_fill(self, six, n_max):
        params = TriangleParams(*six)
        rows = recurrence_triangle(params, n_max).rows
        expected = entrywise_rows(params, n_max)
        assert rows == expected
        assert [list(map(type, row)) for row in rows] == [
            list(map(type, row)) for row in expected
        ]
        for row in rows:
            for v in row:
                assert type(v) is int or v.denominator != 1

    @given(st.tuples(*[st.integers(-4, 4)] * 6), st.integers(0, 12))
    @settings(max_examples=100)
    def test_integer_params_give_int_entries(self, six, n_max):
        rows = recurrence_triangle(TriangleParams(*six), n_max).rows
        assert all(type(v) is int for row in rows for v in row)


class TestRowStream:
    def test_yields_the_rows_of_recurrence_triangle(self):
        p = whitney_params(3, 2)
        assert list(triangle_rows(p, 8)) == recurrence_triangle(p, 8).rows

    def test_negative_n_max_raises_at_the_first_row(self):
        rows = triangle_rows(stirling2_params(), -1)
        with pytest.raises(ValueError, match="nonnegative"):
            next(rows)

    @given(st.tuples(*[st.integers(-4, 4)] * 6), st.integers(0, 12))
    @settings(max_examples=100)
    def test_exact_decimal_fill_equals_int_fill(self, six, n_max):
        params = TriangleParams(*six)
        context = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                                  Emin=decimal.MIN_EMIN,
                                  traps=[decimal.Inexact, decimal.Rounded])
        with decimal.localcontext(context):
            rows = list(triangle_rows(params, n_max, decimal.Decimal(1)))
        expected = recurrence_triangle(params, n_max).rows
        assert rows == expected
        for row, ints in zip(rows, expected):
            for v, i in zip(row, ints):
                assert type(v) is decimal.Decimal and v.as_tuple().exponent == 0
                assert str(abs(v)) == str(abs(i))


class TestFamilies:
    def test_whitney_32_row_2(self):
        assert whitney_eulerian(3, 2, 2).rows[2] == [4, 13, 1]

    def test_whitney_11_row_4(self):
        assert whitney_eulerian(1, 1, 4).rows[4] == EULERIAN_ROW_4

    def test_whitney_rejects_bad_m(self):
        with pytest.raises(ValueError):
            whitney_eulerian(0, 0, 3)

    def test_r_eulerian_row_3(self):
        assert r_eulerian(1, 3).rows[3] == EULERIAN_ROW_3

    def test_r_eulerian_equals_whitney_m1(self):
        assert r_eulerian(1, 5).rows == whitney_eulerian(1, 1, 5).rows

    def test_second_order_rows(self):
        tri = second_order_eulerian(2, 4)
        assert tri.rows[3] == SECOND_ORDER_2_ROW_3
        assert tri.rows[4] == SECOND_ORDER_2_ROW_4

    def test_second_order_boundary_column(self):
        tri = second_order_eulerian(3, 6)
        assert all(tri.entry(n, 0) == 1 for n in range(7))
        assert all(tri.entry(n, n) == 0 for n in range(1, 7))

    def test_second_order_row_sums_are_double_factorials(self):
        tri = second_order_eulerian(2, 4)
        assert [tri.row_sum(n) for n in range(1, 5)] == [1, 3, 15, 105]

    def test_second_order_r1_is_eulerian(self):
        assert second_order_eulerian(1, 5).rows == r_eulerian(1, 5).rows


class TestAggregates:
    def test_row_sum_whitney(self):
        tri = whitney_eulerian(2, 1, 3)
        assert tri.row_sum(3) == 48 == 2 ** 3 * factorial(3)

    def test_row_zero_sums(self):
        tri = whitney_eulerian(3, 1, 0)
        assert tri.row_sum(0) == 1
        assert tri.alternating_row_sum(0) == 1

    def test_alternating_sum(self):
        assert whitney_eulerian(1, 1, 3).alternating_row_sum(3) == 1 - 4 + 1

    def test_row_out_of_range(self):
        with pytest.raises(RowOutOfRange):
            whitney_eulerian(1, 1, 3).row_sum(4)

    def test_entry_out_of_range_is_zero(self):
        tri = whitney_eulerian(1, 1, 3)
        assert tri.entry(2, -1) == 0
        assert tri.entry(2, 3) == 0

    def test_assert_integral(self):
        assert all(type(v) is int for row in whitney_eulerian(2, 1, 5).rows for v in row)
        rational = recurrence_triangle(TriangleParams.parse("1/2,1,0,1,0,0"), 2)
        assert not all(type(v) is int for row in rational.rows for v in row)


class TestFormats:
    def test_oeis_trims_trailing_zeros(self):
        out = format_triangle(whitney_eulerian(1, 1, 4), "oeis")
        assert out == "1\n1\n1,1\n1,4,1\n1,11,11,1"

    def test_oeis_keeps_leading_zeros(self):
        out = format_triangle(stirling2_triangle(3), "oeis")
        assert out == "1\n0,1\n0,1,1\n0,1,3,1"

    def test_plain_labels_rows(self):
        out = format_triangle(second_order_eulerian(2, 3), "plain")
        assert out.splitlines()[-1] == "n=3: 1,8,6"

    def test_csv_keeps_full_rows(self):
        out = format_triangle(whitney_eulerian(1, 1, 2), "csv")
        assert out == "1\n1,0\n1,1,0"

    def test_json_round_trip_and_values(self):
        tri = recurrence_triangle(TriangleParams.parse("1/2,1,0,1,0,0"), 2)
        text = format_triangle(tri, "json")
        payload = json.loads(text)
        assert payload["rows"][1] == ["1/2", 1]
        assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            format_triangle(whitney_eulerian(1, 1, 1), "yaml")


def one_piece_per_row(t, rows, fmt):
    """The renderer as it was before rows went out in pieces: each row joined
    whole, prefix and all, into one piece."""
    def text(v):
        return str(v) if v else "0"

    def trim(row):
        end = len(row)
        while end > 1 and row[end - 1] == 0:
            end -= 1
        return row[:end]

    head = '{"label":%s,"params":%s,"rows":[' % (
        json.dumps(t.label()), json.dumps(str(t.params)))
    for n, row in enumerate(rows):
        if fmt == "json":
            line = ",".join(f'"{v}"' if type(v) is Fraction else text(v) for v in row)
            yield ("," if n else head) + "[" + line + "]"
        else:
            line = ",".join(map(text, row if fmt == "csv" else trim(row)))
            yield ("\n" if n else "") + (f"n={n}: " if fmt == "plain" else "") + line
    if fmt == "json":
        yield "]}"


def cli_rows(params, n_max):
    """Rows 0..n_max filled as `gkptri triangle` fills them: exact Decimals
    for an integer six-tuple, ints and Fractions for a rational one."""
    with decimal.localcontext(cli.EXACT):
        one = decimal.Decimal(1) if params.is_integral() else 1
        return list(triangle_rows(params, n_max, one))


class TestStreamedRendering:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_no_piece_holds_more_than_64_entries(self, fmt):
        # 200 rows of 1-200 entries; the JSON head's label and params hold 9
        # comma-separated fields, every other piece one field per entry.
        p = whitney_params(3, 2)
        t, rows = recurrence_triangle(p, 0), cli_rows(p, 199)
        pieces = list(render_triangle(t, rows, fmt))
        assert max(len(piece.lstrip(",").split(",")) for piece in pieces) == 64
        assert "".join(pieces) == "".join(one_piece_per_row(t, rows, fmt))

    @given(st.one_of(st.tuples(*[st.integers(-4, 4)] * 6), st.tuples(*[scalars] * 6)),
           st.integers(0, 140))
    @settings(max_examples=40, deadline=None)
    def test_equals_one_piece_per_row(self, six, n_max):
        # Rows of up to 141 entries cross the 64-entry piece boundary twice.
        params = TriangleParams(*six)
        t, rows = recurrence_triangle(params, 0), cli_rows(params, n_max)
        for fmt in FORMATS:
            assert "".join(render_triangle(t, rows, fmt)) == "".join(
                one_piece_per_row(t, rows, fmt))

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_decimal_negative_zero_prints_as_zero(self, fmt):
        # a0 = -1 and every other coefficient 0: (-1)*0 is Decimal -0.
        params = TriangleParams(-1, 0, 0, 0, 0, 0)
        t, rows = recurrence_triangle(params, 0), cli_rows(params, 140)
        assert any(str(v) == "-0" for row in rows for v in row)
        text = "".join(render_triangle(t, rows, fmt))
        assert text == "".join(one_piece_per_row(t, rows, fmt))
        assert "-0" not in text
