"""Laurent polynomial arithmetic, rendering, parsing, and ring laws."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkptri.errors import PolyParseError
from gkptri.fps import TruncatedSeries
from gkptri.polyring import LaurentPoly, monomial, parse_poly
from gkptri.triangles import TriangleParams
from series_reference import add_terms, evaluate, mul_terms, partial

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
        assert (U + V) * (U - V) == U * U - V * V

    def test_mul_is_first_leibniz_term(self):
        # u*v^2 rewritten through the rule u -> u*v^3 contributes u*v^5.
        assert mono(1, u=1, v=2) * mono(1, v=3) == mono(1, u=1, v=5)

    def test_scalar_coercion(self):
        assert 2 * U - U == U
        assert U + 0 == U
        assert (U * Fraction(1, 2)) * 2 == U


class TestPartial:
    def test_power_rule(self):
        assert partial(mono(1, u=1, v=2), "v") == mono(2, u=1, v=1)

    def test_constant_in_variable(self):
        assert partial(mono(1, v=3), "u") == LaurentPoly.zero()

    def test_laurent_power_rule(self):
        assert partial(mono(1, u=1, v=-2), "v") == mono(-2, u=1, v=-3)

    def test_derivative_of_constant(self):
        assert partial(LaurentPoly.one(), "u") == LaurentPoly.zero()


class TestEvaluate:
    def test_direct_substitution(self):
        assert evaluate(mono(1, u=1, v=2), {"u": 2, "v": 3}) == 18

    def test_symmetry_point(self):
        assert evaluate(U - V, {"u": 1, "v": 1}) == 0


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
        assert str(err.value) == "line 7, column 5: unexpected character '?'"

    def test_error_on_missing_exponent(self):
        with pytest.raises(PolyParseError):
            parse_poly("u^v")

    @pytest.mark.parametrize("text, column, message", [
        ("", 1, "expected a number or variable"),
        ("(u)", 1, "expected a number or variable"),
        ("1/", 3, "expected denominator after '/'"),
        ("1/x", 3, "expected denominator after '/'"),
        ("1/0", 3, "zero denominator"),
        ("u^-", 4, "expected integer exponent after '^'"),
        ("u v", 3, "unexpected 'v'"),
        ("2/3/4", 4, "unexpected '/'"),
    ])
    def test_error_message_and_column(self, text, column, message):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text, line=7)
        assert (err.value.line, err.value.column) == (7, column)
        assert str(err.value) == f"line 7, column {column}: {message}"


# -- the recursive-descent parser, kept as the reference for parse_poly ----------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")


class ReferenceParser:
    """Recursive-descent parser for `2*u^3*v^-1 + 1/2*w - 4` style text."""

    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                col = len(text) - len(stripped) + 1
                raise PolyParseError(f"unexpected character {stripped[0]!r}", line, col)
            if m.group(1) is not None:
                self.tokens.append(("num", m.group(1), m.start(1) + 1))
            elif m.group(2) is not None:
                self.tokens.append(("name", m.group(2), m.start(2) + 1))
            else:
                self.tokens.append(("op", m.group(3), m.start(3) + 1))
            pos = m.end()

    def error(self, message: str, column: int | None = None):
        if column is None:
            column = self.tokens[self.pos][2] if self.pos < len(self.tokens) else len(self.text) + 1
        raise PolyParseError(message, self.line, column)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ("end", "", len(self.text) + 1)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def accept_op(self, *ops: str) -> str | None:
        kind, value, _ = self.peek()
        if kind == "op" and value in ops:
            self.pos += 1
            return value
        return None

    def parse_poly(self) -> LaurentPoly:
        sign = 1
        if self.accept_op("-"):
            sign = -1
        else:
            self.accept_op("+")
        result = self.parse_term() * sign
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                break
            term = self.parse_term()
            result = result + (term if op == "+" else -term)
        kind, value, col = self.peek()
        if kind != "end":
            self.error(f"unexpected {value!r}")
        return result

    def parse_term(self) -> LaurentPoly:
        result = self.parse_factor()
        while self.accept_op("*"):
            result = result * self.parse_factor()
        return result

    def parse_factor(self) -> LaurentPoly:
        kind, value, col = self.take()
        if kind == "num":
            num = int(value)
            if self.accept_op("/"):
                dkind, dvalue, dcol = self.take()
                if dkind != "num":
                    self.error("expected denominator after '/'", dcol)
                den = int(dvalue)
                if den == 0:
                    self.error("zero denominator", dcol)
                return LaurentPoly.constant(Fraction(num, den))
            return LaurentPoly.constant(num)
        if kind == "name":
            exponent = 1
            if self.accept_op("^"):
                neg = bool(self.accept_op("-"))
                ekind, evalue, ecol = self.take()
                if ekind != "num":
                    self.error("expected integer exponent after '^'", ecol)
                exponent = -int(evalue) if neg else int(evalue)
            return LaurentPoly.from_exponents({value: exponent})
        self.error("expected a number or variable", col)


def parse_outcome(parse, text: str, line: int):
    """The polynomial and its text, or the error's message, line and column."""
    try:
        p = parse(text, line)
    except PolyParseError as exc:
        return "error", str(exc), exc.line, exc.column
    return "ok", p, str(p)


# Tokens of the language, the whitespace between them, and characters outside it.
TOKEN_ALPHABET = ["0", "1", "2", "07", "u", "v", "x_1", "_", "+", "-", "*", "/", "^",
                  "(", ")", " ", "\t", "\n", "?", ".", "é", "\u00a0"]
token_strings = st.lists(st.sampled_from(TOKEN_ALPHABET), max_size=10).map("".join)
factor_texts = st.one_of(
    st.integers(0, 30).map(str),
    st.tuples(st.integers(0, 30), st.integers(0, 9)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.tuples(st.sampled_from(["u", "v", "w1"]), st.integers(-4, 4)).map(
        lambda ve: f"{ve[0]}^{ve[1]}"),
    st.sampled_from(["u", "v", "w1"]),
)
term_texts = st.lists(factor_texts, min_size=1, max_size=3).map("*".join)
structured_polys = st.tuples(
    st.sampled_from(["", "-", "+"]),
    st.lists(st.tuples(st.sampled_from([" + ", " - ", "+", "-"]), term_texts),
             min_size=1, max_size=4),
).map(lambda s: s[0] + "".join(op + t for op, t in s[1])[len(s[1][0][0]):])


class TestParserParity:
    """parse_poly against the recursive-descent reference: the same polynomial
    and text, or the same error at the same line and column."""

    @staticmethod
    def reference(text, line):
        return ReferenceParser(text, line).parse_poly()

    @given(token_strings, st.integers(1, 9))
    @settings(max_examples=400)
    def test_token_strings(self, text, line):
        assert parse_outcome(parse_poly, text, line) == parse_outcome(self.reference, text, line)

    @given(structured_polys)
    @settings(max_examples=200)
    def test_structured_polys(self, text):
        assert parse_outcome(parse_poly, text, 1) == parse_outcome(self.reference, text, 1)

    @given(polys)
    @settings(max_examples=60)
    def test_rendered_polys(self, p):
        assert parse_outcome(parse_poly, str(p), 3) == ("ok", p, str(p))
        assert parse_outcome(self.reference, str(p), 3) == ("ok", p, str(p))


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
            lhs = partial(p * q, x)
            rhs = partial(p, x) * q + p * partial(q, x)
            assert lhs == rhs

    @given(polys, polys)
    @settings(max_examples=40)
    def test_evaluate_is_ring_homomorphism(self, p, q):
        point = {"u": Fraction(2), "v": Fraction(-3), "w": Fraction(1, 2)}
        assert evaluate(p * q, point) == evaluate(p, point) * evaluate(q, point)
        assert evaluate(p + q, point) == evaluate(p, point) + evaluate(q, point)

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


# -- the ring operations against the copies that built terms past the constructor

exact_coefficients = st.one_of(st.integers(-5, 5), coefficients)
term_polys = st.dictionaries(monomials.map(monomial), exact_coefficients, max_size=4).map(
    LaurentPoly)
scalars = st.sampled_from([0, 1, -1, 2, Fraction(-3, 4)])


@given(term_polys, term_polys, scalars)
@settings(max_examples=150)
def test_ring_operations_match_the_reference(p, q, s):
    P, Q, S = p.terms(), q.terms(), LaurentPoly.constant(s).terms()
    cases = [
        (p + q, add_terms(P, Q)),
        (p - q, add_terms(P, mul_terms(Q, -1))),
        (s - p, add_terms(S, mul_terms(P, -1))),
        (-p, mul_terms(P, -1)),
        (p * q, mul_terms(P, Q)),
        (p * s, mul_terms(P, s)),
        (s * p, mul_terms(P, s)),
    ]
    for result, expected in cases:
        terms = result.terms()
        assert terms == expected
        # Equality cannot tell 2 from Fraction(2), so the types are compared too.
        assert {m: type(c) for m, c in terms.items()} == {
            m: type(c) for m, c in expected.items()}
        assert all(c and all(e for _, e in m) for m, c in terms.items())
    with pytest.raises(TypeError):
        p + 0.5
    with pytest.raises(TypeError):
        p * 0.5


@pytest.mark.parametrize("render, text", [
    (lambda: str(TriangleParams(True, 1, 0, 1, 0, 0)), "1,1,0,1,0,0"),
    (lambda: repr(LaurentPoly.constant(True).terms()), "{(): 1}"),
    (lambda: str(TruncatedSeries([True, False])), "1, 0"),
], ids=["triangle-params", "constant", "series"])
def test_bools_normalise_to_ints(render, text):
    assert render() == text


def test_monomial_helper_drops_zero_exponents():
    assert monomial({"u": 0, "v": 2}) == (("v", 2),)


@pytest.mark.parametrize("key", [
    (("v", 1), ("u", 1)),
    (("u", 1), ("u", 1)),
    (("u", 1), ("v", 0)),
], ids=["unsorted", "repeated-letter", "zero-exponent"])
def test_constructor_rejects_non_canonical_monomials(key):
    # Such a key would make a polynomial equal to none with the same value:
    # LaurentPoly({(("v", 1), ("u", 1)): 1}) would differ from u*v.
    with pytest.raises(ValueError, match="canonical"):
        LaurentPoly({key: 1})
    assert LaurentPoly({monomial({"u": 1, "v": 1}): 1}) == parse_poly("u*v")
