"""Laurent polynomials as values: rendering, parsing, equality and
hashing, the parser and the renderer each against the code they replaced;
and the ring laws of the tests' reference arithmetic (`poly_add` and
`poly_mul` of `series_reference`), since `LaurentPoly` has no operators."""

import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkptri.errors import PolyParseError
from gkptri.fps import TruncatedSeries
from gkptri.polyring import LaurentPoly, monomial, parse_poly, render_packed
from gkptri.triangles import TriangleParams
from series_reference import evaluate, partial, poly_add, poly_mul

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
    lambda items: poly_add(
        LaurentPoly.zero(), *(LaurentPoly.from_exponents(e, c) for e, c in items)
    )
)


def neg(p):
    return poly_mul(-1, p)


class TestArithmetic:
    """The reference arithmetic on LaurentPolys and scalars."""

    def test_additive_inverse(self):
        p = mono(1, u=1, v=2)
        assert poly_add(p, neg(p)) == LaurentPoly.zero()

    def test_add_distinct_terms(self):
        assert poly_add(mono(1, u=1, v=5), mono(2, u=4, v=2)) == parse_poly(
            "u*v^5 + 2*u^4*v^2"
        )

    def test_add_merges_like_terms(self):
        assert poly_add(mono(3, u=-1), mono(Fraction(1, 2), u=-1)) == mono(
            Fraction(7, 2), u=-1
        )

    def test_mul_single_terms(self):
        assert poly_mul(U, mono(1, v=-1)) == mono(1, u=1, v=-1)

    def test_difference_of_squares(self):
        assert poly_mul(poly_add(U, V), poly_add(U, neg(V))) == poly_add(
            poly_mul(U, U), neg(poly_mul(V, V)))

    def test_mul_is_first_leibniz_term(self):
        # u*v^2 rewritten through the rule u -> u*v^3 contributes u*v^5.
        assert poly_mul(mono(1, u=1, v=2), mono(1, v=3)) == mono(1, u=1, v=5)

    def test_scalar_coercion(self):
        assert poly_add(poly_mul(2, U), neg(U)) == U
        assert poly_add(U, 0) == U
        assert poly_mul(poly_mul(U, Fraction(1, 2)), 2) == U


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
        assert evaluate(poly_add(U, neg(V)), {"u": 1, "v": 1}) == 0


class TestRendering:
    def test_graded_lex_order(self):
        p = poly_add(mono(4, u=7, v=2), mono(1, u=1, v=8), mono(13, u=4, v=5))
        assert str(p) == "u*v^8 + 13*u^4*v^5 + 4*u^7*v^2"

    def test_degree_descending(self):
        p = poly_add(mono(4, u=1, v=2), mono(1, u=1, v=6), mono(6, u=1, v=4))
        assert str(p) == "u*v^6 + 6*u*v^4 + 4*u*v^2"

    def test_negative_and_fraction_coefficients(self):
        p = poly_add(mono(Fraction(-7, 2), u=-1), mono(1, v=1))
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
        assert parse_poly("-u + v") == poly_add(neg(U), V)

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
        result = poly_mul(self.parse_term(), sign)
        while True:
            op = self.accept_op("+", "-")
            if op is None:
                break
            term = self.parse_term()
            result = poly_add(result, term if op == "+" else neg(term))
        kind, value, col = self.peek()
        if kind != "end":
            self.error(f"unexpected {value!r}")
        return result

    def parse_term(self) -> LaurentPoly:
        result = self.parse_factor()
        while self.accept_op("*"):
            result = poly_mul(result, self.parse_factor())
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
        add, mul = poly_add, poly_mul
        assert add(p, q) == add(q, p)
        assert add(add(p, q), r) == add(p, add(q, r))
        assert mul(p, q) == mul(q, p)
        assert mul(mul(p, q), r) == mul(p, mul(q, r))
        assert mul(p, add(q, r)) == add(mul(p, q), mul(p, r))

    @given(polys)
    @settings(max_examples=30)
    def test_identities(self, p):
        assert poly_add(p, LaurentPoly.zero()) == p
        assert poly_mul(p, LaurentPoly.one()) == p
        assert poly_mul(p, LaurentPoly.zero()) == LaurentPoly.zero()

    @given(polys, polys)
    @settings(max_examples=60)
    def test_leibniz_rule(self, p, q):
        for x in ("u", "v"):
            lhs = partial(poly_mul(p, q), x)
            rhs = poly_add(poly_mul(partial(p, x), q), poly_mul(p, partial(q, x)))
            assert lhs == rhs

    @given(polys, polys)
    @settings(max_examples=40)
    def test_evaluate_is_ring_homomorphism(self, p, q):
        point = {"u": Fraction(2), "v": Fraction(-3), "w": Fraction(1, 2)}
        assert evaluate(poly_mul(p, q), point) == evaluate(p, point) * evaluate(q, point)
        assert evaluate(poly_add(p, q), point) == evaluate(p, point) + evaluate(q, point)

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


exact_coefficients = st.one_of(st.integers(-5, 5), coefficients)
term_polys = st.dictionaries(monomials.map(monomial), exact_coefficients, max_size=4).map(
    LaurentPoly)


# -- the term-map renderer, kept as the reference for render_packed --------------


def reference_str(self) -> str:
    """Terms in graded-lex order: total degree descending, then the
    exponent vector (variables sorted by name) ascending."""
    if not self._terms:
        return "0"
    names = sorted(self.variables())
    zeros = [0] * len(names)

    def key(item):
        vec = tuple(map(dict(item[0]).get, names, zeros))
        return -sum(vec), vec

    parts: list[str] = []
    for mono, coeff in sorted(self._terms.items(), key=key):
        factors = []
        for var, e in mono:
            factors.append(var if e == 1 else f"{var}^{e}")
        body = "*".join(factors)
        mag = abs(coeff)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not parts:
            parts.append(text if coeff > 0 else f"-{text}")
        else:
            parts.append(f"+ {text}" if coeff > 0 else f"- {text}")
    return " ".join(parts)


def packed_over(names, p: LaurentPoly) -> dict:
    """p's terms keyed by exponent vectors over `names`, as the engines pack them."""
    return {tuple(dict(mono).get(x, 0) for x in names): c for mono, c in p.terms().items()}


# Letters the packed levels may carry beyond a polynomial's own: a grammar's
# alphabet packs every level over all of its letters.
extra_letters = st.sets(st.sampled_from(["a", "u", "w", "x"]), max_size=2)


@given(term_polys, extra_letters)
@settings(max_examples=200)
def test_render_packed_matches_the_reference(p, extra):
    assert str(p) == reference_str(p)
    for names in (sorted(p.variables()), sorted(p.variables() | extra)):
        assert render_packed(names, packed_over(names, p)) == reference_str(p)


@given(term_polys, extra_letters, st.sampled_from([1, 2, 6, factorial(8)]))
@example(LaurentPoly.zero(), set(), 6)
@example(LaurentPoly.constant(-6), set(), 4)
@example(LaurentPoly.constant(Fraction(-3, 4)), {"u"}, 6)
@example(mono(-1, u=-1), set(), 1)
@example(poly_add(mono(Fraction(7, 3), u=2, v=-1), mono(-5, v=3), 4), {"a"}, factorial(8))
@settings(max_examples=200)
def test_render_packed_divides_as_the_reference(p, extra, divisor):
    # The CLI's `series` prints D^n(x) / n! this way, with no Fraction per int term.
    divided = LaurentPoly({m: Fraction(c, divisor) for m, c in p.terms().items()})
    names = sorted(p.variables() | extra)
    assert render_packed(names, packed_over(names, p), divisor) == reference_str(divided)


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
