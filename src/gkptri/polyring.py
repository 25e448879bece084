"""Exact multivariate Laurent polynomials over the rationals.

A polynomial is stored sparsely as a map from monomials to coefficients.
A monomial is a tuple of (variable, exponent) pairs, sorted by variable
name, with nonzero (possibly negative) integer exponents; the empty tuple
is the monomial 1.  Coefficients are exact rationals, normalised to plain
ints whenever the denominator is 1, so integer-only computations stay on
fast int arithmetic.  The zero polynomial has no terms.

Canonical form is unique: no zero coefficients, no zero exponents, so
structural equality is mathematical equality.  The constructor is the one
place that normalises coefficients and drops zero terms: each ring
operation builds its result's term map and passes it to `LaurentPoly`.
The operators are conveniences at the boundary (parsing, rules, printing,
tests); the engines in `grammar` and `fps` compute on packed levels.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction

from .errors import PolyParseError

# ((variable, exponent), ...) sorted by variable, every exponent nonzero.
Monomial = tuple[tuple[str, int], ...]

Scalar = int | Fraction

EMPTY_MONOMIAL: Monomial = ()


def normalize_scalar(value) -> Scalar:
    """Coerce an exact rational to canonical int-or-Fraction form."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)  # an int subclass such as bool
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def parse_rational(text: str) -> Fraction:
    """An exact rational written as `p`, `p/q` or `1e6`; a zero denominator
    is a ValueError like any other malformed value."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


def monomial(exponents: Mapping[str, int]) -> Monomial:
    """Build a canonical monomial from an exponent map (zeros dropped)."""
    return tuple(sorted((v, e) for v, e in exponents.items() if e != 0))


class LaurentPoly:
    """Immutable sparse Laurent polynomial with rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        data: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                c = coeff if type(coeff) is int else normalize_scalar(coeff)
                if c:
                    data[mono] = c
        self._terms = data

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({EMPTY_MONOMIAL: 1})

    @classmethod
    def constant(cls, value) -> LaurentPoly:
        return cls({EMPTY_MONOMIAL: value})

    @classmethod
    def variable(cls, name: str) -> LaurentPoly:
        if not name:
            raise ValueError("variable name must be nonempty")
        return cls({((name, 1),): 1})

    @classmethod
    def from_exponents(cls, exponents: Mapping[str, int], coeff=1) -> LaurentPoly:
        """Single-term polynomial coeff * prod(var**exp)."""
        return cls({monomial(exponents): coeff})

    # -- inspection --------------------------------------------------------

    def terms(self) -> dict[Monomial, Scalar]:
        return dict(self._terms)

    def coefficient(self, mono: Monomial) -> Scalar:
        return self._terms.get(mono, 0)

    def variables(self) -> frozenset[str]:
        return frozenset(v for mono in self._terms for v, _ in mono)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly({EMPTY_MONOMIAL: other})
        return None

    def __add__(self, other) -> LaurentPoly:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out = dict(self._terms)
        for mono, coeff in q._terms.items():
            out[mono] = out.get(mono, 0) + coeff
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return self * -1

    def __sub__(self, other) -> LaurentPoly:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other) -> LaurentPoly:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other) -> LaurentPoly:
        if isinstance(other, (int, Fraction)):
            return LaurentPoly({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[Monomial, Scalar] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                exps = dict(m1)
                for var, e in m2:
                    exps[var] = exps.get(var, 0) + e
                mono = monomial(exps)
                out[mono] = out.get(mono, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
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

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    # -- equality ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self._terms == q._terms

    def __hash__(self) -> int:
        # Constants (and zero) compare equal to their scalar, so hash as it.
        if not self._terms.keys() - {EMPTY_MONOMIAL}:
            return hash(self._terms.get(EMPTY_MONOMIAL, 0))
        return hash(frozenset(self._terms.items()))


# -- parsing -----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")


def parse_poly(text: str, line: int = 1) -> LaurentPoly:
    """Parse polynomial text: `^` integer exponents, `*` products,
    integer or p/q coefficients, `+`/`-` sums.

    The language has no nesting, so one left-to-right pass over the tokens
    reads it, building each term as a coefficient and an exponent map and
    summing the terms into one map, which the constructor then normalises."""
    tokens, pos = [], 0
    while m := _TOKEN.match(text, pos):
        group = m.lastindex  # 1 a number, 2 a name, 3 an operator, its own kind
        tokens.append((("num", "name", m[3])[group - 1], m[group], m.start(group) + 1))
        pos = m.end()
    rest = text[pos:].lstrip()
    if rest:
        raise PolyParseError(f"unexpected character {rest[0]!r}", line, len(text) - len(rest) + 1)
    tokens.append(("end", "", len(text) + 1))
    tokens.reverse()  # tokens[-1] is the next token; the end token is never taken

    def take(message: str, *kinds: str) -> tuple[str, str, int]:
        if tokens[-1][0] not in kinds:
            raise PolyParseError(message, line, tokens[-1][2])
        return tokens.pop()

    def accept(*ops: str) -> str | None:
        return tokens.pop()[0] if tokens[-1][0] in ops else None

    terms: dict[Monomial, Scalar] = {}
    coeff, exponents = -1 if accept("-", "+") == "-" else 1, {}
    while True:
        kind, value, _ = take("expected a number or variable", "num", "name")
        if kind == "num":
            factor = int(value)
            if accept("/"):
                _, den, col = take("expected denominator after '/'", "num")
                if not int(den):
                    raise PolyParseError("zero denominator", line, col)
                factor = Fraction(factor, int(den))
            coeff *= factor
        else:
            exponent = 1
            if accept("^"):
                sign = -1 if accept("-") else 1
                exponent = sign * int(take("expected integer exponent after '^'", "num")[1])
            exponents[value] = exponents.get(value, 0) + exponent
        op = accept("*", "+", "-")
        if op != "*":
            mono = monomial(exponents)
            terms[mono] = terms.get(mono, 0) + coeff
            if op is None:
                break
            coeff, exponents = -1 if op == "-" else 1, {}
    kind, value, col = tokens[-1]
    if kind != "end":
        raise PolyParseError(f"unexpected {value!r}", line, col)
    return LaurentPoly(terms)
