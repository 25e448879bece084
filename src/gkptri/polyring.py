"""Exact multivariate Laurent polynomials over the rationals.

A polynomial is stored sparsely as a map from monomials to coefficients.
A monomial is a tuple of (variable, exponent) pairs, sorted by variable
name, with nonzero (possibly negative) integer exponents; the empty tuple
is the monomial 1.  Coefficients are exact rationals, normalised to plain
ints whenever the denominator is 1, so integer-only computations stay on
fast int arithmetic.  The zero polynomial has no terms.

Canonical form is unique: no zero coefficients, no zero exponents, so
structural equality is mathematical equality.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from fractions import Fraction

from .errors import (
    MissingVariable,
    NonInvertibleElement,
    PolyParseError,
    ZeroToNegativePower,
)

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
        return value
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


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for var, e in b:
        ne = exps.get(var, 0) + e
        if ne:
            exps[var] = ne
        else:
            del exps[var]
    return tuple(sorted(exps.items()))


class LaurentPoly:
    """Immutable sparse Laurent polynomial with rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        data: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                c = normalize_scalar(coeff)
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

    def is_zero(self) -> bool:
        return not self._terms

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
            s = out.get(mono, 0) + coeff
            if s:
                out[mono] = normalize_scalar(s)
            else:
                out.pop(mono, None)
        result = LaurentPoly.__new__(LaurentPoly)
        result._terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        result = LaurentPoly.__new__(LaurentPoly)
        result._terms = {m: -c for m, c in self._terms.items()}
        return result

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
            if not other:
                return LaurentPoly()
            result = LaurentPoly.__new__(LaurentPoly)
            result._terms = {
                m: normalize_scalar(c * other) for m, c in self._terms.items()
            }
            return result
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[Monomial, Scalar] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = monomial_mul(m1, m2)
                s = out.get(mono, 0) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        result = LaurentPoly.__new__(LaurentPoly)
        result._terms = {m: normalize_scalar(c) for m, c in out.items()}
        return result

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def inv(self) -> LaurentPoly:
        """Multiplicative inverse; only single-term polynomials have one."""
        if len(self._terms) != 1:
            raise NonInvertibleElement(
                f"not invertible in the Laurent ring: {self}"
            )
        (mono, coeff), = self._terms.items()
        inv_mono = tuple((v, -e) for v, e in mono)
        return LaurentPoly({inv_mono: Fraction(1, 1) / coeff})

    # -- calculus and evaluation --------------------------------------------

    def partial(self, var: str) -> LaurentPoly:
        """Formal partial derivative (Laurent power rule, exponents may be
        negative)."""
        out: dict[Monomial, Scalar] = {}
        for mono, coeff in self._terms.items():
            for i, (v, e) in enumerate(mono):
                if v == var:
                    rest = mono[:i] + (((v, e - 1),) if e != 1 else ()) + mono[i + 1:]
                    # d/dx is injective on monomials containing x: no merging,
                    # and dropping/decrementing one exponent keeps sort order.
                    out[rest] = normalize_scalar(coeff * e)
                    break
        result = LaurentPoly.__new__(LaurentPoly)
        result._terms = out
        return result

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a rational point.

        Every variable of the polynomial must be assigned, and variables
        with negative exponents must get nonzero values.
        """
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            value = Fraction(coeff)
            for var, e in mono:
                if var not in assignment:
                    raise MissingVariable(f"no value for variable {var!r}")
                x = Fraction(assignment[var])
                if x == 0 and e < 0:
                    raise ZeroToNegativePower(
                        f"variable {var!r} is 0 but appears with exponent {e}"
                    )
                value *= x ** e
            total += value
        return total

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
    reads it, building each term as a coefficient and an exponent map."""
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

    result = LaurentPoly.zero()
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
            result = result + LaurentPoly.from_exponents(exponents, coeff)
            if op is None:
                break
            coeff, exponents = -1 if op == "-" else 1, {}
    kind, value, col = tokens[-1]
    if kind != "end":
        raise PolyParseError(f"unexpected {value!r}", line, col)
    return result
