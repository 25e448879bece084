"""Exact multivariate Laurent polynomials over the rationals.

A polynomial is stored sparsely as a map from monomials to coefficients.
A monomial is a tuple of (variable, exponent) pairs, sorted by variable
name, with nonzero (possibly negative) integer exponents; the empty tuple
is the monomial 1.  Coefficients are exact rationals, normalised to plain
ints whenever the denominator is 1, so integer-only computations stay on
fast int arithmetic.  The zero polynomial, `LaurentPoly()`, has no terms.

Canonical form is unique: no zero coefficients, no zero exponents, so
structural equality is mathematical equality.  The constructor is the one
place that normalises coefficients and drops zero terms, and it raises
ValueError on a monomial key that `monomial` would not return.  A
LaurentPoly is built, parsed, printed, compared and hashed, with no `+`,
`-` or `*`: the engines in `grammar` and `fps` compute on packed levels,
and a caller that sums terms builds one term map; a constant equals and
hashes as its scalar.  One renderer, `render_packed`, prints a packed
level, each coefficient divided by an optional divisor:
`LaurentPoly.__str__` packs and calls it, and the CLI prints the engines'
levels and the tree function's integers with it directly.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from math import gcd

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
                if mono != monomial(dict(mono)):
                    raise ValueError(f"monomial {mono!r} is not in canonical form")
                c = coeff if type(coeff) is int else normalize_scalar(coeff)
                if c:
                    data[mono] = c
        self._terms = data

    # -- construction ------------------------------------------------------

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

    def variables(self) -> frozenset[str]:
        return frozenset(v for mono in self._terms for v, _ in mono)

    def __len__(self) -> int:
        return len(self._terms)

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        """`render_packed` over the sorted letters."""
        names = sorted(self.variables())
        zeros = [0] * len(names)
        return render_packed(names, {tuple(map(dict(mono).get, names, zeros)): c
                                     for mono, c in self._terms.items()})

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    # -- equality ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self._terms == ({EMPTY_MONOMIAL: other} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # Constants (and zero) compare equal to their scalar, so hash as it.
        if not self._terms.keys() - {EMPTY_MONOMIAL}:
            return hash(self._terms.get(EMPTY_MONOMIAL, 0))
        return hash(frozenset(self._terms.items()))


def render_packed(names, packed: Mapping[tuple[int, ...], Scalar], divisor: int = 1) -> str:
    """The one polynomial renderer: the terms of a polynomial packed as exponent
    vectors over the sorted `names`, each coefficient divided by `divisor`, in
    graded-lex order (total degree descending, then the vector ascending)."""
    parts: list[str] = []
    for vec in sorted(packed, key=lambda vec: (-sum(vec), vec)):
        c = packed[vec]
        if type(c) is int:
            g = gcd(c, divisor)
            num, den = (c, divisor) if g == 1 else (c // g, divisor // g)
        else:
            q = Fraction(c, divisor)
            num, den = q.numerator, q.denominator
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        body = "*".join(x if e == 1 else f"{x}^{e}" for x, e in zip(names, vec) if e)
        text = f"{mag}*{body}" if body and mag != "1" else body or mag
        if parts:
            parts.append(f"- {text}" if num < 0 else f"+ {text}")
        else:
            parts.append(f"-{text}" if num < 0 else text)
    return " ".join(parts) or "0"


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
