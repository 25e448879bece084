"""Context-free grammars on a finite alphabet and their derivation operator.

A grammar maps each letter to a Laurent polynomial in the alphabet; the
induced operator is D = sum_x rule(x) d/dx, a derivation on the polynomial
ring.  For the two-letter grammar

    u -> u^(b1+b2+1) v^(a1+a2)
    v -> u^(b2) v^(a2+1)

the iterates D^n applied to u^(b0+b1+b2) v^(a0+a2) carry the triangle of the
recurrence with coefficients (a2*n + a1*k + a0) and (b2*n + b1*k + b0) in
their exponents: T(n,k) sits on the monomial

    u^(b2*n + b1*k + b0+b1+b2) * v^(a2*n + a1*k + a0+a2).

`extract_triangle` reads rows back from that lattice and refuses to guess
when the lattice degenerates (a1 = b1 = 0 makes all k collide).

Derivation packs monomials as exponent vectors over the grammar's sorted
alphabet (Monagan & Pearce, ISSAC 2009) and precomputes each rule(x) d/dx as
(exponent shift, coefficient) pairs.  One level of D is one fused pass: a
term c*m whose letter x has exponent e adds c*(e*r) at m + s - x for each
term r*s of rule(x).  A new key stores its first product, later products
add, and a zero sum deletes the key, so coefficients must be nonzero;
two-letter keys are unpacked once per term.  `LaurentPoly` appears only at
the boundary, and `extract_triangle` builds its steps from the six-tuple.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from fractions import Fraction
from operator import add, itemgetter

from .errors import NonTriangularExpansion, UnknownVariable
from .polyring import LaurentPoly, Scalar, parse_poly, render_packed
from .triangles import Triangle, TriangleParams


class Grammar:
    """Immutable map from letters to replacement polynomials.  The alphabet
    is the rules' letters in the order given; a rule that mentions a letter
    outside it raises UnknownVariable, the one check of rule letters."""

    __slots__ = ("alphabet", "rules", "_steps")

    def __init__(self, rules: Mapping[str, LaurentPoly]):
        self.alphabet = tuple(rules)
        self.rules = dict(rules)
        # rule(x) d/dx as (index of x, exponent shift, coefficient) triples over
        # the sorted letters, which the packed levels of `fps` share
        names = sorted(self.alphabet)
        self._steps = [(names.index(x), tuple(e - (y == x) for y, e in zip(names, vec)), rc)
                       for x in self.alphabet
                       for vec, rc in _pack(names, rules[x], f"rule for {x!r}").items()]

    @classmethod
    def from_text(cls, text: str) -> Grammar:
        """Parse one `letter -> polynomial` rule per line, the alphabet in
        line order; blank lines and `#` comments are skipped."""
        rules: dict[str, LaurentPoly] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0]
            if not line.strip():
                continue
            if "->" not in line:
                raise ValueError(f"line {lineno}: expected 'letter -> polynomial'")
            left, right = line.split("->", 1)
            letter = left.strip()
            if not letter.isidentifier():
                raise ValueError(f"line {lineno}: bad letter {letter!r}")
            if letter in rules:
                raise ValueError(f"line {lineno}: duplicate rule for {letter!r}")
            rules[letter] = parse_poly(right, line=lineno)
        if not rules:
            raise ValueError("no rules found")
        return cls(rules)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grammar):
            return NotImplemented
        return self.alphabet == other.alphabet and self.rules == other.rules

    def __str__(self) -> str:
        return "\n".join(f"{x} -> {self.rules[x]}" for x in self.alphabet)

    def __repr__(self) -> str:
        body = "; ".join(f"{x} -> {self.rules[x]}" for x in self.alphabet)
        return f"Grammar({body})"


def _pack(alphabet, p: LaurentPoly, what="polynomial") -> dict[tuple[int, ...], Scalar]:
    extra = p.variables() - set(alphabet)
    if extra:
        raise UnknownVariable(f"{what} mentions {sorted(extra)} outside the alphabet")
    zeros = [0] * len(alphabet)
    return {tuple(map(dict(mono).get, alphabet, zeros)): c for mono, c in p.terms().items()}


def _unpack(alphabet, packed: Mapping[tuple[int, ...], Scalar], divisor: int = 1) -> LaurentPoly:
    """The packed polynomial with every coefficient divided by `divisor`;
    `alphabet` must be sorted, as canonical monomials are."""
    if divisor != 1:
        packed = {vec: Fraction(c, divisor) for vec, c in packed.items()}
    return LaurentPoly({tuple(filter(itemgetter(1), zip(alphabet, vec))): c
                        for vec, c in packed.items()})


def _derive(steps, level: dict[tuple[int, ...], Scalar], n: int) -> Iterator[dict]:
    """Yield the packed levels seed, D(seed), ..., D^n(seed) for `steps` as in
    `Grammar._steps` and the packed seed `level`; callers must not change a
    yielded level, the next one is computed from it.  Coefficients must be
    nonzero: a new key stores its first product, later products add, and a
    zero sum deletes the key.  Two-letter keys are unpacked once per term."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    yield level
    pairs = len(next(iter(level), ())) == 2  # not from the steps: there may be none
    flat = [(not i, s0, s1, rc) for i, (s0, s1), rc in steps] if pairs else []
    for _ in range(n):
        out: dict[tuple[int, ...], Scalar] = {}
        get = out.get
        if pairs:
            for (x, y), c in level.items():
                for is_u, s0, s1, rc in flat:
                    if e := (x if is_u else y):
                        key, p = (x + s0, y + s1), c * (e * rc)
                        if (s := get(key)) is None:
                            out[key] = p
                        elif s := s + p:
                            out[key] = s
                        else:
                            del out[key]
        else:
            for vec, c in level.items():
                for i, shift, rc in steps:
                    if e := vec[i]:
                        key, p = tuple(map(add, vec, shift)), c * (e * rc)
                        if (s := get(key)) is None:
                            out[key] = p
                        elif s := s + p:
                            out[key] = s
                        else:
                            del out[key]
        level = out
        yield level


def apply_D(g: Grammar, p: LaurentPoly) -> LaurentPoly:
    """One derivation step: sum over letters of rule(x) * dp/dx."""
    return iterate_D(g, p, 1)[1]


def iterate_D(g: Grammar, seed: LaurentPoly, n: int) -> list[LaurentPoly]:
    """[seed, D(seed), ..., D^n(seed)]."""
    names = sorted(g.alphabet)
    return [_unpack(names, level) for level in _derive(g._steps, _pack(names, seed), n)]


def hao_grammar(p: TriangleParams) -> Grammar:
    """The two-letter grammar whose derivation iterates carry the triangle."""
    p.require_integral()
    u_rule = LaurentPoly.from_exponents({"u": p.b1 + p.b2 + 1, "v": p.a1 + p.a2})
    v_rule = LaurentPoly.from_exponents({"u": p.b2, "v": p.a2 + 1})
    return Grammar({"u": u_rule, "v": v_rule})


def hao_seed(p: TriangleParams) -> LaurentPoly:
    """The monomial whose n-th derivative expands over row n."""
    p.require_integral()
    return LaurentPoly.from_exponents({"u": p.b0 + p.b1 + p.b2, "v": p.a0 + p.a2})


def extract_triangle(p: TriangleParams, n_max: int) -> Triangle:
    """Read rows 0..n_max off the iterated derivatives of the seed monomial,
    deriving with the steps and packed seed of `hao_grammar(p)` and
    `hao_seed(p)` built straight from the six-tuple.

    Raises NonTriangularExpansion when distinct k would land on the same
    monomial (a1 = b1 = 0) or when an iterate contains a monomial outside
    the expected lattice.
    """
    p.require_integral()
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    a0, a1, a2, b0, b1, b2 = p.as_tuple()
    if n_max >= 1 and a1 == 0 and b1 == 0:
        raise NonTriangularExpansion(
            "a1 = b1 = 0: every column lands on the same monomial"
        )
    steps = [(0, (b1 + b2, a1 + a2), 1), (1, (b2, a2), 1)]
    rows: list[list[Scalar]] = []
    for n, level in enumerate(_derive(steps, {(b0 + b1 + b2, a0 + a2): 1}, n_max)):
        u, v = b2 * n + b0 + b1 + b2, a2 * n + a0 + a2
        row: list[Scalar] = [0] * (n + 1)
        for (x, y), c in level.items():
            k = (x - u) // b1 if b1 else (y - v) // (a1 or 1)  # a1 = b1 = 0 needs n = 0
            if not 0 <= k <= n or x != u + b1 * k or y != v + a1 * k:
                raise NonTriangularExpansion(
                    f"D^{n} = {render_packed(('u', 'v'), level)} has monomials"
                    f" off the row-{n} lattice"
                )
            row[k] = c
        rows.append(row)
    return Triangle(params=p, rows=rows, family=None)
