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

Derivation packs monomials as exponent vectors over the grammar's ordered
alphabet (Monagan & Pearce, ISSAC 2009) and precomputes each rule(x) d/dx as
(exponent shift, coefficient) pairs.  One level of D is one fused pass: a
term c*m whose letter x has exponent e adds c*e*r at m + s - x for each term
r*s of rule(x), with no partial, product or sum temporaries.  `LaurentPoly`
appears only at the boundary.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from operator import add

from .errors import NonTriangularExpansion, UnknownVariable
from .polyring import LaurentPoly, Scalar, monomial, parse_poly
from .triangles import Triangle, TriangleParams


class Grammar:
    """Immutable map from alphabet letters to replacement polynomials."""

    __slots__ = ("alphabet", "rules", "_steps")

    def __init__(self, rules: Mapping[str, LaurentPoly],
                 alphabet: tuple[str, ...] | None = None):
        if alphabet is None:
            alphabet = tuple(rules.keys())
        if set(alphabet) != set(rules.keys()):
            raise ValueError("alphabet and rule keys must coincide")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet letters must be distinct")
        self.alphabet = tuple(alphabet)
        self.rules = {x: rules[x] for x in alphabet}
        # rule(x) d/dx as (index of x, exponent shift, coefficient) triples
        self._steps = [(i, tuple(e - (j == i) for j, e in enumerate(vec)), rc)
                       for i, x in enumerate(self.alphabet)
                       for vec, rc in _pack(self.alphabet, rules[x], f"rule for {x!r}").items()]

    @classmethod
    def from_text(cls, text: str) -> Grammar:
        """Parse one `letter -> polynomial` rule per line; blank lines and
        `#` comments are skipped."""
        rules: dict[str, LaurentPoly] = {}
        order: list[str] = []
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
            order.append(letter)
        if not rules:
            raise ValueError("no rules found")
        return cls(rules, tuple(order))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grammar):
            return NotImplemented
        return self.alphabet == other.alphabet and self.rules == other.rules

    def __hash__(self) -> int:
        return hash((self.alphabet, tuple(self.rules[x] for x in self.alphabet)))

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


def _unpack(alphabet, packed: Mapping[tuple[int, ...], Scalar]) -> LaurentPoly:
    return LaurentPoly({monomial(dict(zip(alphabet, vec))): c for vec, c in packed.items()})


def _derive(g: Grammar, seed: LaurentPoly, n: int) -> Iterator[dict[tuple[int, ...], Scalar]]:
    """Yield the packed levels seed, D(seed), ..., D^n(seed); callers must
    not change a yielded level, the next one is computed from it."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    level = _pack(g.alphabet, seed)
    yield level
    steps = g._steps
    for _ in range(n):
        out: dict[tuple[int, ...], Scalar] = {}
        get = out.get
        for vec, c in level.items():
            for i, shift, rc in steps:
                e = vec[i]
                if e:
                    key = tuple(map(add, vec, shift))
                    s = get(key, 0) + c * e * rc
                    if s:
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
    return [_unpack(g.alphabet, level) for level in _derive(g, seed, n)]


def hao_grammar(p: TriangleParams) -> Grammar:
    """The two-letter grammar whose derivation iterates carry the triangle."""
    p.require_integral()
    u_rule = LaurentPoly.from_exponents({"u": p.b1 + p.b2 + 1, "v": p.a1 + p.a2})
    v_rule = LaurentPoly.from_exponents({"u": p.b2, "v": p.a2 + 1})
    return Grammar({"u": u_rule, "v": v_rule}, ("u", "v"))


def hao_seed(p: TriangleParams) -> LaurentPoly:
    """The monomial whose n-th derivative expands over row n."""
    p.require_integral()
    return LaurentPoly.from_exponents({"u": p.b0 + p.b1 + p.b2, "v": p.a0 + p.a2})


def extract_triangle(p: TriangleParams, n_max: int) -> Triangle:
    """Read rows 0..n_max off the iterated derivatives of the seed monomial.

    Raises NonTriangularExpansion when distinct k would land on the same
    monomial (a1 = b1 = 0) or when an iterate contains a monomial outside
    the expected lattice.
    """
    p.require_integral()
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max >= 1 and p.a1 == 0 and p.b1 == 0:
        raise NonTriangularExpansion(
            "a1 = b1 = 0: every column lands on the same monomial"
        )
    g = hao_grammar(p)
    rows: list[list[Scalar]] = []
    for n, level in enumerate(_derive(g, hao_seed(p), n_max)):
        u, v = p.b2 * n + p.b0 + p.b1 + p.b2, p.a2 * n + p.a0 + p.a2
        row = [level.get((u + p.b1 * k, v + p.a1 * k), 0) for k in range(n + 1)]
        if len(level) + row.count(0) > n + 1:
            raise NonTriangularExpansion(
                f"D^{n} = {_unpack(g.alphabet, level)} has monomials off the row-{n} lattice"
            )
        rows.append(row)
    return Triangle(params=p, rows=rows, family=None)


def type_e_check(g: Grammar, z: str) -> bool:
    """True iff the rule of z is z times a polynomial in the other letters
    and no other rule mentions z."""
    if z not in g.rules:
        raise UnknownVariable(f"{z!r} is not in the alphabet")
    for letter, rhs in g.rules.items():
        if letter != z and z in rhs.variables():
            return False
    for mono, _coeff in g.rules[z].terms().items():
        if dict(mono).get(z, 0) != 1:
            return False
    return True
