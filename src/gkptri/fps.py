"""Truncated formal power series in t with exact coefficients, the
generating series of a grammar (`gen_series`) and the exact ODE engine
(`solve_ode`), each a wrapper over its producer of packed EGF-normal levels
(`gen_levels`, and `egf_levels`, whose one product loop adds Kronecker int
keys for every alphabet), and the tree function's EGF-normal integers
(`tree_function`).  The CLI's `series` prints levels and integers, dividing
by n! only as it prints.  The identity checks live in `verify`; this module
imports nothing above the grammar layer.

A TruncatedSeries is a value with no arithmetic: the engines compute on
packed EGF-normal levels, and every identity check in `verify` compares
n! [t^n] coefficients on those levels or on integers, so nothing in the
package adds, multiplies or exponentiates a series.  Its coefficients are
exact rationals (int or Fraction) or Laurent polynomials, mixed freely,
since a LaurentPoly compares and hashes with a scalar; both builders return
`_egf`'s LaurentPolys, constant ones when the initial values carry no
letter (`egf_levels` lifts a scalar one with `LaurentPoly.constant`).
Floats are rejected with TypeError.  A series of order N stores the N+1
coefficients of t^0..t^N as plain t-power coefficients, and `coefficient`
never reads beyond them.  Truncation orders are nonnegative.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm, prod

from .errors import NonInvertibleConstantTerm
from .grammar import Grammar, _derive, _pack, _unpack
from .polyring import LaurentPoly, Monomial, Scalar, normalize_scalar


def _coerce(c):
    """A LaurentPoly stays as it is; anything else must be an exact rational."""
    return c if isinstance(c, LaurentPoly) else normalize_scalar(c)


class TruncatedSeries:
    """Power series in t truncated at a fixed order, exact coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = tuple(map(_coerce, coeffs))
        if not cs:
            raise ValueError("a series needs at least the t^0 coefficient")
        self.coeffs = cs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"TruncatedSeries({self})"

    def __str__(self):
        return ", ".join(str(c) for c in self.coeffs)


# -- packed levels and the generating function of a grammar ----------------------

# A packed polynomial maps exponent vectors to coefficients, as in grammar._derive.
Packed = dict[tuple[int, ...], Scalar]
Keyed = dict[int, Scalar]  # the same on Kronecker int keys, inside `egf_levels`


def _egf(names: tuple[str, ...], levels: list[Packed]) -> TruncatedSeries:
    """Sum of levels[n] t^n / n! for levels packed over `names`: the one place
    where the EGF-normal levels of either engine are divided by n! and unpacked."""
    return TruncatedSeries([_unpack(names, p, factorial(n)) for n, p in enumerate(levels)])


def gen_levels(g: Grammar, x: LaurentPoly, order: int) -> list[Packed]:
    """The levels x, D(x), ..., D^order(x), packed over sorted(g.alphabet)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return list(_derive(g._steps, _pack(sorted(g.alphabet), x), order))


def gen_series(g: Grammar, x: LaurentPoly, order: int) -> TruncatedSeries:
    """Sum of D^n(x) t^n / n! truncated at the given order."""
    return _egf(tuple(sorted(g.alphabet)), gen_levels(g, x, order))


# -- exact ODE solving ------------------------------------------------------------


class OdeSystem:
    """A grammar plus initial values: y_x' = rule(x)(y), y_x(0) = initial[x]
    for each letter x.  `variables` and `rhs` are the grammar's alphabet and
    rules; `initial` covers exactly its letters and may mention any letter.

    A negative exponent of y_x in a right-hand side needs y_x(0) to be a
    single nonzero term (c * monomial, or a nonzero scalar); for any other
    initial value, such as 0 or u+v, only nonnegative exponents work.
    """

    def __init__(self, grammar: Grammar, initial: Mapping[str, object]):
        if set(initial) != set(grammar.alphabet):
            raise ValueError("initial values must cover exactly the grammar's letters")
        self.variables = grammar.alphabet
        self.rhs = grammar.rules
        self.initial = dict(initial)


def grammar_ode(g: Grammar) -> OdeSystem:
    """The analytic system of a grammar with each letter starting at itself,
    so the solutions are the letter generating functions."""
    return OdeSystem(g, {x: LaurentPoly.variable(x) for x in g.alphabet})


def _accumulate(out: Keyed, a: Keyed, b: Keyed, w: Scalar) -> None:
    """out += w * a * b on Kronecker-keyed polynomials, so a product's key is
    ka + kb for every alphabet.  Coefficients and w must be nonzero: a new key
    stores its first product, later products add, and a zero sum deletes it."""
    get = out.get
    for ka, ca in a.items():
        cw = ca * w
        for kb, cb in b.items():
            key, p = ka + kb, cw * cb
            if (s := get(key)) is None:
                out[key] = p
            elif s := s + p:
                out[key] = s
            else:
                del out[key]


def egf_levels(system: OdeSystem,
               order: int) -> tuple[tuple[str, ...], dict[str, list[Packed]]]:
    """The sorted variables of the initial values, and each system variable's
    coefficients Y_0..Y_order of the unique formal solution packed over them.

    The coefficients are in EGF-normal form Y_n = n! y_n, so Y_{n+1} is
    coefficient n of the EGF rhs(Y).  Products are binomial convolutions,
    and each power y^e in a right-hand side is one shared stream; if y_0 is
    a single nonzero term, it follows J.C.P. Miller's recurrence (Knuth,
    TAOCP Vol. 2, 4.7) for either sign of e:

        y_0 P_n = sum_{k=1..n} [(e+1) C(n-1,k-1) - C(n,k)] Y_k P_{n-k}.

    Otherwise (y_0 = 0, u+v, ...) y^e for e >= 2 is the convolution of
    y^(e//2) and y^(e - e//2), so it takes O(log e) streams, and e < 0
    raises NonInvertibleConstantTerm.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    initial = {v: p if isinstance(p := system.initial[v], LaurentPoly) else LaurentPoly.constant(p)
               for v in system.variables}
    names = tuple(sorted(set().union(*(p.variables() for p in initial.values()))))
    # Exponent vectors e over `names` become Kronecker keys sum_i e_i 2^(bits i):
    # a product's key is the sum of its factors' keys, and keys stay distinct
    # while every |e_i| < 2^(bits-1).  With D y_i = rhs_i, n! [t^n] f(y(t)) is
    # (D^n f)(y(0)); D adds at most 1 + l1(rhs) to |e|_1, and y(0) multiplies it by
    # at most l1(initial).  Every stream entry, and Miller's unshifted entry, is a
    # product of such coefficients, so |e|_1 <= (order+1) (1 + l1(rhs)) l1(initial).
    def l1(polys) -> int:  # the largest |e|_1 of a term of any of `polys`
        return max((sum(abs(e) for _, e in m) for p in polys for m in p.terms()), default=0)
    bits = ((order + 1) * (1 + l1(system.rhs.values())) * l1(initial.values())).bit_length() + 1
    # y_x = s_x w_x, s_x the coefficient of a single-term y_x(0) (else 1), so Miller runs on ints.
    scale = {v: c for v, p in initial.items() if len(p) == 1 for c in p.terms().values()}
    ys = {v: [{sum(e << bits * names.index(x) for x, e in m): 1 if v in scale else c
               for m, c in p.terms().items()}] for v, p in initial.items()}
    jobs: list[Callable[[int], None]] = []  # job(n) appends entry n of its stream

    def convolution(a: list[Keyed], b: list[Keyed]) -> list[Keyed]:
        out: list[Keyed] = []

        def job(n):
            entry: Keyed = {}
            for k in range(n + 1):
                _accumulate(entry, a[k], b[n - k], comb(n, k))
            out.append(entry)
        jobs.append(job)
        return out

    def miller(y: list[Keyed], e: int) -> list[Keyed]:
        shift, = y[0]  # with coefficient 1, as y = s w makes it
        out = [{e * shift: 1}]

        def job(n):
            if n:
                entry: Keyed = {}
                for k in range(1, n + 1):
                    w = (e + 1) * comb(n - 1, k - 1) - comb(n, k)
                    if w:
                        _accumulate(entry, y[k], out[n - k], w)
                out.append({k - shift: cy for k, cy in entry.items()})
        jobs.append(job)
        return out

    @cache
    def stream(mono: Monomial) -> list[Keyed]:
        """EGF-normal coefficients of the product of y^e over (y, e) in mono."""
        if not mono:
            return [{0: 1}] + [{}] * order
        if len(mono) > 1:
            return convolution(stream(mono[:-1]), stream(mono[-1:]))
        (x, e), = mono
        if e == 1:
            return ys[x]
        if len(ys[x][0]) == 1:
            return miller(ys[x], e)
        if e < 0:
            raise NonInvertibleConstantTerm(f"constant term {system.initial[x]} is not invertible")
        return convolution(stream(((x, e // 2),)), stream(((x, e - e // 2),)))

    # z(t) = w(d t) solves z' = d rhs(z) for the rules of w, c prod_j s_j^e_j / s_x for w_x; with
    # d their common denominator, rational rules run on ints as well, and Y_n = s_x Z_n / d^n.
    rules = {v: system.rhs[v].terms() for v in system.variables}
    if set(scale.values()) - {1}:
        rules = {v: {m: prod((Fraction(scale.get(x, 1)) ** e for x, e in m), start=Fraction(c))
                     / scale.get(v, 1) for m, c in r.items()} for v, r in rules.items()}
    d = lcm(*(c.denominator for r in rules.values() for c in r.values()))
    rhs = {v: [(stream(m), normalize_scalar(c * d)) for m, c in r.items()]
           for v, r in rules.items()}
    unit = stream(())[0]
    for n in range(order):
        for job in jobs:
            job(n)
        for v, terms in rhs.items():
            ys[v].append({})
            for s, c in terms:
                _accumulate(ys[v][-1], s[n], unit, c)
    jobs.clear()  # frees the streams now, not at the next cycle collection
    stream.cache_clear()
    half, mask, fields = 1 << bits - 1, (1 << bits) - 1, range(0, bits * len(names), bits)
    offset = sum(half << f for f in fields)  # makes every field nonnegative
    return names, {v: [{tuple(((k + offset) >> f & mask) - half for f in fields):
                        c if q == 1 else c * q for k, c in level.items()}
                       for n, level in enumerate(y)
                       for q in [scale.get(v, 1) if d == 1 else Fraction(scale.get(v, 1), d ** n)]]
                   for v, y in ys.items()}


def solve_ode(system: OdeSystem, order: int) -> dict[str, TruncatedSeries]:
    """Unique formal solution to the given order: `_egf` of `egf_levels` for every
    system, so LaurentPolys, constant ones when no initial value carries a letter."""
    names, ys = egf_levels(system, order)
    return {v: _egf(names, ys[v]) for v in system.variables}


# -- the tree function -------------------------------------------------------------


def tree_function(order: int) -> list[int]:
    """t_n = n! [z^n] T for n <= order, T = z exp(T) the tree function: t_0 = 0, t_n = n^(n-1)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return [0, *(n ** (n - 1) for n in range(1, order + 1))]
