"""Truncated formal power series in t with exact coefficients, the
generating series of a grammar (`gen_series`) and the exact ODE engine
(`solve_ode`), each a wrapper over its producer of packed EGF-normal levels
(`gen_levels`, `egf_levels`).  The identity checks built on them live in
`verify`; this module imports nothing above the grammar layer.

Coefficients are exact rationals (int or Fraction) or Laurent polynomials
(for series whose coefficients still carry the letters u, v), mixed freely:
a LaurentPoly adds, multiplies and compares with a scalar, so the series
arithmetic needs no coefficient ring.  Floats are rejected with TypeError.
A series of order N stores the N+1 coefficients of t^0..t^N as plain t-power
coefficients; factorial weights appear only when a series is built from or
compared against exponential generating functions.

Binary operations truncate to the smaller order and never read beyond it.
exp requires a zero constant term.  Truncation orders are nonnegative.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from functools import cache
from math import comb, factorial
from operator import add, sub

from .errors import NonInvertibleConstantTerm, NonZeroConstantTerm, UnknownVariable
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

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, value, order: int) -> TruncatedSeries:
        if order < 0:
            raise ValueError("order must be nonnegative")
        return cls([value] + [0] * order)

    @classmethod
    def zero(cls, order: int) -> TruncatedSeries:
        return cls.constant(0, order)

    @classmethod
    def one(cls, order: int) -> TruncatedSeries:
        return cls.constant(1, order)

    @classmethod
    def t_term(cls, scale, order: int) -> TruncatedSeries:
        """The series scale * t."""
        if order < 1:
            return cls.zero(order)
        return cls([0, scale] + [0] * (order - 1))

    # -- basics ----------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> TruncatedSeries:
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: order + 1])

    def _common(self, other: TruncatedSeries) -> int:
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        return min(self.order, other.order)

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

    # -- linear operations -------------------------------------------------------

    def __add__(self, other) -> TruncatedSeries:
        n = self._common(other)
        return TruncatedSeries(
            [a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])]
        )

    def __sub__(self, other) -> TruncatedSeries:
        n = self._common(other)
        return TruncatedSeries(
            [a - b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])]
        )

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries([-c for c in self.coeffs])

    def differentiate(self) -> TruncatedSeries:
        """d/dt, honest to order N-1."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 truncation")
        return TruncatedSeries([self.coeffs[n] * n for n in range(1, self.order + 1)])

    # -- multiplicative operations -------------------------------------------------

    def __mul__(self, other) -> TruncatedSeries:
        n = self._common(other)
        a, b = self.coeffs, other.coeffs
        out = []
        for m in range(n + 1):
            acc = 0
            for j in range(m + 1):
                acc = acc + a[j] * b[m - j]
            out.append(acc)
        return TruncatedSeries(out)

    def exp(self) -> TruncatedSeries:
        """exp of a series with zero constant term."""
        if self.coeffs[0] != 0:
            raise NonZeroConstantTerm("exp needs constant coefficient 0")
        out = [1]
        for n in range(1, self.order + 1):
            acc = 0
            for j in range(1, n + 1):
                acc = acc + (self.coeffs[j] * j) * out[n - j]
            out.append(acc * Fraction(1, n))
        return TruncatedSeries(out)


# -- packed levels and the generating function of a grammar ----------------------

# A packed polynomial maps exponent vectors to coefficients, as in grammar._derive.
Packed = dict[tuple[int, ...], Scalar]


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
    """y_i' = rhs_i(y), y_i(0) = initial_i, with polynomial right-hand sides.

    A negative exponent of y_i in a right-hand side needs y_i(0) to be a
    single nonzero term (c * monomial, or a nonzero scalar); for any other
    initial value, such as 0 or u+v, only nonnegative exponents work.
    """

    def __init__(self, variables: tuple[str, ...], rhs: Mapping[str, LaurentPoly],
                 initial: Mapping[str, object]):
        if set(rhs) != set(variables) or set(initial) != set(variables):
            raise ValueError("rhs and initial must cover exactly the system variables")
        for v, p in rhs.items():
            extra = p.variables() - set(variables)
            if extra:
                raise UnknownVariable(
                    f"rhs of {v!r} mentions {sorted(extra)} outside the system"
                )
        self.variables = variables
        self.rhs = rhs
        self.initial = initial


def grammar_ode(g: Grammar, initial: Mapping[str, object] | None = None) -> OdeSystem:
    """The analytic system attached to a grammar; by default each letter
    starts at itself, so the solutions are the letter generating functions."""
    if initial is None:
        initial = {x: LaurentPoly.variable(x) for x in g.alphabet}
    return OdeSystem(variables=g.alphabet, rhs=dict(g.rules), initial=dict(initial))


def _accumulate(out: Packed, a: Packed, b: Packed, w: Scalar) -> None:
    """out += w * a * b.  Coefficients and w must be nonzero: a new key stores
    its first product, later products add, and a zero sum deletes the key.
    Two-letter keys are unpacked once per term, without map()."""
    get = out.get
    if len(next(iter(a), ())) == 2:
        for (x, y), ca in a.items():
            cw = ca * w
            for (xb, yb), cb in b.items():
                key, p = (x + xb, y + yb), cw * cb
                if (s := get(key)) is None:
                    out[key] = p
                elif s := s + p:
                    out[key] = s
                else:
                    del out[key]
    else:
        for ka, ca in a.items():
            cw = ca * w
            for kb, cb in b.items():
                key, p = tuple(map(add, ka, kb)), cw * cb
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
    # Adding to the zero polynomial lifts a scalar initial value to a constant.
    initial = {v: LaurentPoly.zero() + _coerce(system.initial[v]) for v in system.variables}
    names = tuple(sorted(set().union(*(p.variables() for p in initial.values()))))
    ys = {v: [_pack(names, p)] for v, p in initial.items()}
    jobs: list[Callable[[int], None]] = []  # job(n) appends entry n of its stream

    def convolution(a: list[Packed], b: list[Packed]) -> list[Packed]:
        out: list[Packed] = []

        def job(n):
            entry: Packed = {}
            for k in range(n + 1):
                _accumulate(entry, a[k], b[n - k], comb(n, k))
            out.append(entry)
        jobs.append(job)
        return out

    def miller(y: list[Packed], e: int) -> list[Packed]:
        (shift, c), = y[0].items()
        out = [{tuple(e * s for s in shift): normalize_scalar(Fraction(c) ** e)}]
        inv = normalize_scalar(Fraction(1, c))  # an int for c = +-1, so no Fraction per k

        def job(n):
            if n:
                entry: Packed = {}
                for k in range(1, n + 1):
                    w = (e + 1) * comb(n - 1, k - 1) - comb(n, k)
                    if w:
                        _accumulate(entry, y[k], out[n - k], w * inv)
                if len(shift) == 2:
                    s0, s1 = shift
                    out.append({(k0 - s0, k1 - s1): cy for (k0, k1), cy in entry.items()})
                else:
                    out.append({tuple(map(sub, k, shift)): cy for k, cy in entry.items()})
        jobs.append(job)
        return out

    @cache
    def stream(mono: Monomial) -> list[Packed]:
        """EGF-normal coefficients of the product of y^e over (y, e) in mono."""
        if not mono:
            return [{(0,) * len(names): 1}] + [{}] * order
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

    rhs = {v: [(stream(mono), c) for mono, c in system.rhs[v].terms().items()]
           for v in system.variables}
    unit = stream(())[0]
    for n in range(order):
        for job in jobs:
            job(n)
        for v, terms in rhs.items():
            ys[v].append({})
            for s, c in terms:
                _accumulate(ys[v][-1], s[n], unit, c)
    return names, ys


def solve_ode(system: OdeSystem, order: int) -> dict[str, TruncatedSeries]:
    """Unique formal solution to the given order: `egf_levels` divided by n!.
    The coefficients are scalars when no initial value is a LaurentPoly, and
    polynomials otherwise."""
    names, ys = egf_levels(system, order)
    sol = {v: _egf(names, ys[v]) for v in system.variables}
    if LaurentPoly in map(type, system.initial.values()):
        return sol
    return {v: TruncatedSeries(p.coefficient(()) for p in y.coeffs) for v, y in sol.items()}


# -- the tree function -------------------------------------------------------------


def tree_function(order: int) -> TruncatedSeries:
    """Sum of n^(n-1) z^n / n! for n >= 1; satisfies T = z*exp(T)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs = [Fraction(0)]
    coeffs.extend(Fraction(n ** (n - 1), factorial(n)) for n in range(1, order + 1))
    return TruncatedSeries(coeffs)
