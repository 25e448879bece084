"""Truncated formal power series in t with exact coefficients, the
generating series of a grammar (`gen_series`) and the exact ODE engine
(`solve_ode`).  The identity checks built on them live in `verify`; this
module imports nothing above the grammar layer.

Coefficients live either in the rationals or in the Laurent-polynomial ring
(for series whose coefficients still carry the letters u, v).  A series of
order N stores the N+1 coefficients of t^0..t^N as plain t-power
coefficients; factorial weights appear only when a series is built from or
compared against exponential generating functions.

Binary operations truncate to the smaller order and never read beyond it.
exp requires a zero constant term and inversion an invertible constant term
(for polynomial coefficients that means a single monomial).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial
from operator import add, sub
from typing import Any, Callable, Iterable, Mapping

from .errors import (
    NonInvertibleConstantTerm,
    NonInvertibleElement,
    NonZeroConstantTerm,
    UnknownVariable,
)
from .grammar import Grammar, _derive, _pack, _unpack
from .polyring import LaurentPoly, Monomial, Scalar, normalize_scalar


@dataclass(frozen=True)
class CoefficientRing:
    """Just enough ring structure for series arithmetic."""

    name: str
    zero: Any
    one: Any
    coerce: Callable[[Any], Any]
    invert: Callable[[Any], Any]

    def __repr__(self):
        return f"CoefficientRing({self.name})"


def _invert_rational(c):
    if c == 0:
        raise NonInvertibleConstantTerm("constant term 0 is not invertible")
    return normalize_scalar(Fraction(1, 1) / c)


def _invert_poly(c: LaurentPoly):
    try:
        return c.inv()
    except NonInvertibleElement as exc:
        raise NonInvertibleConstantTerm(str(exc)) from exc


def _coerce_poly(c):
    if isinstance(c, LaurentPoly):
        return c
    return LaurentPoly.constant(c)


RATIONALS = CoefficientRing("rationals", 0, 1, normalize_scalar, _invert_rational)
LAURENT = CoefficientRing(
    "laurent", LaurentPoly.zero(), LaurentPoly.one(), _coerce_poly, _invert_poly
)


class TruncatedSeries:
    """Power series in t truncated at a fixed order, exact coefficients."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CoefficientRing, coeffs: Iterable):
        cs = tuple(ring.coerce(c) for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least the t^0 coefficient")
        self.ring = ring
        self.coeffs = cs

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, ring: CoefficientRing, value, order: int) -> TruncatedSeries:
        return cls(ring, [value] + [ring.zero] * order)

    @classmethod
    def zero(cls, ring: CoefficientRing, order: int) -> TruncatedSeries:
        return cls.constant(ring, ring.zero, order)

    @classmethod
    def one(cls, ring: CoefficientRing, order: int) -> TruncatedSeries:
        return cls.constant(ring, ring.one, order)

    @classmethod
    def t_term(cls, ring: CoefficientRing, scale, order: int) -> TruncatedSeries:
        """The series scale * t."""
        if order < 1:
            return cls.zero(ring, order)
        return cls(ring, [ring.zero, scale] + [ring.zero] * (order - 1))

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
        return TruncatedSeries(self.ring, self.coeffs[: order + 1])

    def _common(self, other: TruncatedSeries) -> int:
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        if other.ring is not self.ring:
            raise ValueError(f"ring mismatch: {self.ring.name} vs {other.ring.name}")
        return min(self.order, other.order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.ring is other.ring and len(self.coeffs) == len(other.coeffs)
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))

    def __hash__(self):
        return hash((self.ring.name, self.coeffs))

    def first_difference(self, other: TruncatedSeries) -> int | None:
        """Smallest n where the coefficients differ, or None if equal up to
        the common order."""
        for n in range(self._common(other) + 1):
            if self.coeffs[n] != other.coeffs[n]:
                return n
        return None

    def __repr__(self):
        return f"TruncatedSeries({self.ring.name}; {', '.join(str(c) for c in self.coeffs)})"

    def __str__(self):
        return ", ".join(str(c) for c in self.coeffs)

    # -- linear operations -------------------------------------------------------

    def __add__(self, other) -> TruncatedSeries:
        n = self._common(other)
        return TruncatedSeries(
            self.ring, [a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])]
        )

    def __sub__(self, other) -> TruncatedSeries:
        n = self._common(other)
        return TruncatedSeries(
            self.ring, [a - b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])]
        )

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries(self.ring, [-c for c in self.coeffs])

    def scalar_mul(self, s) -> TruncatedSeries:
        return TruncatedSeries(self.ring, [c * s for c in self.coeffs])

    def differentiate(self) -> TruncatedSeries:
        """d/dt, honest to order N-1."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 truncation")
        return TruncatedSeries(
            self.ring, [self.coeffs[n] * n for n in range(1, self.order + 1)]
        )

    # -- multiplicative operations -------------------------------------------------

    def __mul__(self, other) -> TruncatedSeries:
        n = self._common(other)
        a, b = self.coeffs, other.coeffs
        out = []
        for m in range(n + 1):
            acc = self.ring.zero
            for j in range(m + 1):
                acc = acc + a[j] * b[m - j]
            out.append(acc)
        return TruncatedSeries(self.ring, out)

    def inverse(self) -> TruncatedSeries:
        """Multiplicative inverse; the constant term must be invertible."""
        c0 = self.ring.invert(self.coeffs[0])
        out = [c0]
        for n in range(1, self.order + 1):
            acc = self.ring.zero
            for j in range(1, n + 1):
                acc = acc + self.coeffs[j] * out[n - j]
            out.append(-(c0 * acc))
        return TruncatedSeries(self.ring, out)

    def pow_int(self, k: int) -> TruncatedSeries:
        if k < 0:
            return self.inverse().pow_int(-k)
        result = TruncatedSeries.one(self.ring, self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def exp(self) -> TruncatedSeries:
        """exp of a series with zero constant term."""
        if self.coeffs[0] != self.ring.zero:
            raise NonZeroConstantTerm("exp needs constant coefficient 0")
        out = [self.ring.one]
        for n in range(1, self.order + 1):
            acc = self.ring.zero
            for j in range(1, n + 1):
                acc = acc + (self.coeffs[j] * j) * out[n - j]
            out.append(acc * Fraction(1, n))
        return TruncatedSeries(self.ring, out)

    # -- coefficient transforms ---------------------------------------------------

    def map_coefficients(self, fn, ring: CoefficientRing | None = None) -> TruncatedSeries:
        return TruncatedSeries(ring or self.ring, [fn(c) for c in self.coeffs])


def exp_t(scale, order: int, ring: CoefficientRing = RATIONALS) -> TruncatedSeries:
    """The series exp(scale * t)."""
    return TruncatedSeries.t_term(ring, scale, order).exp()


# -- generating function of a grammar -------------------------------------------


def gen_series(g: Grammar, x: LaurentPoly, order: int) -> TruncatedSeries:
    """Sum of D^n(x) t^n / n! truncated at the given order."""
    levels = enumerate(_derive(g._steps, _pack(g.alphabet, x), order))
    return TruncatedSeries(LAURENT, [_unpack(g.alphabet, p, factorial(n)) for n, p in levels])


# -- exact ODE solving ------------------------------------------------------------


@dataclass(frozen=True)
class OdeSystem:
    """y_i' = rhs_i(y), y_i(0) = initial_i, with polynomial right-hand sides.

    A negative exponent of y_i in a right-hand side needs y_i(0) to be a
    single nonzero term (c * monomial, or a nonzero scalar); for any other
    initial value, such as 0 or u+v, only nonnegative exponents work.
    """

    variables: tuple[str, ...]
    rhs: Mapping[str, LaurentPoly]
    initial: Mapping[str, Any]

    def __post_init__(self):
        if set(self.rhs) != set(self.variables) or set(self.initial) != set(self.variables):
            raise ValueError("rhs and initial must cover exactly the system variables")
        for v, p in self.rhs.items():
            extra = p.variables() - set(self.variables)
            if extra:
                raise UnknownVariable(
                    f"rhs of {v!r} mentions {sorted(extra)} outside the system"
                )


def grammar_ode(g: Grammar, initial: Mapping[str, Any] | None = None) -> OdeSystem:
    """The analytic system attached to a grammar; by default each letter
    starts at itself, so the solutions are the letter generating functions."""
    if initial is None:
        initial = {x: LaurentPoly.variable(x) for x in g.alphabet}
    return OdeSystem(variables=g.alphabet, rhs=dict(g.rules), initial=dict(initial))


# A packed polynomial maps exponent vectors to coefficients, as in grammar._derive.
Packed = dict[tuple[int, ...], Scalar]


def _add_scaled(out: Packed, a: Packed, w: Scalar) -> None:
    """out += w * a."""
    get = out.get
    for k, c in a.items():
        s = get(k, 0) + w * c
        if s:
            out[k] = s
        else:
            del out[k]


def _accumulate(out: Packed, a: Packed, b: Packed, w: Scalar) -> None:
    """out += w * a * b."""
    get = out.get
    for ka, ca in a.items():
        cw = ca * w
        for kb, cb in b.items():
            key = tuple(map(add, ka, kb))
            s = get(key, 0) + cw * cb
            if s:
                out[key] = s
            else:
                del out[key]


def solve_ode(system: OdeSystem, order: int) -> dict[str, TruncatedSeries]:
    """Unique formal solution to the given order.

    Coefficients are packed over the sorted variables of the initial values
    in EGF-normal form Y_n = n! y_n, so Y_{n+1} is coefficient n of the EGF
    rhs(Y).  Products are binomial convolutions, and each power y^e in a
    right-hand side is one shared stream; if y_0 is a single nonzero term,
    it follows J.C.P. Miller's recurrence (Knuth, TAOCP Vol. 2, 4.7) for
    either sign of e:

        y_0 P_n = sum_{k=1..n} [(e+1) C(n-1,k-1) - C(n,k)] Y_k P_{n-k}.

    Otherwise (y_0 = 0, u+v, ...) y^e is a chain of convolutions for e >= 2,
    and e < 0 raises NonInvertibleConstantTerm.
    """
    ring = LAURENT if LaurentPoly in map(type, system.initial.values()) else RATIONALS
    initial = {v: _coerce_poly(ring.coerce(system.initial[v])) for v in system.variables}
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
        return convolution(stream(((x, e - 1),)), ys[x])

    rhs = {v: [(stream(mono), c) for mono, c in system.rhs[v].terms().items()]
           for v in system.variables}
    for n in range(order):
        for job in jobs:
            job(n)
        for v, terms in rhs.items():
            ys[v].append({})
            for s, c in terms:
                _add_scaled(ys[v][-1], s[n], c)

    def unpack(n: int, packed: Packed):
        poly = _unpack(names, packed, factorial(n))
        return poly if ring is LAURENT else poly.coefficient(())

    return {v: TruncatedSeries(ring, [unpack(n, p) for n, p in enumerate(ys[v])])
            for v in system.variables}


# -- the tree function -------------------------------------------------------------


def tree_function(order: int) -> TruncatedSeries:
    """Sum of n^(n-1) z^n / n! for n >= 1; satisfies T = z*exp(T)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs = [Fraction(0)]
    coeffs.extend(Fraction(n ** (n - 1), factorial(n)) for n in range(1, order + 1))
    return TruncatedSeries(RATIONALS, coeffs)
