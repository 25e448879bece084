"""Truncated formal power series in t with exact coefficients.

Coefficients live either in the rationals or in the Laurent-polynomial ring
(for series whose coefficients still carry the letters u, v).  A series of
order N stores the N+1 coefficients of t^0..t^N as plain t-power
coefficients; factorial weights appear only when a series is built from or
compared against exponential generating functions.

Binary operations truncate to the smaller order and never read beyond it.
exp requires a zero constant term, log and rational powers a unit constant
term, and inversion an invertible constant term (for polynomial
coefficients that means a single monomial).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import comb, factorial
from operator import add, sub
from typing import Any, Callable, Iterable, Mapping

from .errors import (
    DegeneratePoint,
    DegenerateY,
    NonInvertibleConstantTerm,
    NonInvertibleElement,
    NonUnitConstantTerm,
    NonZeroConstantTerm,
    NonZeroInnerConstant,
    UnknownVariable,
    ZeroA1,
    ZeroA2,
)
from .grammar import Grammar, _pack, _unpack, iterate_D
from .polyring import LaurentPoly, Monomial, Scalar, normalize_scalar
from .triangles import second_order_eulerian, whitney_eulerian


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

    def integrate(self) -> TruncatedSeries:
        """Antiderivative with constant term 0, order N+1."""
        out = [self.ring.zero]
        out.extend(self.coeffs[n] * Fraction(1, n + 1) for n in range(self.order + 1))
        return TruncatedSeries(self.ring, out)

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

    def log(self) -> TruncatedSeries:
        """log of a series with unit constant term (zero series if N = 0)."""
        if self.coeffs[0] != self.ring.one:
            raise NonUnitConstantTerm("log needs constant coefficient 1")
        if self.order == 0:
            return TruncatedSeries.zero(self.ring, 0)
        inv = self.truncate(self.order - 1).inverse()
        return (self.differentiate() * inv).integrate()

    def pow_rational(self, q) -> TruncatedSeries:
        """Rational power exp(q*log(.)) of a unit-constant series."""
        q = normalize_scalar(q if isinstance(q, (int, Fraction)) else Fraction(q))
        return self.log().scalar_mul(q).exp()

    def compose(self, inner: TruncatedSeries) -> TruncatedSeries:
        """self(inner(t)); the inner series must have zero constant term."""
        n = self._common(inner)
        if inner.coeffs[0] != self.ring.zero:
            raise NonZeroInnerConstant("composition needs inner constant term 0")
        inner_n = inner.truncate(n)
        result = TruncatedSeries.constant(self.ring, self.coeffs[n], n)
        for k in range(n - 1, -1, -1):
            result = result * inner_n
            result = TruncatedSeries(
                self.ring, (result.coeffs[0] + self.coeffs[k],) + result.coeffs[1:]
            )
        return result

    # -- coefficient transforms ---------------------------------------------------

    def map_coefficients(self, fn, ring: CoefficientRing | None = None) -> TruncatedSeries:
        return TruncatedSeries(ring or self.ring, [fn(c) for c in self.coeffs])


def exp_t(scale, order: int, ring: CoefficientRing = RATIONALS) -> TruncatedSeries:
    """The series exp(scale * t)."""
    return TruncatedSeries.t_term(ring, scale, order).exp()


# -- generating function of a grammar -------------------------------------------


def gen_series(g: Grammar, x: LaurentPoly, order: int) -> TruncatedSeries:
    """Sum of D^n(x) t^n / n! truncated at the given order."""
    levels = enumerate(iterate_D(g, x, order))
    return TruncatedSeries(LAURENT, [p * Fraction(1, factorial(n)) for n, p in levels])


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
        f = factorial(n)
        poly = _unpack(names, {k: Fraction(c, f) for k, c in packed.items()})
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


# -- verification reports ------------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of one exact identity check."""

    name: str
    params: dict = field(default_factory=dict)
    order: int | None = None
    passed: bool = True
    failure: str | None = None

    def fail(self, locus: str) -> "CheckReport":
        self.passed = False
        if self.failure is None:
            self.failure = locus
        return self

    def __str__(self):
        status = "pass" if self.passed else f"FAIL ({self.failure})"
        extras = ", ".join(f"{k}={v}" for k, v in self.params.items())
        order = f" order<={self.order}" if self.order is not None else ""
        return f"{self.name} [{extras}]{order}: {status}"


def _egf_from_rows(values: list, order: int, ring=RATIONALS) -> TruncatedSeries:
    """Series whose t^n coefficient is values[n] / n!."""
    return TruncatedSeries(
        ring, [values[n] * Fraction(1, factorial(n)) for n in range(order + 1)]
    )


def verify_closed_form_whitney(m: int, r: int, order: int,
                               points=((2, 1), (1, 2), (3, 2))) -> CheckReport:
    """Check, at exact rational points, that the bivariate EGF of the
    (mk+r)/(mn-mk+m-r) triangle equals
    (u^m - v^m) e^((u^m - v^m) r t) / (u^m - v^m e^((u^m - v^m) m t))."""
    report = CheckReport(
        name="whitney-egf",
        params={"m": m, "r": r, "points": tuple(points)},
        order=order,
    )
    tri = whitney_eulerian(m, r, order)
    for point in points:
        u, v = (Fraction(c) for c in point)
        um, vm = u ** m, v ** m
        if um == vm:
            raise DegeneratePoint(f"u^m = v^m at point {point}")
        c = um - vm
        rows = [
            sum(Fraction(tri.entry(n, k)) * u ** (m * (n - k)) * v ** (m * k)
                for k in range(n + 1))
            for n in range(order + 1)
        ]
        lhs = _egf_from_rows(rows, order)
        denom = TruncatedSeries.constant(RATIONALS, um, order) - exp_t(c * m, order).scalar_mul(vm)
        rhs = exp_t(c * r, order).scalar_mul(c) * denom.inverse()
        diff = lhs.first_difference(rhs)
        if diff is not None:
            report.fail(f"point {point}: first mismatch at order {diff}")
    return report


def verify_sol_a2zero(a0: int, a1: int, order: int) -> CheckReport:
    """Check the closed solution of U' = U V^a1, V' = V (symbolic initial
    values) and that U V^a0 reproduces the Bell-polynomial expansion."""
    if a1 == 0:
        raise ZeroA1("the check needs a1 != 0")
    report = CheckReport(name="a2zero-solution", params={"a0": a0, "a1": a1}, order=order)
    g = Grammar({
        "u": LaurentPoly.from_exponents({"u": 1, "v": a1}),
        "v": LaurentPoly.variable("v"),
    }, ("u", "v"))
    sol = solve_ode(grammar_ode(g), order)
    u = LaurentPoly.variable("u")
    v_a1 = LaurentPoly.from_exponents({"v": a1})

    arg = (exp_t(a1, order) - TruncatedSeries.one(RATIONALS, order)).map_coefficients(
        lambda q: v_a1 * (q * Fraction(1, a1)), LAURENT
    )
    u_closed = arg.exp().scalar_mul(u)
    if sol["u"] != u_closed:
        report.fail(f"U: first mismatch at order {sol['u'].first_difference(u_closed)}")
    v_closed = exp_t(1, order).map_coefficients(
        lambda q: LaurentPoly.from_exponents({"v": 1}) * q, LAURENT
    )
    if sol["v"] != v_closed:
        report.fail(f"V: first mismatch at order {sol['v'].first_difference(v_closed)}")

    # Product against the Bell-polynomial form of the row generating function.
    from .closedforms import stirling2

    product = sol["u"] * sol["v"].pow_int(a0)
    rows = []
    for n in range(order + 1):
        total = LaurentPoly.zero()
        for k in range(n + 1):
            bell = LaurentPoly.zero()
            for j in range(k + 1):
                bell = bell + LaurentPoly.from_exponents(
                    {"v": a1 * j}, stirling2(k, j) * Fraction(1, a1) ** j
                )
            total = total + bell * (comb(n, k) * Fraction(a1) ** k * Fraction(a0) ** (n - k))
        rows.append(LaurentPoly.from_exponents({"u": 1, "v": a0}) * total)
    bell_series = _egf_from_rows(rows, order, LAURENT)
    if product != bell_series:
        report.fail(
            f"U*V^a0: first mismatch at order {product.first_difference(bell_series)}"
        )
    return report


def verify_sol_a1zero(a0: int, a2: int, order: int) -> CheckReport:
    """Check the closed solution of U' = U V^a2, V' = V^(a2+1) through the
    fraction-power-free relations V^a2 (1 - a2 t v^a2) = v^a2 and U v = u V,
    plus the rising-factorial row sums of U V^(a0+a2)."""
    if a2 == 0:
        raise ZeroA2("the check needs a2 != 0")
    report = CheckReport(name="a1zero-solution", params={"a0": a0, "a2": a2}, order=order)
    g = Grammar({
        "u": LaurentPoly.from_exponents({"u": 1, "v": a2}),
        "v": LaurentPoly.from_exponents({"v": a2 + 1}),
    }, ("u", "v"))
    sol = solve_ode(grammar_ode(g), order)
    v_a2 = LaurentPoly.from_exponents({"v": a2})

    linear = TruncatedSeries.one(LAURENT, order) - TruncatedSeries.t_term(
        LAURENT, v_a2 * a2, order
    )
    lhs = sol["v"].pow_int(a2) * linear
    rhs = TruncatedSeries.constant(LAURENT, v_a2, order)
    if lhs != rhs:
        report.fail(f"V-relation: first mismatch at order {lhs.first_difference(rhs)}")

    left = sol["u"].scalar_mul(LaurentPoly.variable("v"))
    right = sol["v"].scalar_mul(LaurentPoly.variable("u"))
    if left != right:
        report.fail(f"U*v = u*V: first mismatch at order {left.first_difference(right)}")

    from .closedforms import a1zero_rowsum

    product = sol["u"] * sol["v"].pow_int(a0 + a2)
    expected = TruncatedSeries(LAURENT, [
        LaurentPoly.from_exponents(
            {"u": 1, "v": a0 + a2 + a2 * n},
            a1zero_rowsum(a0, a2, n) * Fraction(1, factorial(n)),
        )
        for n in range(order + 1)
    ])
    if product != expected:
        report.fail(
            f"row sums: first mismatch at order {product.first_difference(expected)}"
        )
    return report


def verify_secondorder_egf(y, order: int) -> CheckReport:
    """Check that sum_n sum_k B(n,k) y^(k+1) t^n/n! (second-order rows, r=2)
    equals (1-y) W / (1 - W) where W solves W' = (1-y)^2 W/(1-W), W(0) = y.

    W(t) stands in for the tree function evaluated at y e^(-y + (1-y)^2 t);
    the first-order equation is the formal content of that composition.
    """
    y = Fraction(y)
    if y in (0, 1):
        raise DegenerateY("the identity needs y outside {0, 1}")
    report = CheckReport(name="second-order-egf", params={"y": str(y)}, order=order)

    one_minus_y = 1 - y
    w = [y]
    for n in range(order):
        acc = one_minus_y ** 2 * w[n]
        for i in range(1, n + 1):
            acc += w[i] * (n - i + 1) * w[n - i + 1]
        w.append(acc / ((n + 1) * one_minus_y))
    W = TruncatedSeries(RATIONALS, w)

    rhs = W * (TruncatedSeries.one(RATIONALS, order) - W).inverse()
    rhs = rhs.scalar_mul(one_minus_y)

    tri = second_order_eulerian(2, order)
    rows = [
        sum(Fraction(tri.entry(n, k)) * y ** (k + 1) for k in range(n + 1))
        for n in range(order + 1)
    ]
    lhs = _egf_from_rows(rows, order)
    diff = lhs.first_difference(rhs)
    if diff is not None:
        report.fail(f"first mismatch at order {diff}")
    return report
