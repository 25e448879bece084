"""Test-only series references: routes through series inversion and
powers that the package itself no longer takes, kept as independent
references for the checks that compare against them."""

from fractions import Fraction
from math import factorial

from gkptri.errors import NonInvertibleConstantTerm, NonInvertibleElement
from gkptri.fps import OdeSystem, TruncatedSeries
from gkptri.polyring import LaurentPoly, normalize_scalar


def exp_t(scale, order):
    """The series exp(scale * t)."""
    return TruncatedSeries.t_term(scale, order).exp()


def inverse(f):
    """1/f; the constant term must be a nonzero rational or a single term."""
    c = f.coeffs[0]
    if c == 0:
        raise NonInvertibleConstantTerm("constant term 0 is not invertible")
    try:
        out = [c.inv() if isinstance(c, LaurentPoly) else normalize_scalar(Fraction(1) / c)]
    except NonInvertibleElement as exc:
        raise NonInvertibleConstantTerm(str(exc)) from exc
    for n in range(1, f.order + 1):
        out.append(-(out[0] * sum((f.coeffs[j] * out[n - j] for j in range(1, n + 1)), 0)))
    return TruncatedSeries(out)


def series_pow(f, e):
    """f^e by repeated products; a negative e goes through `inverse`."""
    base = inverse(f) if e < 0 else f
    result = TruncatedSeries.one(f.order)
    for _ in range(abs(e)):
        result = result * base
    return result


def euler_at_zero_by_series(order):
    """E_0(0)..E_order(0) as k! [t^k] 2/(e^t + 1), by series inversion."""
    series = TruncatedSeries.constant(2, order) * inverse(
        exp_t(1, order) + TruncatedSeries.one(order))
    return [normalize_scalar(Fraction(series.coefficient(k)) * factorial(k))
            for k in range(order + 1)]


def reference_solve(system: OdeSystem, order: int) -> dict[str, TruncatedSeries]:
    """c_{n+1} = [t^n] rhs(partial sums) / (n+1), with series products."""
    coeffs = {v: [system.initial[v]] for v in system.variables}
    for n in range(order):
        partial = {v: TruncatedSeries(coeffs[v] + [0] * (n + 1 - len(coeffs[v])))
                   for v in system.variables}
        step = {}
        for v in system.variables:
            acc = TruncatedSeries.zero(n)
            for mono, c in system.rhs[v].terms().items():
                term = TruncatedSeries.constant(c, n)
                for x, e in mono:
                    term = term * series_pow(partial[x], e)
                acc = acc + term
            step[v] = acc.coefficient(n) * Fraction(1, n + 1)
        for v in system.variables:
            coeffs[v].append(step[v])
    return {v: TruncatedSeries(coeffs[v]) for v in system.variables}
