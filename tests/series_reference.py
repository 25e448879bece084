"""Test-only series references: routes through series inversion and
powers, and rational-arithmetic generating-function checks, that the
package itself no longer takes, kept as independent references for the
checks that compare against them."""

from fractions import Fraction
from math import comb, factorial

from gkptri import verify
from gkptri.errors import (
    DegeneratePoint, DegenerateY, NonInvertibleConstantTerm, NonInvertibleElement)
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


def reference_secondorder_w(y, order):
    """W_0..W_order of W' = (1-y)^2 W/(1-W), W(0) = y, in EGF-normal form:
    (1-y) W_(n+1) = (1-y)^2 W_n + sum_(i=1..n) C(n,i) W_i W_(n+1-i)."""
    one_minus_y = 1 - y
    w = [y]
    for n in range(order):
        acc = sum(comb(n, i) * w[i] * w[n + 1 - i] for i in range(1, n + 1))
        w.append((one_minus_y ** 2 * w[n] + acc) / one_minus_y)
    return w


def reference_secondorder_egf(y, order):
    """`verify.verify_secondorder_egf` in `Fraction` arithmetic: with
    L_n = sum_k B(n,k) y^(k+1), L_n - sum_j C(n,j) L_j W_(n-j) = (1-y) W_n.
    The triangle is read through `verify`, so a patched one is seen too."""
    y = Fraction(normalize_scalar(y))
    if y in (0, 1):
        raise DegenerateY("the identity needs y outside {0, 1}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    report = verify.CheckReport(name="second-order-egf", params={"y": str(y)}, order=order)
    w = reference_secondorder_w(y, order)
    tri = verify.second_order_eulerian(2, order)
    rows = []
    for n in range(order + 1):
        rows.append(sum(tri.entry(n, k) * y ** (k + 1) for k in range(n + 1)))
        cleared = rows[n] - sum(comb(n, j) * rows[j] * w[n - j] for j in range(n + 1))
        if cleared != (1 - y) * w[n]:
            report.fail(f"first mismatch at order {n}")
            break
    return report


def reference_closed_form_whitney(m, r, order, points=((2, 1), (1, 2), (3, 2))):
    """`verify.verify_closed_form_whitney` with a `**` per term: with
    R_n = sum_k T(n,k) u^(m(n-k)) v^(mk) and c = u^m - v^m,
    u^m R_n - v^m sum_j C(n,j) R_j (cm)^(n-j) = c (cr)^n."""
    report = verify.CheckReport(
        name="whitney-egf", params={"m": m, "r": r, "points": tuple(points)}, order=order)
    if order < 0:
        raise ValueError("order must be nonnegative")
    tri = verify.whitney_eulerian(m, r, order)
    for point in points:
        u, v = map(normalize_scalar, point)
        um, vm = u ** m, v ** m
        if um == vm:
            raise DegeneratePoint(f"u^m = v^m at point {point}")
        c = um - vm
        rows = []
        for n in range(order + 1):
            rows.append(sum(tri.entry(n, k) * u ** (m * (n - k)) * v ** (m * k)
                            for k in range(n + 1)))
            shifted = sum(comb(n, j) * rows[j] * (c * m) ** (n - j) for j in range(n + 1))
            if um * rows[n] - vm * shifted != c * (c * r) ** n:
                report.fail(f"point {point}: first mismatch at order {n}")
                break
    return report
