"""Test-only references that the package itself no longer takes, kept as
independent references for the checks that compare against them:
truncated series arithmetic (`map` and each product stop at the smaller
order), routes through series inversion and powers, rational-arithmetic
generating-function checks, the packed derivation and product kernels as
they were before the first-insert kernels, and the Laurent polynomial's
power-rule derivative (`partial`), its value at a rational point
(`evaluate`), the inverse of a single term (inside `inverse`), and its sum
and product as they were built past the constructor (`add_terms`,
`mul_terms` and `monomial_mul`), which `poly_add` and `poly_mul` lift to
the Laurent polynomials and scalars that series coefficients are: the
package's `LaurentPoly` has no arithmetic of its own."""

from fractions import Fraction
from functools import reduce
from math import comb, factorial, prod
from operator import add

from gkptri import verify
from gkptri.errors import DegenerateY, NonInvertibleConstantTerm
from gkptri.fps import OdeSystem, TruncatedSeries
from gkptri.polyring import LaurentPoly, monomial, normalize_scalar


def partial(p, var):
    """The formal partial derivative of p by the Laurent power rule; d/dvar
    is injective on the monomials containing var, so no terms merge."""
    out = {}
    for mono, c in p.terms().items():
        exps = dict(mono)
        e = exps.get(var, 0)
        if e:
            exps[var] = e - 1
            out[monomial(exps)] = c * e
    return LaurentPoly(out)


def evaluate(p, point):
    """The exact value of p at a point giving each of its variables a
    rational, nonzero where the exponent is negative."""
    return sum((Fraction(c) * prod(Fraction(point[v]) ** e for v, e in mono)
                for mono, c in p.terms().items()), Fraction(0))


def monomial_mul(a, b):
    """The product of two canonical monomials, merging exponent pairs."""
    if not a or not b:
        return a or b
    exps = dict(a)
    for var, e in b:
        ne = exps.get(var, 0) + e
        if ne:
            exps[var] = ne
        else:
            del exps[var]
    return tuple(sorted(exps.items()))


def add_terms(a, b):
    """The term map of the sum of two canonical term maps, zero sums dropped."""
    out = dict(a)
    for mono, coeff in b.items():
        s = out.get(mono, 0) + coeff
        if s:
            out[mono] = normalize_scalar(s)
        else:
            out.pop(mono, None)
    return out


def mul_terms(a, b):
    """The term map of a canonical term map times a scalar or another term map."""
    if isinstance(b, (int, Fraction)):
        return {m: normalize_scalar(c * b) for m, c in a.items()} if b else {}
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = monomial_mul(m1, m2)
            s = out.get(mono, 0) + c1 * c2
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return {m: normalize_scalar(c) for m, c in out.items()}


def _terms(x):
    """The term map of a LaurentPoly or an exact scalar."""
    return x.terms() if isinstance(x, LaurentPoly) else LaurentPoly.constant(x).terms()


def poly_add(*xs):
    """The sum of exact scalars, or of LaurentPolys and scalars by `add_terms`."""
    if not any(isinstance(x, LaurentPoly) for x in xs):
        return sum(xs)
    return LaurentPoly(reduce(add_terms, map(_terms, xs), {}))


def poly_mul(*xs):
    """The product of exact scalars, or of LaurentPolys and scalars by `mul_terms`."""
    if not any(isinstance(x, LaurentPoly) for x in xs):
        return prod(xs)
    return LaurentPoly(reduce(mul_terms, map(_terms, xs), {(): 1}))


def constant(c, order):
    """The series c, truncated at the given order."""
    return TruncatedSeries([c] + [0] * order)


def egf_series(levels):
    """The series sum levels[n] t^n / n! of EGF-normal coefficients."""
    return TruncatedSeries(poly_mul(c, Fraction(1, factorial(n))) for n, c in enumerate(levels))


def t_term(scale, order):
    """The series scale * t, truncated at the given order."""
    return TruncatedSeries([0, scale, *[0] * order][:order + 1])


def series_add(f, g):
    return TruncatedSeries(map(poly_add, f.coeffs, g.coeffs))


def series_sub(f, g):
    return TruncatedSeries(poly_add(a, poly_mul(-1, b)) for a, b in zip(f.coeffs, g.coeffs))


def series_mul(f, g):
    a, b = f.coeffs, g.coeffs
    return TruncatedSeries(poly_add(*(poly_mul(a[j], b[m - j]) for j in range(m + 1)))
                           for m in range(min(f.order, g.order) + 1))


def series_exp(f):
    """exp(f) for f with constant term 0: n e_n = sum_(j=1..n) j f_j e_(n-j)."""
    c, out = f.coeffs, [1]
    if c[0] != 0:
        raise ValueError("exp needs constant coefficient 0")
    for n in range(1, f.order + 1):
        out.append(poly_mul(poly_add(*(poly_mul(c[j], j, out[n - j]) for j in range(1, n + 1))),
                            Fraction(1, n)))
    return TruncatedSeries(out)


def series_derivative(f):
    """d/dt, honest to order f.order - 1."""
    return TruncatedSeries(poly_mul(c, n) for n, c in enumerate(f.coeffs) if n)


def exp_t(scale, order):
    """The series exp(scale * t)."""
    return series_exp(t_term(scale, order))


def inverse(f):
    """1/f; the constant term must be a nonzero rational or a single term,
    whose inverse negates its exponents."""
    c = f.coeffs[0]
    if c == 0:
        raise NonInvertibleConstantTerm("constant term 0 is not invertible")
    if not isinstance(c, LaurentPoly):
        out = [normalize_scalar(Fraction(1) / c)]
    elif len(c) == 1:
        (mono, coeff), = c.terms().items()
        out = [LaurentPoly({tuple((v, -e) for v, e in mono): Fraction(1) / coeff})]
    else:
        raise NonInvertibleConstantTerm(f"not invertible in the Laurent ring: {c}")
    for n in range(1, f.order + 1):
        out.append(poly_mul(-1, out[0], poly_add(*(poly_mul(f.coeffs[j], out[n - j])
                                                   for j in range(1, n + 1)))))
    return TruncatedSeries(out)


def series_pow(f, e):
    """f^e by repeated products; a negative e goes through `inverse`."""
    base = inverse(f) if e < 0 else f
    result = constant(1, f.order)
    for _ in range(abs(e)):
        result = series_mul(result, base)
    return result


def euler_at_zero_by_series(order):
    """E_0(0)..E_order(0) as k! [t^k] 2/(e^t + 1), by series inversion."""
    series = series_mul(constant(2, order),
                        inverse(series_add(exp_t(1, order), constant(1, order))))
    return [normalize_scalar(Fraction(series.coefficient(k)) * factorial(k))
            for k in range(order + 1)]


def accumulate_by_get(out, a, b, w):
    """`fps._accumulate` on exponent-tuple keys, with every product added as
    `get(key, 0) + ...`: out += w * a * b on packed dicts, dropping the keys
    that cancel.  The kernel adds Kronecker int keys instead; this reference
    stays on tuples, added through `map(add, ...)`."""
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


def derive_by_get(steps, level, n):
    """The list of packed levels seed, D(seed), ..., D^n(seed) that
    `grammar._derive` yields, with every product added as `get(key, 0) + ...`
    and dropping the keys that cancel."""
    levels = [level]
    pairs = all(len(shift) == 2 for _, shift, _ in steps)
    for _ in range(n):
        out = {}
        get = out.get
        for vec, c in level.items():
            for i, shift, rc in steps:
                e = vec[i]
                if e:
                    key = ((vec[0] + shift[0], vec[1] + shift[1]) if pairs
                           else tuple(map(add, vec, shift)))
                    s = get(key, 0) + c * (e * rc)
                    if s:
                        out[key] = s
                    else:
                        del out[key]
        level = out
        levels.append(level)
    return levels


def reference_solve(system: OdeSystem, order: int) -> dict[str, TruncatedSeries]:
    """c_{n+1} = [t^n] rhs(partial sums) / (n+1), with series products."""
    coeffs = {v: [system.initial[v]] for v in system.variables}
    for n in range(order):
        partial = {v: TruncatedSeries(coeffs[v] + [0] * (n + 1 - len(coeffs[v])))
                   for v in system.variables}
        step = {}
        for v in system.variables:
            acc = constant(0, n)
            for mono, c in system.rhs[v].terms().items():
                term = constant(c, n)
                for x, e in mono:
                    term = series_mul(term, series_pow(partial[x], e))
                acc = series_add(acc, term)
            step[v] = poly_mul(acc.coefficient(n), Fraction(1, n + 1))
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


def reference_closed_form_whitney(m, r, order):
    """`verify.verify_closed_form_whitney` with a `**` per term, in Fractions:
    with R_n = sum_k T(n,k) u^(m(n-k)) v^(mk) and c = u^m - v^m,
    u^m R_n - v^m sum_j C(n,j) R_j (cm)^(n-j) = c (cr)^n."""
    points = ((2, 1), (1, 2), (3, 2))
    report = verify.CheckReport(
        name="whitney-egf", params={"m": m, "r": r, "points": points}, order=order)
    if order < 0:
        raise ValueError("order must be nonnegative")
    tri = verify.whitney_eulerian(m, r, order)
    for point in points:
        u, v = map(Fraction, point)
        um, vm = u ** m, v ** m
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
