"""Closed-form evaluators for the triangle families, plus the special
numbers they lean on (Stirling subset numbers, Bell polynomials, rising
step factorials, Euler values at 0).

Every evaluator returns exact rationals and never rounds; integer
arguments stay on int, and a formula that divides by a1^k k! divides once,
at the end.  The integrality of its result is a statement to test, not an
assumption, so callers that expect integers should assert them.
Empty products are 1 throughout, and 0^0 = 1 (forced by row 0 of every
triangle).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import ZeroA1, ZeroA2
from .polyring import LaurentPoly, Scalar, monomial, normalize_scalar
from .triangles import TriangleParams, recurrence_triangle


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling subset number S(n,k): partitions of [n] into k blocks."""
    if n < 0 or k < 0:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def bell_polynomial(n: int, lam) -> Scalar:
    """B_n(lam) = sum_k S(n,k) lam^k."""
    return normalize_scalar(sum(stirling2(n, k) * lam ** k for k in range(n + 1)))


def rising_step(x, a, k: int) -> Scalar:
    """x (x+a) (x+2a) ... (x+(k-1)a), with the empty product equal to 1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    result = 1
    for i in range(k):
        result *= x + i * a
    return normalize_scalar(result)


_euler_cache: list[Fraction] = [Fraction(1)]


def euler_at_zero(k: int) -> Scalar:
    """E_k(0) = k! [t^k] 2/(e^t + 1), from the cleared form (e^t + 1) E = 2
    in EGF-normal coefficients: E_0 = 1 and E_n = -1/2 sum_(j<n) C(n,j) E_j."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    while len(_euler_cache) <= k:
        n = len(_euler_cache)
        _euler_cache.append(-sum(comb(n, j) * e for j, e in enumerate(_euler_cache)) / 2)
    return normalize_scalar(_euler_cache[k])


def a_mr_explicit(m: int, r: int, n: int, k: int) -> int:
    """Alternating binomial form of the (mk+r)/(mn-mk+m-r) triangle entry."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return sum(
        (-1) ** j * comb(n + 1, j) * (m * (k - j) + r) ** n for j in range(k + 1)
    )


def f_gram_explicit(a0, a1, a2, n: int, k: int) -> Scalar:
    """Entry of the b = 1 triangle with coefficient a2*n + a1*k + a0:

        (1/(a1^k k!)) sum_j (-1)^(k-j) C(k,j) prod_{r=1..n} (a0 + a1 j + r a2)
    """
    if a1 == 0:
        raise ZeroA1("the explicit formula needs a1 != 0")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    total = 0
    for j in range(k + 1):
        prod = 1
        for r in range(1, n + 1):
            prod *= a0 + a1 * j + r * a2
        total += (-1) ** (k - j) * comb(k, j) * prod
    return normalize_scalar(Fraction(total, a1 ** k * factorial(k)))


def t_b2zero_explicit(a0, a1, a2, b0, b1, n: int, k: int) -> Scalar:
    """Entry of the triangle with coefficients a2*n + a1*k + a0 and
    b1*k + b0: the rising-step prefactor (b0+b1 | b1)^(rising k) times the
    b = 1 entry."""
    if a1 == 0:
        raise ZeroA1("the explicit formula needs a1 != 0")
    if a2 == 0:
        raise ZeroA2("the explicit formula needs a2 != 0")
    return normalize_scalar(rising_step(b0 + b1, b1, k) * f_gram_explicit(a0, a1, a2, n, k))


def f_a2zero_explicit(a0, a1, n: int, k: int) -> Scalar:
    """Entry of the b = 1, a2 = 0 triangle:
    sum_{j=k..n} C(n,j) a0^(n-j) a1^(j-k) S(j,k)."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    total = sum(
        comb(n, j) * a0 ** (n - j) * a1 ** (j - k) * stirling2(j, k)
        for j in range(k, n + 1)
    )
    return normalize_scalar(total)


def touchard_row(a0, a1, n: int) -> list[Scalar]:
    """Coefficients of alpha^0..alpha^n in
    sum_k C(n,k) a1^k a0^(n-k) B_k(alpha/a1), the Bell-polynomial form of
    row n of the b = 1, a2 = 0 triangle."""
    if a1 == 0:
        raise ZeroA1("the identity needs a1 != 0")
    return [
        normalize_scalar(Fraction(1, a1) ** j * sum(
            comb(n, k) * a1 ** k * a0 ** (n - k) * stirling2(k, j) for k in range(j, n + 1)))
        for j in range(n + 1)
    ]


def touchard_check(a0, a1, n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Both sides of the Bell-polynomial row identity, as polynomials in a
    formal symbol `alpha`:

        LHS = sum_k F(n,k) alpha^k          (F from the b = 1, a2 = 0 recurrence)
        RHS = sum_k C(n,k) a1^k a0^(n-k) B_k(alpha/a1)
    """
    rhs = touchard_row(a0, a1, n)
    lhs = recurrence_triangle(TriangleParams(a0, a1, 0, 1, 0, 0), n).row(n)
    return tuple(LaurentPoly({monomial({"alpha": k}): c for k, c in enumerate(side)})
                 for side in (lhs, rhs))


def a1zero_rowsum(a0, a2, n: int) -> Scalar:
    """Row sum of the b = 1, a1 = 0 triangle: the rising factorial of
    (1 + a0 + a2)/a2 over n steps, times a2^n, that is
    (1 + a0 + a2) (1 + a0 + 2 a2) ... (1 + a0 + n a2)."""
    if a2 == 0:
        raise ZeroA2("the row-sum formula needs a2 != 0")
    return rising_step(1 + a0 + a2, a2, n)
