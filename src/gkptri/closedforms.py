"""Closed-form evaluators for the triangle families, plus the special
numbers they lean on (Stirling subset numbers, rising step factorials,
Euler values at 0).

Every evaluator returns exact rationals and never rounds; integer
arguments stay on int, and a formula that divides by a1^k k! divides once,
at the end.  The integrality of its result is a statement to test, not an
assumption, so callers that expect integers should assert them.
Empty products are 1 throughout, and 0^0 = 1 (forced by row 0 of every
triangle).  `f_a2zero_explicit` and `touchard_row` evaluate one Stirling
sum, per entry and as a row.  This module imports nothing from the
recurrence (`triangles`) or the series engine (`fps`) that its forms are
checked against.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import ZeroA1, ZeroA2
from .polyring import Scalar, normalize_scalar


_stirling2_columns: list[list[int]] = []  # column k holds S(k,k), S(k+1,k), ...


def stirling2(n: int, k: int) -> int:
    """Stirling subset number S(n,k): partitions of [n] into k blocks, from
    columns 0..k of S(m,j) = j S(m-1,j) + S(m-1,j-1), filled to row n."""
    if n < 0 or k < 0 or k > n:
        return 0
    while len(_stirling2_columns) <= k:
        _stirling2_columns.append([1])
    first = k  # no column is longer than those left of it; extend k and a run left of it
    while first and len(_stirling2_columns[first - 1]) <= n - k:
        first -= 1
    for j in range(first, k + 1):
        column = _stirling2_columns[j]
        while len(column) <= n - k:
            column.append(j * column[-1] + (_stirling2_columns[j - 1][len(column)] if j else 0))
    return _stirling2_columns[k][n - k]


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
    b = 1 entry, for any a2."""
    return normalize_scalar(f_gram_explicit(a0, a1, a2, n, k) * rising_step(b0 + b1, b1, k))


def f_a2zero_explicit(a0, a1, n: int, k: int) -> Scalar:
    """Entry of the b = 1, a2 = 0 triangle:
    sum_{j=k..n} C(n,j) a0^(n-j) a1^(j-k) S(j,k); `touchard_row` is its row."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    total, binomial = 0, comb(n, k)  # C(n,j), stepped along j, not recomputed per term
    for j in range(k, n + 1):
        total += binomial * a0 ** (n - j) * a1 ** (j - k) * stirling2(j, k)
        binomial = binomial * (n - j) // (j + 1)
    return normalize_scalar(total)


def touchard_row(a0, a1, n: int) -> list[Scalar]:
    """Coefficients of alpha^0..alpha^n in
    sum_j C(n,j) a1^j a0^(n-j) B_j(alpha/a1), the Bell-polynomial form of
    row n of the b = 1, a2 = 0 triangle.  Coefficient k regroups to the
    Stirling sum of `f_a2zero_explicit`, which evaluates it."""
    if a1 == 0:
        raise ZeroA1("the identity needs a1 != 0")
    return [f_a2zero_explicit(a0, a1, n, k) for k in range(n + 1)]


def a1zero_rowsum(a0, a2, n: int) -> Scalar:
    """Row sum of the b = 1, a1 = 0 triangle: the rising factorial of
    (1 + a0 + a2)/a2 over n steps, times a2^n, that is
    (1 + a0 + a2) (1 + a0 + 2 a2) ... (1 + a0 + n a2)."""
    if a2 == 0:
        raise ZeroA2("the row-sum formula needs a2 != 0")
    return rising_step(1 + a0 + a2, a2, n)
