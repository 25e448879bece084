"""Triangular arrays T(n,k) = (a2*n + a1*k + a0) T(n-1,k) + (b2*n + b1*k + b0) T(n-1,k-1).

Boundary: T(0,0) = 1 and T(n,k) = 0 whenever k < 0 or k > n.  Rows are
filled bottom-up; row n has the n+1 entries T(n,0..n), with any structural
zeros (leading or trailing) stored explicitly so row/column indices line up
with the grammar picture.

The named families used downstream are all instances of the general
recurrence; their parameter six-tuples are recorded here:

  whitney_params(m, r)      = (r, m, 0, m-r, -m, m)      coefficients (mk+r), (mn-mk+m-r)
  r_eulerian_params(r)      = whitney_params(1, r)       coefficients (k+r), (n-k+1-r)
  second_order_params(r)    = (1, 1, 0, 1-r, -1, r)      coefficients (k+1), (rn-k+1-r)
  stirling2_params()        = (0, 1, 0, 1, 0, 0)         coefficients k, 1
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from fractions import Fraction
from math import lcm

from .errors import NonIntegerParams, RowOutOfRange
from .polyring import Scalar, normalize_scalar, parse_rational


class TriangleParams:
    """The six coefficients of the two-term triangular recurrence: an
    immutable, hashable value whose entries are ints or Fractions."""

    def __init__(self, a0: Scalar, a1: Scalar, a2: Scalar, b0: Scalar, b1: Scalar, b2: Scalar):
        six = (a0, a1, a2, b0, b1, b2)
        if not type(a0) is type(a1) is type(a2) is type(b0) is type(b1) is type(b2) is int:
            six = map(normalize_scalar, six)
        fields = self.__dict__  # written directly: __setattr__ refuses
        fields["a0"], fields["a1"], fields["a2"], fields["b0"], fields["b1"], fields["b2"] = six

    def __setattr__(self, name, value=None):
        raise AttributeError(f"TriangleParams is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.as_tuple() == other.as_tuple() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self.as_tuple())

    def __repr__(self):
        return f"TriangleParams({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    @classmethod
    def parse(cls, text: str) -> TriangleParams:
        """Parse `a0,a1,a2,b0,b1,b2` with integer or p/q entries."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 6:
            raise ValueError(f"expected six comma-separated values, got {len(parts)}")
        return cls(*map(parse_rational, parts))

    def as_tuple(self) -> tuple[Scalar, ...]:
        return (self.a0, self.a1, self.a2, self.b0, self.b1, self.b2)

    def is_integral(self) -> bool:
        return Fraction not in map(type, self.as_tuple())

    def cleared(self) -> tuple[int, TriangleParams]:
        """(d, d·p) with d the lcm of the denominators: row n of the integer
        six-tuple d·p is d^n times row n of p (induction on n)."""
        d = lcm(*(v.denominator for v in self.as_tuple()))
        return d, TriangleParams(*(d * v for v in self.as_tuple()))

    def require_integral(self) -> None:
        if not self.is_integral():
            raise NonIntegerParams(f"all six parameters must be integers, got {self}")

    def coeff_a(self, n: int, k: int) -> Scalar:
        return self.a2 * n + self.a1 * k + self.a0

    def coeff_b(self, n: int, k: int) -> Scalar:
        return self.b2 * n + self.b1 * k + self.b0

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.as_tuple())


def whitney_params(m: int, r: int) -> TriangleParams:
    return TriangleParams(r, m, 0, m - r, -m, m)


def r_eulerian_params(r: int) -> TriangleParams:
    return whitney_params(1, r)


def second_order_params(r: int) -> TriangleParams:
    return TriangleParams(1, 1, 0, 1 - r, -1, r)


def stirling2_params() -> TriangleParams:
    return TriangleParams(0, 1, 0, 1, 0, 0)


class Triangle:
    """Computed rows of a triangular array, rows[n] = [T(n,0), ..., T(n,n)]."""

    def __init__(self, params: TriangleParams | None, rows: list[list[Scalar]],
                 family: str | None = None):
        self.params = params
        self.rows = rows
        self.family = family

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1

    def row(self, n: int) -> list[Scalar]:
        if not 0 <= n <= self.n_max:
            raise RowOutOfRange(f"row {n} not computed (have 0..{self.n_max})")
        return self.rows[n]

    def entry(self, n: int, k: int) -> Scalar:
        """T(n,k), with out-of-range indices reading as 0."""
        if n < 0 or k < 0 or k > n:
            return 0
        return self.row(n)[k]

    def row_sum(self, n: int) -> Scalar:
        return normalize_scalar(sum(self.row(n)))

    def alternating_row_sum(self, n: int) -> Scalar:
        row = self.row(n)
        return normalize_scalar(sum(row[::2]) - sum(row[1::2]))

    def assert_integral(self) -> None:
        for n, row in enumerate(self.rows):
            for k, v in enumerate(row):
                if not isinstance(v, int):
                    raise AssertionError(f"T({n},{k}) = {v} is not an integer")

    def label(self) -> str:
        if self.family:
            return self.family
        return f"gkp({self.params})" if self.params else "triangle"


def triangle_rows(params: TriangleParams, n_max: int, one=1) -> Iterator[list]:
    """Yield rows 0..n_max, holding only row n-1.  Row 0 is [one]; integer
    six-tuples keep the type of `one` (int, or an exact Decimal).  A rational
    six-tuple fills the integer rows of its cleared six-tuple and unscales them."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if not params.is_integral():
        d, cleared = params.cleared()
        yield from unscaled_rows(triangle_rows(cleared, n_max, one), d)
        return
    a0, a1, a2, b0, b1, b2 = params.as_tuple()
    prev = [one]
    yield prev
    for n in range(1, n_max + 1):
        a, b = a2 * n + a0, b2 * n + b0
        row = [a * prev[0]]
        for k in range(1, n):
            row.append((a + a1 * k) * prev[k] + (b + b1 * k) * prev[k - 1])
        row.append((b + b1 * n) * prev[n - 1])
        prev = row
        yield row


def unscaled_rows(rows: Iterable[list], d: int) -> Iterator[list]:
    """Row n of `rows` divided by d^n: the rows of a rational six-tuple p read
    off the rows of its cleared six-tuple d·p (TriangleParams.cleared)."""
    scale = 1
    for row in rows:
        yield [normalize_scalar(Fraction(v, scale)) for v in row]
        scale *= d


def recurrence_triangle(params: TriangleParams, n_max: int,
                        family: str | None = None) -> Triangle:
    """Fill rows 0..n_max directly from the recurrence."""
    return Triangle(params, list(triangle_rows(params, n_max)), family)


def whitney_eulerian(m: int, r: int, n_max: int) -> Triangle:
    """Numbers counted by size-m-typed permutations with r-excedances;
    recurrence coefficients (mk+r) and (mn-mk+m-r)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return recurrence_triangle(whitney_params(m, r), n_max,
                               family=f"whitney(m={m},r={r})")


def r_eulerian(r: int, n_max: int) -> Triangle:
    """Permutations of [n] counted by the number of j with sigma(j) >= j+r."""
    if r < 0:
        raise ValueError("r must be >= 0")
    return recurrence_triangle(r_eulerian_params(r), n_max,
                               family=f"r-eulerian(r={r})")


def second_order_eulerian(r: int, n_max: int) -> Triangle:
    """Stirling r-permutations of [n] counted by descents; the r=2 rows sum
    to (2n-1)!!."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return recurrence_triangle(second_order_params(r), n_max,
                               family=f"second-order(r={r})")


def stirling2_triangle(n_max: int) -> Triangle:
    """Stirling subset numbers S(n,k), including the leading zero column."""
    return recurrence_triangle(stirling2_params(), n_max, family="stirling2")


# -- rendering ----------------------------------------------------------------

FORMATS = ("plain", "csv", "json", "oeis")


def _text(v) -> str:
    return str(v) if v else "0"  # a Decimal -0, as (-1)*0 makes, prints as 0


def _trim(row: list[Scalar]) -> list[Scalar]:
    """Drop trailing zeros but keep at least one entry."""
    end = len(row)
    while end > 1 and row[end - 1] == 0:
        end -= 1
    return row[:end]


def render_triangle(t: Triangle, rows: Iterable[list], fmt: str) -> Iterator[str]:
    """Render rows of `t`'s recurrence as they come, one piece per row; the
    pieces join to the whole text, without a final newline.  `plain` and
    `oeis` trim trailing zeros, `csv` and `json` keep full rows; `json` is
    the canonical compact dump, with rationals as strings."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r} (choose from {', '.join(FORMATS)})")
    head = '{"label":%s,"params":%s,"rows":[' % (
        json.dumps(t.label()), json.dumps(str(t.params) if t.params else None))
    for n, row in enumerate(rows):
        if fmt == "json":
            line = ",".join(f'"{v}"' if type(v) is Fraction else _text(v) for v in row)
            yield ("," if n else head) + "[" + line + "]"
        else:
            line = ",".join(map(_text, row if fmt == "csv" else _trim(row)))
            yield ("\n" if n else "") + (f"n={n}: " if fmt == "plain" else "") + line
    if fmt == "json":
        yield "]}"


def format_triangle(t: Triangle, fmt: str) -> str:
    """The whole text of a computed triangle (see render_triangle)."""
    return "".join(render_triangle(t, t.rows, fmt))
