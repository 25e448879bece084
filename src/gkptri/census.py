"""Brute-force enumeration of the combinatorial structures behind the
triangles: derivation histories of a grammar, permutations by r-excedances,
Stirling r-permutations by descents, set partitions, and cadet-leaf trees.

These enumerators exist to cross-check the algebra at desk scale.  They are
deliberately independent of the recurrence and grammar machinery: each one
walks raw objects (leaf sequences, words, permutations) and buckets them by
the statistic.  Every operation aborts with BudgetExceeded once it has
touched more than `budget` objects (default 10**7).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Mapping

from .errors import (
    BudgetExceeded,
    GrammarNotEnumerable,
    NegativeLeafMultiplicity,
)
from .grammar import Grammar
from .polyring import LaurentPoly

DEFAULT_BUDGET = 10_000_000


@dataclass
class StructureCensus:
    """Counts of enumerated structures bucketed by an integer statistic."""

    statistic: str
    counts: dict[int, int]
    total: int

    def bucket(self, value: int) -> int:
        return self.counts.get(value, 0)

    def as_row(self, length: int, bucket_of_index=lambda k: k) -> list[int]:
        """Read the census as a triangle row: entry k = count in bucket
        bucket_of_index(k).  Raises if any bucket is left unread."""
        buckets = [bucket_of_index(k) for k in range(length)]
        missing = set(self.counts) - set(buckets)
        if missing:
            raise ValueError(f"census has buckets outside the row: {sorted(missing)}")
        return [self.counts.get(b, 0) for b in buckets]

    def __str__(self):
        lines = [f"{self.statistic}\tcount"]
        lines.extend(f"{k}\t{self.counts[k]}" for k in sorted(self.counts))
        lines.append(f"total\t{self.total}")
        return "\n".join(lines)


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, amount: int = 1):
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceeded(f"enumeration passed the budget of {self.limit} objects")


def _monomial_replacements(g: Grammar) -> dict[str, tuple[str, ...]]:
    """Each rule as the tuple of leaf letters it spawns; requires every rule
    to be a single monomial with coefficient 1 and nonnegative exponents."""
    table: dict[str, tuple[str, ...]] = {}
    for letter in g.alphabet:
        terms = g.rules[letter].terms()
        if len(terms) != 1:
            raise GrammarNotEnumerable(f"rule for {letter!r} is not a single monomial")
        (mono, coeff), = terms.items()
        if coeff != 1:
            raise GrammarNotEnumerable(f"rule for {letter!r} has coefficient {coeff}")
        if any(e < 0 for _, e in mono):
            raise GrammarNotEnumerable(f"rule for {letter!r} has a negative exponent")
        table[letter] = tuple(v for v, e in mono for _ in range(e))
    return table


def _seed_leaves(seed) -> tuple[str, ...]:
    if isinstance(seed, LaurentPoly):
        terms = seed.terms()
        if len(terms) != 1:
            raise GrammarNotEnumerable("seed must be a single monomial")
        (mono, coeff), = terms.items()
        if coeff != 1 or any(e < 0 for _, e in mono):
            raise GrammarNotEnumerable("seed must be a coefficient-1 monomial with "
                                       "nonnegative exponents")
        exponents: Mapping[str, int] = dict(mono)
    else:
        exponents = seed
    if any(e < 0 for e in exponents.values()):
        raise GrammarNotEnumerable("seed exponents must be nonnegative")
    return tuple(v for v, e in sorted(exponents.items()) for _ in range(e))


def iter_histories(g: Grammar, seed, n: int):
    """Yield every n-step derivation history as (steps, leaves): step i is
    the index of the leaf rewritten at time i+1 (indices refer to the leaf
    tuple as it stood before that step), and leaves is the final leaf tuple.

    Materialises each history; the census functions below walk the same
    tree without building the step lists.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    replacements = _monomial_replacements(g)

    def walk(leaves: tuple[str, ...], steps: tuple[int, ...]):
        if len(steps) == n:
            yield steps, leaves
            return
        for i, letter in enumerate(leaves):
            yield from walk(leaves[:i] + replacements[letter] + leaves[i + 1:],
                            steps + (i,))

    yield from walk(_seed_leaves(seed), ())


def census_vleaves(g: Grammar, seed, n: int, leaf_letter: str,
                   budget: int = DEFAULT_BUDGET) -> StructureCensus:
    """Enumerate all n-step derivation histories (a history picks one leaf
    to rewrite at each step) and bucket them by the final number of
    `leaf_letter` leaves.

    `seed` is a monomial, given as a LaurentPoly or an exponent map.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    replacements = _monomial_replacements(g)
    tracker = _Budget(budget)
    counts: dict[int, int] = {}

    def walk(leaves: tuple[str, ...], steps_left: int):
        if steps_left == 0:
            tracker.spend()
            count = sum(1 for leaf in leaves if leaf == leaf_letter)
            counts[count] = counts.get(count, 0) + 1
            return
        for i, letter in enumerate(leaves):
            walk(leaves[:i] + replacements[letter] + leaves[i + 1:], steps_left - 1)

    walk(_seed_leaves(seed), n)
    return StructureCensus(
        statistic=f"{leaf_letter}-leaves", counts=counts, total=sum(counts.values())
    )


def history_leaf_profile(g: Grammar, seed, n: int) -> list[int]:
    """Leaf counts after 0..n steps, when they are path-independent (every
    rule spawns the same number of leaves); used for structural checks."""
    replacements = _monomial_replacements(g)
    sizes = {len(r) for r in replacements.values()}
    if len(sizes) != 1:
        raise GrammarNotEnumerable("leaf growth is path-dependent for this grammar")
    step = sizes.pop() - 1
    start = len(_seed_leaves(seed))
    return [start + step * i for i in range(n + 1)]


def census_components(a0: int, a1: int, a2: int, n: int,
                      budget: int = DEFAULT_BUDGET) -> StructureCensus:
    """Histories of u -> u v^(a1+a2), v -> v^(a2+1) from the seed
    u v^(a0+a2), bucketed by how many steps rewrote the u-leaf (the number
    of spine points, i.e. connected components of the u-part)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if a1 + a2 < 0 or a2 + 1 < 0 or a0 + a2 < 0:
        raise NegativeLeafMultiplicity(
            f"need a1+a2, a2+1 and a0+a2 nonnegative, got {(a0, a1, a2)}"
        )
    tracker = _Budget(budget)
    counts: dict[int, int] = {}

    def walk(v_count: int, u_rewrites: int, steps_left: int):
        if steps_left == 0:
            tracker.spend()
            counts[u_rewrites] = counts.get(u_rewrites, 0) + 1
            return
        walk(v_count + a1 + a2, u_rewrites + 1, steps_left - 1)
        for _ in range(v_count):
            walk(v_count + a2, u_rewrites, steps_left - 1)

    walk(a0 + a2, 0, n)
    return StructureCensus(
        statistic="u-components", counts=counts, total=sum(counts.values())
    )


def _multiset_words(counts: dict[int, int]):
    """All distinct words over a multiset, lexicographically."""
    word: list[int] = []
    total = sum(counts.values())
    values = sorted(counts)

    def extend():
        if len(word) == total:
            yield tuple(word)
            return
        for value in values:
            if counts[value]:
                counts[value] -= 1
                word.append(value)
                yield from extend()
                word.pop()
                counts[value] += 1

    yield from extend()


def is_stirling_word(word: tuple[int, ...]) -> bool:
    """True iff between any two occurrences of i every letter exceeds i."""
    last_seen: dict[int, int] = {}
    for pos, value in enumerate(word):
        prev = last_seen.get(value)
        if prev is not None and any(word[j] < value for j in range(prev + 1, pos)):
            return False
        last_seen[value] = pos
    return True


def descent_count(word: tuple[int, ...]) -> int:
    """Strict internal descents: positions i with word[i] > word[i+1]."""
    return sum(1 for i in range(len(word) - 1) if word[i] > word[i + 1])


def stirling_descent_census(n: int, r: int,
                            budget: int = DEFAULT_BUDGET) -> StructureCensus:
    """All words using each of 1..n exactly r times with the betweenness
    property, bucketed by descent count."""
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    if r * n > 14:
        raise BudgetExceeded(f"r*n = {r * n} exceeds the word-length cap of 14")
    tracker = _Budget(budget)
    counts: dict[int, int] = {}
    total = 0
    for word in _multiset_words({i: r for i in range(1, n + 1)}):
        tracker.spend()
        if is_stirling_word(word):
            d = descent_count(word)
            counts[d] = counts.get(d, 0) + 1
            total += 1
    return StructureCensus(statistic="descents", counts=counts, total=total)


def r_excedance_census(n: int, r: int,
                       budget: int = DEFAULT_BUDGET) -> StructureCensus:
    """Permutations of [n] bucketed by the number of j with sigma(j) >= j+r."""
    if n < 0 or r < 0:
        raise ValueError("need n >= 0 and r >= 0")
    tracker = _Budget(budget)
    counts: dict[int, int] = {}
    for sigma in permutations(range(1, n + 1)):
        tracker.spend()
        k = sum(1 for j in range(1, n + 1) if sigma[j - 1] >= j + r)
        counts[k] = counts.get(k, 0) + 1
    return StructureCensus(
        statistic=f"{r}-excedances", counts=counts, total=sum(counts.values())
    )


def set_partition_census(n: int, budget: int = DEFAULT_BUDGET) -> StructureCensus:
    """Partitions of [n] bucketed by block count."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    tracker = _Budget(budget)
    counts: dict[int, int] = {}

    def place(i: int, blocks: int):
        # Restricted-growth walk: element i joins one of `blocks` blocks or
        # opens a new one.
        if i == n:
            tracker.spend()
            counts[blocks] = counts.get(blocks, 0) + 1
            return
        for _ in range(blocks):
            place(i + 1, blocks)
        place(i + 1, blocks + 1)

    if n == 0:
        counts[0] = 1
    else:
        place(1, 1)
    return StructureCensus(statistic="blocks", counts=counts, total=sum(counts.values()))


def cadet_leaf_census(n: int, r: int, budget: int = DEFAULT_BUDGET) -> StructureCensus:
    """Histories of x -> x^r y, y -> x^r y from the seed y, bucketed by the
    number of y-leaves (the cadet leaves of the full (r+1)-ary tree)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    g = Grammar({
        "x": LaurentPoly.from_exponents({"x": r, "y": 1}),
        "y": LaurentPoly.from_exponents({"x": r, "y": 1}),
    }, ("x", "y"))
    census = census_vleaves(g, {"y": 1}, n, "y", budget=budget)
    return StructureCensus(statistic="cadet-leaves", counts=census.counts,
                           total=census.total)
