"""Brute-force enumeration of the combinatorial structures behind the
triangles: derivation histories of a grammar, permutations by r-excedances,
Stirling r-permutations by descents, set partitions, and cadet-leaf trees.

These enumerators exist to cross-check the algebra at desk scale.  They are
deliberately independent of the recurrence and grammar machinery: each one
walks raw objects (leaf sequences, words, permutations) and reads the
statistic off each finished object.  The walks generate objects rather than
filter them: Stirling words grow by inserting the block i^r into a gap,
histories by rewriting a leaf, partitions by placing the next element.
The walks keep an explicit stack, not Python's call stack, so any n is
safe, and yield sibling families, the children of one node, whose objects
are read off one by one and spent against the budget in one sum.  Every
operation aborts with BudgetExceeded once it has touched more than `budget`
objects (default 10**7), at most one family late; the Stirling walk counts
the words of every size, and has no other size cap.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import chain, permutations, repeat
from math import factorial
from operator import ge

from .errors import (
    BudgetExceeded,
    GrammarNotEnumerable,
    NegativeLeafMultiplicity,
    UnknownVariable,
)
from .grammar import Grammar, hao_grammar, hao_seed
from .polyring import LaurentPoly
from .triangles import second_order_params

DEFAULT_BUDGET = 10_000_000


class StructureCensus:
    """Counts of enumerated structures bucketed by an integer statistic."""

    def __init__(self, statistic: str, counts: dict[int, int]):
        self.statistic = statistic
        self.counts = counts

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    @property
    def total(self) -> int:
        return sum(self.counts.values())

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


def _walk(root, depth: int, children):
    """Walk the tree below `root` depth first on a stack of child iterators,
    yielding the sibling families `depth` - 1 levels down: the iterator over
    the children of each node one level above them, which the caller loops
    over and pays for in one budget spend.  Depth 1 yields the root's
    one-element family; depth 0 yields nothing."""
    stack = [iter((root,))] if depth else []
    while stack:
        if len(stack) == depth:
            yield stack.pop()
            continue
        for node in stack[-1]:
            stack.append(children(node))
            break
        else:
            stack.pop()


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


def _seed_leaves(g: Grammar, seed) -> tuple[str, ...]:
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
    leaves = tuple(v for v, e in sorted(exponents.items()) for _ in range(e))
    extra = set(leaves) - set(g.alphabet)
    if extra:
        raise UnknownVariable(f"seed mentions {sorted(extra)} outside the alphabet")
    return leaves


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
    seed_leaves = _seed_leaves(g, seed)
    counts = {seed_leaves.count(leaf_letter): 1} if n == 0 else {}
    tracker.spend(n == 0)  # at n = 0 the seed is the one history
    # the last rewrite, of an x-leaf, changes the leaf_letter count by delta[x]
    delta = {x: r.count(leaf_letter) - (x == leaf_letter) for x, r in replacements.items()}

    def children(node: tuple[str, ...]):
        return (node[:i] + replacements[x] + node[i + 1:] for i, x in enumerate(node))

    for family in _walk(seed_leaves, n, children):
        spent = 0
        for leaves in family:
            spent += len(leaves)
            count = leaves.count(leaf_letter)
            for x in set(leaves):
                counts[count + delta[x]] = counts.get(count + delta[x], 0) + leaves.count(x)
        tracker.spend(spent)
    return StructureCensus(f"{leaf_letter}-leaves", counts)


def history_leaf_profile(g: Grammar, seed, n: int) -> list[int]:
    """Leaf counts after 0..n steps, when they are path-independent (every
    rule spawns the same number of leaves); used for structural checks."""
    replacements = _monomial_replacements(g)
    sizes = {len(r) for r in replacements.values()}
    if len(sizes) != 1:
        raise GrammarNotEnumerable("leaf growth is path-dependent for this grammar")
    step = sizes.pop() - 1
    start = len(_seed_leaves(g, seed))
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
    counts = {0: 1} if n == 0 else {}
    tracker.spend(n == 0)  # at n = 0 the seed is the one history

    def children(node: tuple[int, int]):
        # (v-leaves, u-rewrites): rewrite the u-leaf, or one of the v-leaves
        v_count, u_rewrites = node
        return chain(((v_count + a1 + a2, u_rewrites + 1),),
                     repeat((v_count + a2, u_rewrites), v_count))

    for family in _walk((a0 + a2, 0), n, children):
        spent = 0
        for v_count, u_rewrites in family:
            spent += v_count + 1
            counts[u_rewrites + 1] = counts.get(u_rewrites + 1, 0) + 1
            if v_count:
                counts[u_rewrites] = counts.get(u_rewrites, 0) + v_count
        tracker.spend(spent)
    return StructureCensus("u-components", counts)


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


def _stirling_children(word: tuple[int, ...], i: int, r: int):
    """The r(i-1)+1 words made by inserting the block i^r into each gap of
    `word`, a Stirling r-permutation of [i-1]."""
    block = (i,) * r
    return (word[:gap] + block + word[gap:] for gap in range(len(word) + 1))


def stirling_descent_census(n: int, r: int,
                            budget: int = DEFAULT_BUDGET) -> StructureCensus:
    """Stirling r-permutations of [n] (each of 1..n r times, every letter
    between two copies of i larger than i), bucketed by descent count.

    The words are built by insertion (Gessel & Stanley, JCTA 24, 1978): a
    word on [i] is a word on [i-1] with the block i^r put into one of its
    r(i-1)+1 gaps, so a depth-first walk makes each word once and discards
    none.  Every word the walk makes, at every size from 0 to n, counts
    against the budget; since the number of words of each size is known in
    advance, a census that would pass the budget raises before it starts.
    The descents are read off each finished word, which is also checked to
    be a Stirling word.
    """
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    tracker = _Budget(budget)
    words = 1
    tracker.spend(words)
    for i in range(1, n + 1):
        words *= r * (i - 1) + 1
        tracker.spend(words)
    counts = {0: 1} if n == 0 else {}

    walk = _walk((), n, lambda word: _stirling_children(word, len(word) // r + 1, r))
    for word in chain.from_iterable(walk):
        for child in _stirling_children(word, n, r):
            if not is_stirling_word(child):
                raise AssertionError(f"insertion made {child}, which is not a Stirling word")
            d = descent_count(child)
            counts[d] = counts.get(d, 0) + 1
    return StructureCensus("descents", counts)


def r_excedance_census(n: int, r: int,
                       budget: int = DEFAULT_BUDGET) -> StructureCensus:
    """Permutations of [n] bucketed by the number of j with sigma(j) >= j+r.
    All n! of them count against the budget before the first is made."""
    if n < 0 or r < 0:
        raise ValueError("need n >= 0 and r >= 0")
    _Budget(budget).spend(factorial(n))
    counts: dict[int, int] = {}
    thresholds = range(1 + r, n + 1 + r)  # sigma(j) >= j + r, for j = 1..n
    for sigma in permutations(range(1, n + 1)):
        k = sum(map(ge, sigma, thresholds))
        counts[k] = counts.get(k, 0) + 1
    return StructureCensus(f"{r}-excedances", counts)


def set_partition_census(n: int, budget: int = DEFAULT_BUDGET) -> StructureCensus:
    """Partitions of [n] bucketed by block count."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    tracker = _Budget(budget)
    tally = [int(n == 0)] + [0] * n  # tally[k]: partitions into k blocks

    # Restricted-growth walk from the empty partition: the next element
    # opens a new block or joins one of the `blocks` blocks.
    for family in _walk(0, n, lambda blocks: chain((blocks + 1,), repeat(blocks, blocks))):
        spent = 0
        for blocks in family:
            spent += blocks + 1
            tally[blocks] += blocks
            tally[blocks + 1] += 1
        tracker.spend(spent)
    return StructureCensus("blocks", {k: c for k, c in enumerate(tally) if c})


def cadet_leaf_census(n: int, r: int, budget: int = DEFAULT_BUDGET) -> StructureCensus:
    """Histories of u -> u^r v, v -> u^r v (second-order grammar) from the seed
    v, bucketed by the number of v-leaves (the cadet leaves of the full (r+1)-ary tree)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    p = second_order_params(r)
    census = census_vleaves(hao_grammar(p), hao_seed(p), n, "v", budget=budget)
    return StructureCensus("cadet-leaves", census.counts)
