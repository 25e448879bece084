"""Brute-force enumerators against frozen counts and the recurrence rows."""

from itertools import chain, cycle, permutations, product
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkptri import census
from gkptri.census import (
    StructureCensus,
    _monomial_replacements,
    _seed_leaves,
    _stirling_children,
    _walk,
    cadet_leaf_census,
    census_components,
    census_vleaves,
    descent_count,
    history_leaf_profile,
    is_stirling_word,
    r_excedance_census,
    set_partition_census,
    stirling_descent_census,
)
from gkptri.errors import (
    BudgetExceeded,
    GrammarNotEnumerable,
    NegativeLeafMultiplicity,
    UnknownVariable,
)
from gkptri.grammar import Grammar, hao_grammar, hao_seed, iterate_D
from gkptri.polyring import LaurentPoly
from gkptri.triangles import (
    TriangleParams,
    r_eulerian,
    recurrence_triangle,
    second_order_eulerian,
    second_order_params,
    stirling2_triangle,
    whitney_params,
)

WHITNEY_32 = hao_grammar(whitney_params(3, 2))


def flat_walk(root, depth, children):
    """Reference for census._walk: the walk that yields each node `depth` - 1
    levels below `root` on its own, one node per resume."""
    stack = [iter((root,))] if depth else []
    while stack:
        for node in stack[-1]:
            if len(stack) == depth:
                yield node
            else:
                stack.append(children(node))
                break
        else:
            stack.pop()


def recursive_components(a0, a1, a2, n):
    """Reference for census_components: the history walk by recursion."""
    counts = {}

    def walk(v_count, u_rewrites, steps_left):
        if steps_left == 0:
            counts[u_rewrites] = counts.get(u_rewrites, 0) + 1
            return
        walk(v_count + a1 + a2, u_rewrites + 1, steps_left - 1)
        for _ in range(v_count):
            walk(v_count + a2, u_rewrites, steps_left - 1)

    walk(a0 + a2, 0, n)
    return counts


def recursive_partitions(n):
    """Reference for set_partition_census: the restricted-growth walk by
    recursion."""
    counts = {}

    def place(i, blocks):
        if i == n:
            counts[blocks] = counts.get(blocks, 0) + 1
            return
        for _ in range(blocks):
            place(i + 1, blocks)
        place(i + 1, blocks + 1)

    place(0, 0)
    return counts


def recursive_histories(g, seed, n):
    """Every n-step history as (steps, leaves), by recursion: step i is the
    index of the leaf rewritten at time i+1, and leaves the final leaf tuple."""
    replacements = _monomial_replacements(g)

    def walk(leaves, steps):
        if len(steps) == n:
            yield steps, leaves
            return
        for i, letter in enumerate(leaves):
            yield from walk(leaves[:i] + replacements[letter] + leaves[i + 1:], steps + (i,))

    yield from walk(_seed_leaves(g, seed), ())


def history_buckets(g, seed, n, letter):
    """Reference for census_vleaves: bucket every materialised history."""
    counts = {}
    for _steps, leaves in recursive_histories(g, seed, n):
        k = leaves.count(letter)
        counts[k] = counts.get(k, 0) + 1
    return counts


def assert_budget_is_total(census, total):
    """The census passes with budget = total and raises with total - 1."""
    assert census(total).total == total
    if total:
        with pytest.raises(BudgetExceeded):
            census(total - 1)


@st.composite
def monomial_grammars(draw):
    exps = st.integers(0, 2)
    rules = {x: LaurentPoly.from_exponents({"u": draw(exps), "v": draw(exps)})
             for x in ("u", "v")}
    seed = {"u": draw(exps), "v": draw(exps)}
    return Grammar(rules, ("u", "v")), seed, draw(st.integers(0, 4)), draw(st.sampled_from("uv"))


def random_tree(fanouts):
    """A children rule over path tuples whose fan-outs, 0 to 3, are taken in
    turn from `fanouts` on each node's first visit."""
    fanout, seen = cycle(fanouts), {}

    def children(node):
        if node not in seen:
            seen[node] = next(fanout)
        return iter([node + (i,) for i in range(seen[node])])
    return children


class TestWalkParity:
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=40), st.integers(0, 6))
    @settings(max_examples=200, deadline=None)
    def test_flattened_families_match_the_flat_walk(self, fanouts, depth):
        children = random_tree(fanouts)
        families = _walk((), depth, children)
        assert list(chain.from_iterable(families)) == list(flat_walk((), depth, children))

    def test_shallow_walks(self):
        def children(node):
            raise AssertionError("a walk of depth 0 or 1 expands no node")
        assert list(_walk("root", 0, children)) == []
        assert [list(family) for family in _walk("root", 1, children)] == [["root"]]

    @given(monomial_grammars())
    @settings(max_examples=60, deadline=None)
    def test_vleaves_match_materialised_histories(self, case):
        g, seed, n, letter = case
        expected = history_buckets(g, seed, n, letter)
        census = census_vleaves(g, seed, n, letter)
        assert census.counts == expected
        assert_budget_is_total(
            lambda budget: census_vleaves(g, seed, n, letter, budget=budget), census.total)

    @given(st.integers(0, 2), st.integers(-1, 3), st.integers(-1, 2), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_components_match_recursion(self, a0, a1, a2, n):
        assume(a1 + a2 >= 0 and a0 + a2 >= 0)
        census = census_components(a0, a1, a2, n)
        assert census.counts == recursive_components(a0, a1, a2, n)
        assert_budget_is_total(
            lambda budget: census_components(a0, a1, a2, n, budget=budget), census.total)

    @pytest.mark.parametrize("a0, a1, a2", [(1, 1, 1), (0, 2, 1), (2, 0, 0), (1, 3, -1)])
    def test_component_budget_at_n6(self, a0, a1, a2):
        census = census_components(a0, a1, a2, 6)
        assert census.counts == recursive_components(a0, a1, a2, 6)
        assert_budget_is_total(
            lambda budget: census_components(a0, a1, a2, 6, budget=budget), census.total)

    def test_partitions_match_recursion(self):
        for n in range(1, 11):
            census = set_partition_census(n)
            assert census.counts == recursive_partitions(n)
            assert_budget_is_total(
                lambda budget: set_partition_census(n, budget=budget), census.total)


def filtered_stirling_words(n, r):
    """Reference for the insertion census: every word on the multiset
    {1^r, ..., n^r}, kept when it is a Stirling word."""
    def extend(word, left):
        if not any(left.values()):
            yield tuple(word)
            return
        for value in sorted(left):
            if left[value]:
                left[value] -= 1
                word.append(value)
                yield from extend(word, left)
                word.pop()
                left[value] += 1

    words = extend([], {i: r for i in range(1, n + 1)})
    return [word for word in words if is_stirling_word(word)]


def insertion_levels(n, r):
    """The words of sizes 0..n made by inserting i^r into every gap."""
    levels = [[()]]
    for i in range(1, n + 1):
        levels.append([child for word in levels[-1]
                       for child in _stirling_children(word, i, r)])
    return levels


class TestVLeafCensus:
    def test_matches_displayed_coefficients(self):
        census = census_vleaves(WHITNEY_32, {"u": 1, "v": 2}, 2, "v")
        assert census.counts == {8: 1, 5: 13, 2: 4}

    def test_zero_steps(self):
        census = census_vleaves(WHITNEY_32, {"u": 1, "v": 2}, 0, "v")
        assert census.counts == {2: 1}
        assert census.total == 1

    def test_total_counts_all_histories(self):
        g = hao_grammar(whitney_params(2, 1))
        census = census_vleaves(g, hao_seed(whitney_params(2, 1)), 3, "v")
        assert census.total == 2 ** 3 * factorial(3)

    def test_buckets_match_derivative_coefficients(self):
        # Bucket counts are exactly the coefficients of D^n grouped by
        # v-degree, for every n in a small battery.
        seed = hao_seed(whitney_params(3, 1))
        levels = iterate_D(WHITNEY_32, seed, 3)
        for n, poly in enumerate(levels):
            census = census_vleaves(WHITNEY_32, seed, n, "v")
            expected = {}
            for mono, coeff in poly.terms().items():
                expected[dict(mono).get("v", 0)] = coeff
            assert census.counts == expected

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            census_vleaves(WHITNEY_32, {"u": 1, "v": 2}, 5, "v", budget=100)

    def test_rejects_sum_rules(self):
        g = Grammar.from_text("u -> u + v\nv -> v")
        with pytest.raises(GrammarNotEnumerable):
            census_vleaves(g, {"u": 1}, 1, "v")

    def test_rejects_coefficient_rules(self):
        g = Grammar.from_text("u -> 2*u*v\nv -> v")
        with pytest.raises(GrammarNotEnumerable):
            census_vleaves(g, {"u": 1}, 1, "v")

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_rejects_seed_letter_outside_alphabet(self, n):
        g = Grammar.from_text("u -> u*v\nv -> v")
        with pytest.raises(UnknownVariable, match="'w'"):
            census_vleaves(g, {"u": 1, "w": 1}, n, "v")

    def test_leaf_profile(self):
        for m in (1, 2, 3):
            params = whitney_params(m, min(1, m))
            profile = history_leaf_profile(
                hao_grammar(params), hao_seed(params), 5
            )
            assert profile == [m * (i + 1) for i in range(6)]

    def test_leaf_profile_path_dependent(self):
        g = Grammar.from_text("u -> u*v\nv -> v")
        with pytest.raises(GrammarNotEnumerable):
            history_leaf_profile(g, {"u": 1}, 3)


class TestHistories:
    def test_deep_walk_needs_no_recursion(self):
        g = Grammar.from_text("u -> u\nv -> v")
        assert census_vleaves(g, {"u": 1}, 1500, "u").counts == {1: 1}

    @pytest.mark.parametrize("m, r", [(m, r) for m in (1, 2, 3) for r in range(m + 1)])
    def test_matches_recursive_walk(self, m, r):
        params = whitney_params(m, r)
        g, seed = hao_grammar(params), hao_seed(params)
        for n in range(6):
            assert census_vleaves(g, seed, n, "v").counts == history_buckets(g, seed, n, "v")


class TestComponentCensus:
    def test_matches_b_unit_recurrence(self):
        for a0, a1, a2 in product((0, 1, 2), (1, 2, 3), (1, 2, 3)):
            tri = recurrence_triangle(TriangleParams(a0, a1, a2, 1, 0, 0), 3)
            for n in range(4):
                census = census_components(a0, a1, a2, n)
                assert census.as_row(n + 1) == [tri.entry(n, k) for k in range(n + 1)]

    def test_zero_steps(self):
        assert census_components(1, 1, 1, 0).counts == {0: 1}

    def test_all_steps_on_spine_unique(self):
        census = census_components(0, 1, 1, 3)
        assert census.bucket(3) == 1

    def test_negative_multiplicity(self):
        with pytest.raises(NegativeLeafMultiplicity):
            census_components(0, -3, 1, 2)


class TestStirlingWords:
    def test_word_predicate(self):
        assert is_stirling_word((1, 2, 2, 1))
        assert is_stirling_word((1, 1, 2, 2))
        assert not is_stirling_word((2, 1, 2, 1))
        assert not is_stirling_word((2, 1, 1, 2))

    def test_descent_count(self):
        assert descent_count((1, 2, 2, 1)) == 1
        assert descent_count((1, 1, 2, 2)) == 0
        assert descent_count((2, 2, 1, 1)) == 1

    def test_census_n2_r2(self):
        census = stirling_descent_census(2, 2)
        assert census.counts == {0: 1, 1: 2}
        assert census.total == 3

    def test_single_letter(self):
        for r in (1, 2, 3):
            assert stirling_descent_census(1, r).counts == {0: 1}

    def test_census_n3_r2(self):
        census = stirling_descent_census(3, 2)
        assert census.counts == {0: 1, 1: 8, 2: 6}
        assert census.total == 15

    def test_matches_second_order_rows(self):
        for r in (1, 2, 3):
            tri = second_order_eulerian(r, 4)
            for n in range(5):
                census = stirling_descent_census(n, r)
                assert census.as_row(n + 1) == [tri.entry(n, k) for k in range(n + 1)]

    @pytest.mark.parametrize("r", (1, 2, 3))
    def test_matches_filtered_multiset_words(self, r):
        for n, made in enumerate(insertion_levels(4, r)):
            words = filtered_stirling_words(n, r)
            expected = {}
            for word in words:
                expected[descent_count(word)] = expected.get(descent_count(word), 0) + 1
            census = stirling_descent_census(n, r)
            assert census.counts == expected
            assert census.total == len(words)
            assert len(made) == len(set(made))
            assert set(made) == set(words)

    @pytest.mark.parametrize("r", (1, 2, 3))
    def test_children_split_by_the_recurrence(self, r):
        # Each word of size n-1 with k descents has coeff_a(n, k) children
        # with k descents and coeff_b(n, k+1) with k+1: the recurrence of
        # the second-order triangle, word by word.
        p = second_order_params(r)
        for n, words in enumerate(insertion_levels(4, r), start=1):
            for word in words:
                k = descent_count(word)
                split = {}
                for child in _stirling_children(word, n, r):
                    d = descent_count(child)
                    split[d] = split.get(d, 0) + 1
                got = (split.pop(k, 0), split.pop(k + 1, 0), split)
                want = (p.coeff_a(n, k), p.coeff_b(n, k + 1), {})
                assert got == want, f"word {word} ({k} descents) splits {got}, not {want}"

    def test_budget_counts_every_size(self):
        # (4, 3) makes 1 + 1 + 4 + 28 + 280 words on the way to row 4.
        with pytest.raises(BudgetExceeded):
            stirling_descent_census(4, 3, budget=313)
        assert stirling_descent_census(4, 3, budget=314).total == 280

    def test_word_length_cap(self):
        with pytest.raises(BudgetExceeded):
            stirling_descent_census(8, 2, budget=1_000)
        row = second_order_eulerian(3, 5).rows[5]
        assert stirling_descent_census(5, 3).as_row(6) == row


class TestExcedanceCensus:
    def test_classical_row(self):
        assert r_excedance_census(3, 1).counts == {0: 1, 1: 4, 2: 1}

    def test_r_larger_than_n(self):
        census = r_excedance_census(3, 5)
        assert census.counts == {0: 6}

    def test_weak_case_row(self):
        assert r_excedance_census(2, 0).counts == {1: 1, 2: 1}

    def test_matches_rows_for_r01(self):
        for r in (0, 1):
            tri = r_eulerian(r, 6)
            for n in range(7):
                census = r_excedance_census(n, r)
                assert census.as_row(n + 1) == [tri.entry(n, k) for k in range(n + 1)]

    def test_r2_differs_from_recurrence_family(self):
        # The recurrence family propagated from T(0,0) = 1 leaves the
        # excedance counts as soon as r >= 2 (it even goes negative); the
        # census is the combinatorial truth.
        assert r_excedance_census(1, 2).counts == {0: 1}
        assert r_eulerian(2, 1).rows[1] == [2, -1]

    def test_size_cap(self):
        with pytest.raises(BudgetExceeded):
            r_excedance_census(9, 1, budget=362_879)
        assert r_excedance_census(9, 1).total == factorial(9)

    def test_matches_the_textbook_count(self):
        for n in range(8):
            for r in range(n + 2):
                expected = {}
                for sigma in permutations(range(1, n + 1)):
                    k = sum(1 for j in range(1, n + 1) if sigma[j - 1] >= j + r)
                    expected[k] = expected.get(k, 0) + 1
                assert r_excedance_census(n, r).counts == expected

    def test_spends_n_factorial_before_enumerating(self, monkeypatch):
        def no_permutations(*args):
            raise AssertionError("enumerated past the budget")
        monkeypatch.setattr(census, "permutations", no_permutations)
        with pytest.raises(BudgetExceeded):
            r_excedance_census(12, 0)


class TestPartitionCensus:
    def test_known_row(self):
        assert set_partition_census(4).counts == {1: 1, 2: 7, 3: 6, 4: 1}

    def test_empty_set(self):
        assert set_partition_census(0).counts == {0: 1}

    def test_census_equality(self):
        assert set_partition_census(3) == StructureCensus("blocks", {1: 1, 2: 3, 3: 1})
        assert set_partition_census(3) != StructureCensus("descents", {1: 1, 2: 3, 3: 1})
        assert set_partition_census(3) != StructureCensus("blocks", {1: 1, 2: 3})

    def test_no_zero_bucket_and_recursive_text(self):
        for n in range(10):
            census = set_partition_census(n)
            assert 0 not in census.counts.values()
            assert str(census) == str(StructureCensus("blocks", recursive_partitions(n)))

    def test_matches_stirling_rows(self):
        tri = stirling2_triangle(7)
        for n in range(8):
            census = set_partition_census(n)
            assert census.as_row(n + 1) == [tri.entry(n, k) for k in range(n + 1)]


class TestCadetCensus:
    def test_single_step(self):
        assert cadet_leaf_census(1, 2).counts == {1: 1}

    def test_three_steps(self):
        assert cadet_leaf_census(3, 2).counts == {1: 1, 2: 8, 3: 6}

    def test_matches_second_order_shifted(self):
        tri = second_order_eulerian(2, 4)
        for n in range(5):
            census = cadet_leaf_census(n, 2)
            expected = {
                k + 1: tri.entry(n, k) for k in range(n + 1) if tri.entry(n, k)
            }
            assert census.counts == expected

    def test_totals_are_odd_double_factorials(self):
        # 1, 3, 15, 105 structures: each step picks one of 1, 3, 5, 7 leaves.
        totals = [cadet_leaf_census(n, 2).total for n in range(1, 5)]
        assert totals == [1, 3, 15, 105]

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_matches_the_hand_built_grammar(self, r):
        # x -> x^r y, y -> x^r y from the seed y, counting y-leaves.
        rule = LaurentPoly.from_exponents({"x": r, "y": 1})
        g = Grammar({"x": rule, "y": rule}, ("x", "y"))

        def outcome(census, *args):
            try:
                return census(*args).counts
            except BudgetExceeded as exc:
                return str(exc)
        for n in range(7):
            assert cadet_leaf_census(n, r).statistic == "cadet-leaves"
            for budget in (1, 10, 100, 1000, 10 ** 4, 10 ** 5, 10 ** 6):
                assert (outcome(cadet_leaf_census, n, r, budget)
                        == outcome(census_vleaves, g, {"y": 1}, n, "y", budget))

    def test_needs_positive_r(self):
        with pytest.raises(ValueError, match="^r must be >= 1$"):
            cadet_leaf_census(2, 0)
