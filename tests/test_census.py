"""Brute-force enumerators against frozen counts and the recurrence rows."""

from itertools import product
from math import factorial

import pytest

from gkptri.census import (
    cadet_leaf_census,
    census_components,
    census_vleaves,
    descent_count,
    history_leaf_profile,
    is_stirling_word,
    iter_histories,
    r_excedance_census,
    set_partition_census,
    stirling_descent_census,
)
from gkptri.errors import (
    BudgetExceeded,
    GrammarNotEnumerable,
    NegativeLeafMultiplicity,
)
from gkptri.grammar import Grammar, hao_grammar, hao_seed, iterate_D
from gkptri.triangles import (
    TriangleParams,
    r_eulerian,
    recurrence_triangle,
    second_order_eulerian,
    stirling2_triangle,
    whitney_params,
)

WHITNEY_32 = hao_grammar(whitney_params(3, 2))


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
    def test_step_indices_stay_in_range(self):
        histories = list(iter_histories(WHITNEY_32, {"u": 1, "v": 2}, 2))
        assert len(histories) == 3 * 6  # leaves grow 3, 6, 9
        for steps, leaves in histories:
            assert len(steps) == 2
            assert 0 <= steps[0] < 3 and 0 <= steps[1] < 6
            assert len(leaves) == 9

    def test_explicit_histories_match_census(self):
        buckets = {}
        for _steps, leaves in iter_histories(WHITNEY_32, {"u": 1, "v": 2}, 2):
            count = sum(1 for leaf in leaves if leaf == "v")
            buckets[count] = buckets.get(count, 0) + 1
        census = census_vleaves(WHITNEY_32, {"u": 1, "v": 2}, 2, "v")
        assert buckets == census.counts

    def test_zero_steps(self):
        assert list(iter_histories(WHITNEY_32, {"u": 1}, 0)) == [((), ("u",))]


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

    def test_word_length_cap(self):
        with pytest.raises(BudgetExceeded):
            stirling_descent_census(8, 2)


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


class TestPartitionCensus:
    def test_known_row(self):
        assert set_partition_census(4).counts == {1: 1, 2: 7, 3: 6, 4: 1}

    def test_empty_set(self):
        assert set_partition_census(0).counts == {0: 1}

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
