"""Knapsack DPs against brute force."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OptimizationError
from repro.optimizer import max_value_knapsack, min_weight_cover


def brute_force_max_value(weights, values, capacity):
    best_value, best_weight = 0.0, 0
    n = len(weights)
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            w = sum(weights[i] for i in combo)
            v = sum(values[i] for i in combo)
            if w <= capacity and (
                v > best_value or (v == best_value and w < best_weight)
            ):
                best_value, best_weight = v, w
    return best_value


def brute_force_min_cover(weights, values, required):
    best = None
    n = len(weights)
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            v = sum(values[i] for i in combo)
            if v < required:
                continue
            w = sum(weights[i] for i in combo)
            if best is None or w < best:
                best = w
    return best


def uncapped_max_value(weights, values, capacity):
    """The DP over the full capacity, before the total-weight cap."""
    free = [i for i, w in enumerate(weights) if w <= 0 and values[i] >= 0]
    core = [i for i in range(len(weights)) if i not in free]
    capacity -= sum(weights[i] for i in free)
    dp = [0.0] * (capacity + 1)
    taken = [[False] * (capacity + 1) for _ in core]
    for row, i in enumerate(core):
        w, v = weights[i], values[i]
        if w > capacity:
            continue
        for c in range(capacity, w - 1, -1):
            if dp[c - w] + v > dp[c]:
                dp[c] = dp[c - w] + v
                taken[row][c] = True
    c = max(range(capacity + 1), key=lambda c: dp[c])
    chosen = list(free)
    for row in range(len(core) - 1, -1, -1):
        if taken[row][c]:
            chosen.append(core[row])
            c -= weights[core[row]]
    return tuple(sorted(chosen))


class TestMaxValue:
    def test_textbook_instance(self):
        solution = max_value_knapsack([3, 4, 5], [4.0, 5.0, 6.0], 7)
        assert solution.chosen == (0, 1)
        assert solution.total_value == 9.0

    def test_empty_items(self):
        solution = max_value_knapsack([], [], 10)
        assert solution.chosen == ()

    def test_zero_capacity_takes_only_free_items(self):
        solution = max_value_knapsack([0, 5], [1.0, 10.0], 0)
        assert solution.chosen == (0,)

    def test_negative_weight_items_enlarge_capacity(self):
        # Item 0 pays for item 1.
        solution = max_value_knapsack([-5, 5], [1.0, 10.0], 0)
        assert solution.chosen == (0, 1)
        assert solution.pre_accepted == (0,)

    def test_negative_capacity_with_rescuing_items(self):
        solution = max_value_knapsack([-10, 4], [1.0, 2.0], -2)
        assert 0 in solution.chosen
        assert 1 in solution.chosen  # capacity -2 + 10 = 8 >= 4

    def test_negative_capacity_unrescued(self):
        solution = max_value_knapsack([3], [1.0], -1)
        assert solution.chosen == ()

    def test_negative_values_rejected(self):
        with pytest.raises(OptimizationError):
            max_value_knapsack([1], [-1.0], 10)

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(OptimizationError):
            max_value_knapsack([1, 2], [1.0], 10)

    @given(
        items=st.lists(
            st.tuples(
                st.integers(min_value=-5, max_value=40),
                # Few distinct values, so ties between subsets are common.
                st.sampled_from([0.0, 1.0, 2.5, 4.0]),
            ),
            max_size=8,
        ),
        slack=st.integers(min_value=0, max_value=5000),
    )
    @settings(max_examples=80, deadline=None)
    def test_capped_dp_matches_uncapped_dp(self, items, slack):
        # Capacities far beyond the items' total weight: the DP is
        # capped at that total, and must pick the very same subset.
        weights = [w for w, _ in items]
        values = [v for _, v in items]
        capacity = sum(w for w in weights if w > 0) + slack
        solution = max_value_knapsack(weights, values, capacity)
        assert solution.chosen == uncapped_max_value(weights, values, capacity)

    def test_table_does_not_scale_with_the_budget(self):
        # A budget of 10**15 cents would need a petabyte-scale table
        # if the DP were sized by the budget.
        solution = max_value_knapsack([3, 4, 5], [4.0, 5.0, 6.0], 10**15)
        assert solution.chosen == (0, 1, 2)

    @given(
        items=st.lists(
            st.tuples(
                st.integers(min_value=-20, max_value=60),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            max_size=9,
        ),
        capacity=st.integers(min_value=-20, max_value=150),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force_value(self, items, capacity):
        weights = [w for w, _ in items]
        values = [v for _, v in items]
        solution = max_value_knapsack(weights, values, capacity)
        # The DP must respect the capacity whenever brute force can.
        if solution.total_weight <= capacity:
            expected = brute_force_max_value(weights, values, capacity)
            assert solution.total_value == pytest.approx(expected)
        else:
            # Only possible when even the free items overshoot a
            # negative capacity; the solution is exactly the free set.
            assert capacity < 0
            assert set(solution.chosen) == set(solution.pre_accepted)


class TestMinCover:
    def test_textbook_instance(self):
        solution = min_weight_cover([5, 3, 4], [4, 2, 3], 5)
        assert solution.chosen == (1, 2)
        assert solution.total_weight == 7

    def test_zero_requirement_takes_only_free_items(self):
        solution = min_weight_cover([2, -1], [3, 1], 0)
        assert solution.chosen == (1,)

    def test_unreachable_requirement_raises(self):
        with pytest.raises(OptimizationError, match="unreachable"):
            min_weight_cover([1, 1], [2, 3], 10)

    def test_negative_values_rejected(self):
        with pytest.raises(OptimizationError):
            min_weight_cover([1], [-1], 1)

    @given(
        items=st.lists(
            st.tuples(
                st.integers(min_value=-20, max_value=60),
                st.integers(min_value=0, max_value=30),
            ),
            max_size=9,
        ),
        required=st.integers(min_value=0, max_value=80),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force_weight(self, items, required):
        weights = [w for w, _ in items]
        values = [v for _, v in items]
        expected = brute_force_min_cover(weights, values, required)
        if expected is None:
            with pytest.raises(OptimizationError):
                min_weight_cover(weights, values, required)
            return
        solution = min_weight_cover(weights, values, required)
        assert solution.total_value >= required
        assert solution.total_weight == expected
