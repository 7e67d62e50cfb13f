"""0/1 knapsack dynamic programs.

Section 5.2 of the paper: "we solve the Knapsack 0/1 problem [14]
considering this set [of candidate views] ... we have opted for a
dynamic programming approach."  Two classical variants cover the three
scenarios:

* :func:`max_value_knapsack` — maximize value under a weight capacity
  (MV1: value = hours saved, weight = net dollar cost in cents,
  capacity = budget slack).
* :func:`min_weight_cover` — minimize weight while reaching a required
  value (MV2: value = hours saved in seconds, weight = net dollar
  cost, requirement = how far the baseline overshoots the deadline).

Weights may be **negative** (a view whose compute savings exceed its
own cost).  The preprocessing both solvers share: an item with
``weight <= 0`` and ``value >= 0`` dominates not taking it, so it is
accepted up front and the capacity/requirement adjusted — the textbook
reduction to the non-negative core problem.

These DPs are exact for the *stated* integer problem; the modelling
approximation (per-view independence) is the caller's, per the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import OptimizationError

__all__ = ["KnapsackSolution", "max_value_knapsack", "min_weight_cover"]


@dataclass(frozen=True)
class KnapsackSolution:
    """Chosen item indexes plus the DP's own accounting."""

    chosen: Tuple[int, ...]
    total_value: float
    total_weight: int
    #: Items accepted in preprocessing because they were free or better.
    pre_accepted: Tuple[int, ...] = ()


def _split_free_items(
    weights: Sequence[int], values: Sequence[float]
) -> Tuple[List[int], List[int]]:
    """Indexes of dominating (take-always) vs. core items."""
    free: List[int] = []
    core: List[int] = []
    for i, (w, v) in enumerate(zip(weights, values)):
        if w <= 0 and v >= 0:
            free.append(i)
        else:
            core.append(i)
    return free, core


def max_value_knapsack(
    weights: Sequence[int],
    values: Sequence[float],
    capacity: int,
) -> KnapsackSolution:
    """Maximize total value with total weight <= capacity.

    Weights are integers (cents); values are floats (hours saved).
    Items with non-positive weight and non-negative value are accepted
    unconditionally and enlarge the effective capacity.

    >>> max_value_knapsack([3, 4, 5], [4.0, 5.0, 6.0], 7).chosen
    (0, 1)
    """
    if len(weights) != len(values):
        raise OptimizationError("weights and values must align")
    if any(v < 0 for v in values):
        raise OptimizationError(
            "negative values are never worth carrying; filter them out"
        )

    free, core = _split_free_items(weights, values)
    effective_capacity = capacity - sum(weights[i] for i in free)
    if effective_capacity < 0:
        # Even the free items overshoot: the caller's capacity was
        # already negative.  Report the free set alone; the caller
        # decides feasibility on exact re-evaluation.
        return KnapsackSolution(
            chosen=tuple(free),
            total_value=sum(values[i] for i in free),
            total_weight=sum(weights[i] for i in free),
            pre_accepted=tuple(free),
        )

    # Past the core items' total weight the DP row is flat (every
    # core weight is > 0 here), and the walk-back starts from the
    # first maximum, so capping the table there is exact: its size
    # is bounded by the items, not by the budget.
    effective_capacity = min(
        effective_capacity, sum(weights[i] for i in core)
    )

    # Classic DP over capacity, parent-tracked per item.
    dp = [0.0] * (effective_capacity + 1)
    taken = [[False] * (effective_capacity + 1) for _ in core]
    for row, i in enumerate(core):
        w, v = weights[i], values[i]
        if w > effective_capacity:
            continue
        for c in range(effective_capacity, w - 1, -1):
            candidate = dp[c - w] + v
            if candidate > dp[c]:
                dp[c] = candidate
                taken[row][c] = True

    # Walk back from the best capacity.
    best_c = max(range(effective_capacity + 1), key=lambda c: dp[c])
    chosen_core: List[int] = []
    c = best_c
    for row in range(len(core) - 1, -1, -1):
        if taken[row][c]:
            chosen_core.append(core[row])
            c -= weights[core[row]]
    chosen = sorted(free + chosen_core)
    return KnapsackSolution(
        chosen=tuple(chosen),
        total_value=sum(values[i] for i in chosen),
        total_weight=sum(weights[i] for i in chosen),
        pre_accepted=tuple(free),
    )


def min_weight_cover(
    weights: Sequence[int],
    values: Sequence[int],
    required_value: int,
) -> KnapsackSolution:
    """Minimize total weight with total value >= required_value.

    Values are non-negative integers (seconds of saving); weights are
    integers (cents, may be negative).  Raises
    ``OptimizationError`` when even taking everything cannot reach the
    requirement — the caller translates that into scenario
    infeasibility.

    >>> min_weight_cover([5, 3, 4], [4, 2, 3], 5).chosen
    (1, 2)
    """
    if len(weights) != len(values):
        raise OptimizationError("weights and values must align")
    if any(v < 0 for v in values):
        raise OptimizationError("coverage values cannot be negative")

    free, core = _split_free_items(weights, values)
    remaining = required_value - sum(values[i] for i in free)
    if remaining <= 0:
        return KnapsackSolution(
            chosen=tuple(free),
            total_value=sum(values[i] for i in free),
            total_weight=sum(weights[i] for i in free),
            pre_accepted=tuple(free),
        )
    if sum(values[i] for i in core) < remaining:
        raise OptimizationError(
            "required coverage unreachable even with every item"
        )

    # dp[s] = min weight achieving saving >= s, s in [0, remaining].
    infinity = float("inf")
    dp: List[float] = [infinity] * (remaining + 1)
    dp[0] = 0.0
    parent: List[List[bool]] = [[False] * (remaining + 1) for _ in core]
    for row, i in enumerate(core):
        w, v = weights[i], values[i]
        for s in range(remaining, -1, -1):
            source = max(0, s - v)
            if dp[source] + w < dp[s]:
                dp[s] = dp[source] + w
                parent[row][s] = True

    if dp[remaining] == infinity:
        raise OptimizationError("required coverage unreachable")

    chosen_core: List[int] = []
    s = remaining
    for row in range(len(core) - 1, -1, -1):
        if parent[row][s]:
            i = core[row]
            chosen_core.append(i)
            s = max(0, s - values[i])
    chosen = sorted(free + chosen_core)
    return KnapsackSolution(
        chosen=tuple(chosen),
        total_value=sum(values[i] for i in chosen),
        total_weight=sum(weights[i] for i in chosen),
        pre_accepted=tuple(free),
    )
