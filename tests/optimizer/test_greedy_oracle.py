"""Greedy equivalence oracle: scoring each outcome once changes nothing.

The greedy scores every candidate outcome once and keeps the best key
in a local, instead of re-scoring the incumbent at every comparison.
The reference below is the earlier, score-on-every-comparison greedy,
kept verbatim.  On seeded lattice worlds, under MV1, MV2, MV3 and a
fairness-constrained scenario, with the pricing kernel on and off,
both must choose the same subset, report a ``repr``-equal outcome and
leave the problem with equal evaluation counters — the simulator's
ledgers carry those counters, so a changed call pattern would show.
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, Optional

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cube import CandidateView, generate_lattice_inputs
from repro.errors import InfeasibleProblemError
from repro.optimizer import FairShareScenario, SelectionProblem, mv1, mv2, mv3
from repro.optimizer.greedy import greedy_select
from repro.optimizer.problem import SelectionOutcome, SubsetEvaluationCache


# -- the reference: the greedy as it was before scoring once ----------------


def _reference_repair(problem, scenario, current: FrozenSet[str]):
    while not scenario.feasible(problem.evaluate(current)):
        best_name: Optional[str] = None
        best_violation = scenario.violation(problem.evaluate(current))
        for name in problem.candidate_names:
            if name in current:
                continue
            outcome = problem.evaluate(current | {name})
            if scenario.violation(outcome) < best_violation:
                best_violation = scenario.violation(outcome)
                best_name = name
        if best_name is None:
            raise InfeasibleProblemError(
                f"greedy cannot reach feasibility for {scenario.describe()}"
            )
        current = current | {best_name}
    return current


def _reference_best_addition(problem, scenario, current: FrozenSet[str]):
    base_key = scenario.key(problem.evaluate(current))
    best: Optional[SelectionOutcome] = None
    for name in problem.candidate_names:
        if name in current:
            continue
        outcome = problem.evaluate(current | {name})
        if not scenario.feasible(outcome):
            continue
        if scenario.key(outcome) >= base_key:
            continue
        if best is None or scenario.key(outcome) < scenario.key(best):
            best = outcome
    return best


def _reference_drop_pass(problem, scenario, current: FrozenSet[str]):
    improved = True
    while improved:
        improved = False
        for name in sorted(current):
            trimmed = current - {name}
            outcome = problem.evaluate(trimmed)
            if not scenario.feasible(outcome):
                continue
            if scenario.key(outcome) < scenario.key(problem.evaluate(current)):
                current = trimmed
                improved = True
    return current


def _reference_greedy(problem, scenario) -> SelectionOutcome:
    current = _reference_repair(problem, scenario, frozenset())
    while True:
        addition = _reference_best_addition(problem, scenario, current)
        if addition is None:
            break
        current = addition.subset
    current = _reference_drop_pass(problem, scenario, current)
    return problem.evaluate(current)


# -- the worlds -------------------------------------------------------------


def _with_twins(inputs, n_twins):
    """``inputs`` plus an exact twin of each of its first ``n_twins``
    candidates, listed last.

    A twin prices exactly like its original, so the greedy meets true
    key ties and must keep the earlier candidate: a ``<`` relaxed to
    ``<=`` would pick the twin and change the chosen subset.
    """
    originals = inputs.candidates[:n_twins]
    twins = {c.name: CandidateView(f"{c.name}-twin", c.grain) for c in originals}
    view_stats = dict(inputs.view_stats)
    view_query_hours = dict(inputs.view_query_hours)
    for name, twin in twins.items():
        view_stats[twin.name] = dataclasses.replace(view_stats[name], view=twin)
    for (query, view), hours in inputs.view_query_hours.items():
        if view in twins:
            view_query_hours[(query, twins[view].name)] = hours
    return dataclasses.replace(
        inputs,
        candidates=inputs.candidates + tuple(twins.values()),
        view_stats=view_stats,
        view_query_hours=view_query_hours,
    )


# -- the scenarios ----------------------------------------------------------


def _fair_share(problem, deadline_hours):
    """Soft fairness over two tenants splitting the queries odd/even.

    Each tenant's share is the bill in proportion to its own
    processing hours, so the shares move with the subset and the
    overshoot term of the key changes as views are added.
    """
    names = [q.name for q in problem.inputs.workload]
    odd = frozenset(names[::2])
    even = frozenset(names[1::2]) or odd

    def shares(outcome):
        total = outcome.total_cost
        hours_odd = problem.processing_hours_for(outcome.subset, odd)
        hours_even = problem.processing_hours_for(outcome.subset, even)
        odd_share = total * (hours_odd / (hours_odd + hours_even))
        return {"odd": odd_share, "even": total - odd_share}

    return FairShareScenario(
        shares_fn=shares, base=mv2(deadline_hours), max_share_slack=0.1,
        hard=False,
    )


def _scenarios(problem):
    """MV1, MV2 (repair runs: the empty set misses the deadline), MV3
    and the fairness scenario, each built fresh for one solve."""
    baseline = problem.baseline()
    everything = problem.evaluate(frozenset(problem.candidate_names))
    deadline = (baseline.processing_hours + everything.processing_hours) / 2
    return {
        "MV1": lambda p: mv1(baseline.total_cost * 1.5),
        "MV2": lambda p: mv2(deadline),
        "MV3": lambda p: mv3(0.5),
        "FairShare": lambda p: _fair_share(p, deadline),
    }


def _solve(solver, inputs, make_scenario, kernel):
    problem = SelectionProblem(
        inputs, cache=SubsetEvaluationCache(), kernel=kernel
    )
    try:
        outcome = solver(problem, make_scenario(problem))
    except InfeasibleProblemError as error:
        outcome = error
    return outcome, problem.stats


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_views=st.integers(min_value=4, max_value=24),
    n_queries=st.integers(min_value=2, max_value=8),
    n_twins=st.integers(min_value=0, max_value=4),
)
def test_greedy_matches_reference(seed, n_views, n_queries, n_twins):
    inputs = _with_twins(
        generate_lattice_inputs(
            n_views=n_views, n_queries=n_queries, seed=seed, target_gb=100.0
        ).inputs,
        n_twins,
    )
    scenarios = _scenarios(SelectionProblem(inputs))
    for name, make_scenario in scenarios.items():
        for kernel in (True, False):
            expected, expected_stats = _solve(
                _reference_greedy, inputs, make_scenario, kernel
            )
            actual, actual_stats = _solve(
                greedy_select, inputs, make_scenario, kernel
            )
            case = (name, kernel)
            if isinstance(expected, InfeasibleProblemError):
                assert isinstance(actual, InfeasibleProblemError), case
                assert str(actual) == str(expected), case
            else:
                assert actual.subset == expected.subset, case
                assert repr(actual) == repr(expected), case
            assert actual_stats == expected_stats, case


def test_oracle_worlds_reach_repair_and_fairness_key():
    """Coverage of the oracle: MV2's empty set misses the deadline, so
    the repair phase runs, and the fairness overshoot is non-zero for
    some subset, so the soft key's leading term does order outcomes."""
    inputs = generate_lattice_inputs(
        n_views=16, n_queries=6, seed=7, target_gb=100.0
    ).inputs
    problem = SelectionProblem(inputs)
    scenarios = _scenarios(problem)
    assert not scenarios["MV2"](problem).feasible(problem.baseline())
    fair = scenarios["FairShare"](problem)
    assert any(
        fair.key(problem.singleton(name))[0] > 0.0
        for name in problem.candidate_names
    )
