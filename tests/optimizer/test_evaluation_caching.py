"""Evaluation counting: the caches must actually avoid re-pricing.

Covers the selector's shared-marginal computation (one baseline + one
singleton per candidate instead of four evaluations per candidate),
the per-problem evaluation counters, and the cross-problem
:class:`SubsetEvaluationCache`.
"""

from __future__ import annotations

import pytest

from repro.costmodel import PlanningEstimator
from repro.optimizer import SelectionProblem, SubsetEvaluationCache, mv2
from repro.optimizer.selector import _independent_marginals, select_views


@pytest.fixture()
def counting_problem(paper_problem):
    """A fresh problem over the session inputs (counters start at 0)."""
    return SelectionProblem(paper_problem.inputs)


class TestEvaluationStats:
    def test_counters_track_calls_hits_and_pricings(self, counting_problem):
        problem = counting_problem
        problem.evaluate(frozenset())
        problem.evaluate(frozenset())
        problem.evaluate(frozenset({"V1"}))
        assert problem.stats.calls == 3
        assert problem.stats.priced == 2
        assert problem.stats.local_hits == 1
        assert problem.stats.hits == 1


class TestSelectorEvaluationCounts:
    def test_marginals_price_each_subset_once(self, counting_problem):
        """n candidates -> exactly n + 1 evaluations (was 4n before the
        baseline/singleton reuse fix)."""
        n = len(counting_problem.candidate_names)
        _independent_marginals(counting_problem)
        assert counting_problem.stats.calls == n + 1
        assert counting_problem.stats.priced == n + 1
        # A second pass is pure cache hits.
        _independent_marginals(counting_problem)
        assert counting_problem.stats.priced == n + 1

    def test_mv2_repair_requests_each_grown_subset_once(self, paper_problem):
        """The repair loop adopts its best trial outcome directly.

        Before the fix it re-called ``evaluate`` on the adopted subset
        after trialling it, so repair-grown subsets were requested
        twice; now every multi-view subset strictly between the
        knapsack seed and the full set is requested exactly once.
        """
        from collections import Counter

        class RecordingProblem(SelectionProblem):
            def __init__(self, inputs):
                super().__init__(inputs)
                self.requests = Counter()

            def evaluate(self, subset):
                self.requests[frozenset(subset)] += 1
                return super().evaluate(subset)

        problem = RecordingProblem(paper_problem.inputs)
        n = len(problem.candidate_names)
        # Just above the everything-materialized optimum: the cover's
        # independent savings over-promise, so repair must iterate.
        everything = paper_problem.evaluate(
            frozenset(paper_problem.candidate_names)
        )
        select_views(problem, mv2(everything.processing_hours * 1.01), "knapsack")
        grown = {
            subset: count
            for subset, count in problem.requests.items()
            if 2 <= len(subset) < n
        }
        assert grown, "the repair loop must actually run in this setup"
        assert all(count == 1 for count in grown.values()), grown


class TestSubsetEvaluationCache:
    def test_shared_outcomes_across_equal_problems(self, paper_problem):
        cache = SubsetEvaluationCache()
        first = SelectionProblem(paper_problem.inputs, cache=cache)
        second = SelectionProblem(paper_problem.inputs, cache=cache)
        outcome = first.evaluate(frozenset({"V1", "V2"}))
        assert second.evaluate(frozenset({"V1", "V2"})) is outcome
        assert second.stats.priced == 0
        assert second.stats.shared_hits == 1
        assert cache.hits >= 1

    def test_state_key_defaults_to_inputs_fingerprint(self, paper_problem):
        cache = SubsetEvaluationCache()
        problem = SelectionProblem(paper_problem.inputs, cache=cache)
        assert problem.state_key == paper_problem.inputs.fingerprint()

    def test_state_key_is_fingerprinted_once_per_problem(
        self, paper_problem, monkeypatch
    ):
        """A shared cache resolves each problem's state key once: N
        evaluations fingerprint the inputs at most once per problem,
        and two problems over equal inputs still share entries."""
        from repro.costmodel import PlanningInputs

        calls = []
        fingerprint = PlanningInputs.fingerprint

        def counting(inputs):
            calls.append(inputs)
            return fingerprint(inputs)

        monkeypatch.setattr(PlanningInputs, "fingerprint", counting)
        cache = SubsetEvaluationCache()
        names = paper_problem.candidate_names
        subsets = [frozenset({a, b}) for a in names for b in names]
        problems = [
            SelectionProblem(paper_problem.inputs, cache=cache)
            for _ in range(3)
        ]
        for problem in problems:
            for subset in subsets:
                problem.evaluate(subset)
        assert len(calls) <= len(problems)
        assert problems[0].stats.priced == len(set(subsets))
        assert all(p.stats.priced == 0 for p in problems[1:])
        assert all(
            p.stats.shared_hits == len(set(subsets)) for p in problems[1:]
        )

    def test_public_get_sees_entries_of_interned_problems(self, paper_problem):
        """``get``/``put`` by state key and a problem's interned id are
        one namespace: each sees the other's entries, and an int state
        key is a key like any other, never mistaken for an id."""
        cache = SubsetEvaluationCache()
        problem = SelectionProblem(paper_problem.inputs, cache=cache)
        outcome = problem.evaluate(frozenset({"V1"}))
        assert cache.get(problem.state_key, frozenset({"V1"})) is outcome
        assert cache.get(0, frozenset({"V1"})) is None
        cache.put(0, frozenset({"V2"}), outcome)
        keyed = SelectionProblem(paper_problem.inputs, cache=cache, state_key=0)
        assert keyed.evaluate(frozenset({"V2"})) is outcome
        assert keyed.stats.shared_hits == 1
        assert keyed.evaluate(frozenset({"V1"})) is not outcome
        assert keyed.stats.priced == 1

    def test_distinct_worlds_do_not_collide(
        self, sales_dataset_10gb, paper_problem
    ):
        """Different deployments must never share pricings."""
        from repro.costmodel import DeploymentSpec

        cache = SubsetEvaluationCache()
        first = SelectionProblem(paper_problem.inputs, cache=cache)
        other_inputs = PlanningEstimator(
            sales_dataset_10gb, DeploymentSpec.paper_deployment(n_instances=2)
        ).build(
            paper_problem.inputs.workload,
            paper_problem.inputs.candidates,
        )
        second = SelectionProblem(other_inputs, cache=cache)
        a = first.evaluate(frozenset({"V1"}))
        b = second.evaluate(frozenset({"V1"}))
        assert second.stats.priced == 1  # not served from first's world
        assert a.total_cost != b.total_cost

    def test_same_named_providers_with_different_billing_never_collide(
        self, sales_dataset_10gb, paper_problem
    ):
        """Regression: provider identity is the full price book.

        ``aws_2012(PER_HOUR)`` and ``aws_2012(PER_SECOND)`` share the
        name 'aws-2012' but bill differently; a name-keyed fingerprint
        once let them share cached outcomes.
        """
        from dataclasses import replace

        from repro.costmodel import DeploymentSpec
        from repro.pricing import BillingGranularity, aws_2012

        hourly = paper_problem.inputs.deployment
        per_second = replace(
            hourly, provider=aws_2012(BillingGranularity.PER_SECOND)
        )
        assert hourly.provider.name == per_second.provider.name
        assert hourly.fingerprint() != per_second.fingerprint()

        cache = SubsetEvaluationCache()
        first = SelectionProblem(paper_problem.inputs, cache=cache)
        other_inputs = PlanningEstimator(
            sales_dataset_10gb, per_second
        ).build(
            paper_problem.inputs.workload, paper_problem.inputs.candidates
        )
        second = SelectionProblem(other_inputs, cache=cache)
        a = first.evaluate(frozenset({"V1"}))
        b = second.evaluate(frozenset({"V1"}))
        assert second.stats.priced == 1  # not aliased across billing rules
        assert a.total_cost != b.total_cost

    def test_hit_rate_and_clear(self, paper_problem):
        cache = SubsetEvaluationCache()
        problem = SelectionProblem(paper_problem.inputs, cache=cache)
        problem.evaluate(frozenset())
        assert len(cache) == 1
        assert 0.0 <= cache.hit_rate <= 1.0
        cache.clear()
        assert len(cache) == 0

    def test_intern_is_stable_and_distinct(self):
        cache = SubsetEvaluationCache()
        a = cache.intern(("world", 1))
        b = cache.intern(("world", 2))
        assert a != b
        assert cache.intern(("world", 1)) == a
        cache.clear()  # interned ids survive a clear
        assert cache.intern(("world", 1)) == a

    def test_interned_ids_stay_distinct_across_clear(self, paper_problem):
        """Regression: ``clear()`` must not recycle interned ids.

        The simulator interns one id per epoch world and keeps using it
        after trimming the cache between policy sweeps.  If ``clear()``
        also dropped ``_interned``, the next world interned after a
        clear would reuse id 0 and silently serve another world's
        pricings.  Here two problems interned *before* the clear and a
        third interned *after* it must all resolve to distinct worlds.
        """
        cache = SubsetEvaluationCache()
        id_a = cache.intern(("epoch", 0))
        id_b = cache.intern(("epoch", 1))
        first = SelectionProblem(
            paper_problem.inputs, cache=cache, state_key=id_a
        )
        outcome_a = first.evaluate(frozenset({"V1"}))
        cache.clear()
        # A world interned after the clear gets a fresh id, not id 0.
        id_c = cache.intern(("epoch", 2))
        assert len({id_a, id_b, id_c}) == 3
        third = SelectionProblem(
            paper_problem.inputs, cache=cache, state_key=id_c
        )
        outcome_c = third.evaluate(frozenset({"V1"}))
        # Both worlds priced independently: the clear dropped entries,
        # and the post-clear world never aliased the pre-clear one.
        assert third.stats.priced == 1
        assert outcome_c is not outcome_a
        # Pre-clear ids still resolve: re-pricing under id_a repopulates
        # its own slot without touching id_c's.
        second = SelectionProblem(
            paper_problem.inputs, cache=cache, state_key=id_a
        )
        outcome_a2 = second.evaluate(frozenset({"V1"}))
        assert second.stats.priced == 1
        assert cache.get(id_a, frozenset({"V1"})) is outcome_a2
        assert cache.get(id_c, frozenset({"V1"})) is outcome_c

    def test_custom_cost_model_needs_explicit_state_key(self, paper_problem):
        """Regression: a custom model under the default fingerprint key
        would alias another model's outcomes in a shared cache."""
        from repro.costmodel import CloudCostModel
        from repro.errors import OptimizationError

        model = CloudCostModel(paper_problem.inputs.deployment)
        with pytest.raises(OptimizationError, match="state_key"):
            SelectionProblem(
                paper_problem.inputs,
                cost_model=model,
                cache=SubsetEvaluationCache(),
            )
        # Fine with an explicit key, and fine without a shared cache.
        SelectionProblem(
            paper_problem.inputs,
            cost_model=model,
            cache=SubsetEvaluationCache(),
            state_key=("custom-model", 1),
        )
        SelectionProblem(paper_problem.inputs, cost_model=model)
