"""Incremental construction of per-epoch selection problems.

Rebuilding a :class:`~repro.optimizer.problem.SelectionProblem` from
scratch every epoch would re-price the whole world even when nothing
changed.  :class:`EpochProblemBuilder` avoids that with three reuse
layers, coarsest first:

1. **problem cache** — state key -> :class:`SelectionProblem`.  An
   epoch whose state is unchanged (or that returns to an earlier
   state) gets the *same* problem object back, with every subset it
   ever priced still memoized.
2. **priced worlds** — per (dataset, deployment) world, candidate-view
   statistics are computed once and each distinct query signature
   (grain + filters) is priced once.  Workload drift that adds one
   query prices one query; drops and re-weightings price nothing
   (frequencies are applied at plan time, not pricing time).
3. **shared subset cache** — one
   :class:`~repro.optimizer.problem.SubsetEvaluationCache` spans every
   problem the builder creates, so multi-policy sweeps over the same
   timeline share subset pricings across runs.

Beside the problems sits one problem-free read path,
:meth:`EpochProblemBuilder.operating_cost`: a state's operating bill
at one subset, priced from a single
:class:`~repro.costmodel.total.WorkloadPlan` assembled straight from
layer 2's query pricings and evaluated by the Decimal oracle.  It
skips layers 1 and 3 entirely — no state fingerprint, no
:class:`~repro.costmodel.estimator.PlanningInputs`, no kernel
factoring, no cache writes — which is what the explain layer's chain
pricing wants: many states, one subset each.  It works inside layer
2: a chain state's new query is priced once like any other, and each
world memoizes, per subset, every query signature's ``(t_iV, result
GB)`` row, so a step costs one pass over its workload plus the
oracle's own fold.

``builds``, ``queries_priced`` and ``worlds_built`` are exposed so
tests and benchmarks can assert the incremental path actually short-
circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Hashable,
    Optional,
    Sequence,
    Tuple,
)

from ..costmodel.estimator import (
    PlanningEstimator,
    PlanningInputs,
    QueryPricing,
    subset_plan,
)
from ..costmodel.params import StorageTimeline
from ..costmodel.total import CloudCostModel
from ..cube.views import CandidateView, ViewStats
from ..money import Money
from ..optimizer.problem import (
    EvaluationStats,
    SelectionProblem,
    SubsetEvaluationCache,
)
from ..pricing.providers import Provider
from ..workload.workload import Workload
from .state import Holdings, WarehouseState

__all__ = ["EpochContext", "EpochProblemBuilder"]

#: A query's pricing identity: everything but name and frequency.
_QuerySig = Tuple[Tuple[str, ...], tuple]


class _PricedWorld:
    """One (dataset, deployment) world with incrementally priced queries."""

    def __init__(
        self, state: WarehouseState, catalogue: Tuple[CandidateView, ...]
    ) -> None:
        self._estimator = PlanningEstimator(state.dataset, state.deployment)
        self._catalogue = catalogue
        self._view_stats: Dict[str, ViewStats] = (
            self._estimator.view_statistics(catalogue)
        )
        self._names = frozenset(self._view_stats)
        self._pricings: Dict[_QuerySig, QueryPricing] = {}
        #: subset -> query signature -> (t_iV, result GB) under it.
        self._rows: Dict[
            FrozenSet[str], Dict[_QuerySig, Tuple[float, float]]
        ] = {}
        self._deployment = state.deployment
        self._dataset_gb = state.dataset.logical_size_gb
        self._model = CloudCostModel(state.deployment)

    def _pricing(self, query) -> Tuple[QueryPricing, bool]:
        sig: _QuerySig = (query.grain, query.filters)
        pricing = self._pricings.get(sig)
        if pricing is not None:
            return pricing, False
        pricing = self._estimator.price_query(query, self._view_stats)
        self._pricings[sig] = pricing
        return pricing, True

    def inputs_for(self, workload: Workload) -> Tuple[PlanningInputs, int]:
        """Planning inputs for ``workload``; returns (inputs, newly priced)."""
        fresh = 0

        def memoized(query) -> QueryPricing:
            nonlocal fresh
            pricing, priced_now = self._pricing(query)
            fresh += int(priced_now)
            return pricing

        inputs = self._estimator.assemble(
            workload, self._catalogue, self._view_stats, memoized
        )
        return inputs, fresh

    def operating_cost(
        self, workload: Workload, subset: AbstractSet[str]
    ) -> Tuple[Money, int]:
        """``workload``'s operating bill at ``subset``; (cost, newly priced).

        Builds the oracle's own :class:`~repro.costmodel.total.
        WorkloadPlan` straight from the memoized query pricings and
        prices it with :meth:`CloudCostModel.evaluate`.  No
        :class:`PlanningInputs` or problem is assembled.
        """
        fresh = 0

        def per_query(checked: FrozenSet[str]):
            nonlocal fresh
            rows = self._rows.get(checked)
            if rows is None:
                rows = self._rows[checked] = {}
            try:
                return [rows[(q.grain, q.filters)] for q in workload]
            except KeyError:
                pass
            for query in workload:
                sig = (query.grain, query.filters)
                if sig not in rows:
                    pricing, priced_now = self._pricing(query)
                    fresh += priced_now
                    rows[sig] = (
                        _best_hours(pricing, checked),
                        pricing.result_gb,
                    )
            return [rows[(q.grain, q.filters)] for q in workload]

        plan = subset_plan(
            subset,
            self._names,
            self._view_stats,
            workload,
            per_query,
            self._dataset_gb,
            self._deployment,
            StorageTimeline(self._dataset_gb, self._deployment.storage_months),
        )
        breakdown = self._model.evaluate(plan)
        cost = breakdown.total - breakdown.computing.materialization_cost
        return cost, fresh


def _best_hours(pricing: QueryPricing, subset: FrozenSet[str]) -> float:
    """``t_iV`` under ``subset``: the fastest answering view, capped by
    the base time — :meth:`~repro.costmodel.estimator.PlanningInputs.
    query_hours_with`'s rule, on one memoized pricing."""
    best = pricing.base_hours
    for name in subset:
        hours = pricing.view_hours.get(name)
        if hours is not None and hours < best:
            best = hours
    return best


@dataclass(frozen=True)
class EpochContext:
    """What one epoch's policy decision may consult beyond its problem.

    Handed to :meth:`~repro.simulate.policy.ReselectionPolicy.
    decide_in_context` by the simulator.  ``state`` is the epoch's
    post-event warehouse state (its :meth:`~repro.simulate.state.
    WarehouseState.candidate_books` are the migration targets on the
    table, its :attr:`~repro.simulate.state.WarehouseState.holdings`
    the live/pending view split under asynchronous builds);
    :meth:`counterfactual` prices the same world under another
    provider's book through the shared builder, so repeated
    counterfactuals over unchanged epochs are answered from cache.
    """

    state: WarehouseState
    builder: "EpochProblemBuilder"

    @property
    def holdings(self) -> Holdings:
        """The epoch's live/pending view split (empty under sync runs)."""
        return self.state.holdings

    @property
    def queue_depth(self) -> int:
        """Builds in flight when the decision is taken — the knob a
        queue-aware policy throttles on (0 under synchronous runs)."""
        return self.state.holdings.queue_depth

    def counterfactual(self, provider: Provider) -> SelectionProblem:
        """This epoch's world billed under ``provider`` instead.

        Built through the shared :class:`EpochProblemBuilder`, so the
        counterfactual problem memoizes subset pricings exactly like
        the real one — an arbitrage policy pricing K providers over an
        unchanged epoch re-prices nothing.
        """
        return self.builder.problem_for(self.state.with_provider(provider))


class EpochProblemBuilder:
    """Turns warehouse states into (cached) selection problems."""

    def __init__(
        self,
        catalogue: Sequence[CandidateView],
        cache: Optional[SubsetEvaluationCache] = None,
    ) -> None:
        self._catalogue: Tuple[CandidateView, ...] = tuple(catalogue)
        self._cache = cache if cache is not None else SubsetEvaluationCache()
        self._problems: Dict[Hashable, SelectionProblem] = {}
        self._worlds: Dict[Hashable, _PricedWorld] = {}
        #: Problems actually constructed (not served from the cache).
        self.builds = 0
        #: Queries priced through the estimator (not reused).
        self.queries_priced = 0
        #: Distinct (dataset, deployment) worlds instantiated.
        self.worlds_built = 0

    @property
    def catalogue(self) -> Tuple[CandidateView, ...]:
        """The fixed candidate-view universe every epoch selects from."""
        return self._catalogue

    @property
    def cache(self) -> SubsetEvaluationCache:
        """The subset cache shared by every problem this builder makes."""
        return self._cache

    @property
    def problems_cached(self) -> int:
        """How many distinct states have been turned into problems."""
        return len(self._problems)

    def evaluation_stats(self) -> "EvaluationStats":
        """Aggregate evaluate() counters across every cached problem.

        ``calls`` minus ``priced`` is the number of subset pricings the
        two cache layers avoided — the quantity the benchmarks report.
        """
        total = EvaluationStats()
        for problem in self._problems.values():
            stats = problem.stats
            total.calls += stats.calls
            total.local_hits += stats.local_hits
            total.shared_hits += stats.shared_hits
            total.priced += stats.priced
        return total

    def _world_key(self, state: WarehouseState) -> Hashable:
        return (state.dataset_key(), state.deployment.fingerprint())

    def problem_for(self, state: WarehouseState) -> SelectionProblem:
        """The selection problem for ``state`` (cached by state key).

        The shared-cache key couples the state with this builder's
        catalogue: view names are only meaningful relative to a
        catalogue, so simulators sharing a cache but selecting from
        different universes must never alias each other's subsets.
        The deep key is interned through the cache to a small id, so
        per-``evaluate()`` lookups never re-hash the full fingerprint.
        """
        key = self._cache.intern((self._catalogue, state.key()))
        problem = self._problems.get(key)
        if problem is not None:
            return problem
        inputs, fresh = self._world_for(state).inputs_for(state.workload)
        self.queries_priced += fresh
        problem = SelectionProblem(inputs, cache=self._cache, state_key=key)
        self._problems[key] = problem
        self.builds += 1
        return problem

    def operating_cost(
        self, state: WarehouseState, subset: AbstractSet[str]
    ) -> Money:
        """``state``'s operating bill at ``subset``, from one plan.

        The same quantity as :func:`repro.simulate.arbitrage.
        operating_cost` on :meth:`problem_for`'s problem — everything
        but materialization — and ``repr``-equal to it: both start from
        the same memoized query pricings, the plan comes from the same
        :func:`~repro.costmodel.estimator.subset_plan`, and the
        problem's kernel path reproduces the Decimal oracle used here
        byte for byte.  What it skips is the problem: no
        state fingerprint, no :class:`PlanningInputs`, no kernel
        factoring, nothing added to the problem cache or the shared
        subset cache.  The explain layer prices every step of an
        epoch's event chain through here, so reading a log leaves the
        builder's problems and evaluation counters untouched.

        Raises:
            CostModelError: ``subset`` names a view outside the
                catalogue.
        """
        cost, fresh = self._world_for(state).operating_cost(
            state.workload, subset
        )
        self.queries_priced += fresh
        return cost

    def _world_for(self, state: WarehouseState) -> _PricedWorld:
        """The priced (dataset, deployment) world ``state`` lives in."""
        world_key = self._world_key(state)
        world = self._worlds.get(world_key)
        if world is None:
            world = _PricedWorld(state, self._catalogue)
            self._worlds[world_key] = world
            self.worlds_built += 1
        return world
