"""The planning estimator: dataset + deployment -> optimizer inputs.

The optimizer reasons over a small numeric summary of the world:
per-query processing times without views (``t_i``), per-(query, view)
times when a view is exploited (``t_iV``), per-view statistics (size,
materialization and maintenance times), and result sizes.  This module
computes that summary — :class:`PlanningInputs` — from a dataset and a
deployment, in one of two modes:

* ``analytic`` — group counts from Cardenas' formula at the dataset's
  *logical* row count, sizes from the schema's logical widths.  This is
  the paper-scale mode: a 10 GB dataset is priced as 10 GB even though
  only a few hundred thousand rows are materialized in RAM.
* ``empirical`` — every query and view is actually executed and exact
  physical counts are used.  Requires the dataset's size model to be
  1:1 (``row_scale == 1``), because scaling *measured view row counts*
  by a row multiplier would be wrong: coarse views saturate (a
  (year, country) view has 150 rows at any scale).

:class:`PlanningInputs` also owns the subset-evaluation logic shared by
every optimizer: which view answers each query best, total processing
time for a subset, and the :class:`~repro.costmodel.total.WorkloadPlan`
a subset induces.

The estimator's two pricing primitives are public so incremental
callers (the lifecycle simulator's epoch builder) can reuse priced
pieces instead of rebuilding whole worlds: :meth:`~PlanningEstimator.
view_statistics` prices a candidate catalogue once per (dataset,
deployment), and :meth:`~PlanningEstimator.price_query` prices one
query against those statistics.  :meth:`~PlanningEstimator.build` is
the batch composition of the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..cube.build_plan import plan_builds
from ..cube.views import CandidateView, ViewStats
from ..data.generator import Dataset
from ..engine.cardinality import estimate_group_count
from ..engine.executor import Executor
from ..errors import CostModelError
from ..units import BYTES_PER_GB
from ..workload.workload import Workload
from .maintenance import maintenance_hours_per_cycle
from .params import DeploymentSpec, StorageTimeline
from .total import WorkloadPlan

__all__ = ["PlanningInputs", "PlanningEstimator", "QueryPricing", "subset_plan"]


def _check_views(
    subset: AbstractSet[str], known: FrozenSet[str]
) -> FrozenSet[str]:
    """Validate a set of candidate view names against ``known``.

    O(len(subset)): ``known`` is the caller's held name set, never
    rebuilt here.

    Raises:
        CostModelError: naming every unknown view, sorted.
    """
    if not known.issuperset(subset):
        unknown = set(subset) - known
        raise CostModelError(f"unknown candidate views: {sorted(unknown)}")
    return frozenset(subset)


def subset_plan(
    subset: AbstractSet[str],
    known: FrozenSet[str],
    view_stats: Mapping[str, ViewStats],
    workload: Workload,
    per_query: Callable[[FrozenSet[str]], Sequence[Tuple[float, float]]],
    dataset_gb: float,
    deployment: DeploymentSpec,
    base_timeline: StorageTimeline,
) -> WorkloadPlan:
    """The :class:`WorkloadPlan` ``subset`` induces — the one constructor.

    ``subset`` is validated against ``known`` first; ``per_query`` is
    then called with the validated subset and returns each query's
    single-execution ``(t_iV, result GB)`` pair, in workload order.
    Frequencies are applied here, views are ordered by name, and a
    deployment with ``cascade_materialization`` charges the cascaded
    build schedule.  :meth:`PlanningInputs.plan_for` and the lifecycle
    simulator's chain pricing both build their plans through this
    function, so the two can never disagree on a plan.
    """
    subset = _check_views(subset, known)
    rows = per_query(subset)
    query_hours = tuple(
        [row[0] * query.frequency for row, query in zip(rows, workload)]
    )
    result_sizes_gb = tuple(
        [row[1] * query.frequency for row, query in zip(rows, workload)]
    )
    stats = [view_stats[name] for name in sorted(subset)]
    if deployment.cascade_materialization and stats:
        plan = plan_builds(
            workload.schema,
            stats,
            dataset_gb,
            deployment.job_hours,
            deployment.materialization_write_factor,
        )
        materialization = tuple(plan.hours_for(s.view.name) for s in stats)
    else:
        materialization = tuple(s.materialization_hours for s in stats)
    cycles = deployment.maintenance_cycles
    return WorkloadPlan(
        query_hours=query_hours,
        result_sizes_gb=result_sizes_gb,
        base_timeline=base_timeline,
        materialization_hours=materialization,
        maintenance_hours=tuple(
            s.maintenance_hours_per_cycle * cycles for s in stats
        ),
        views_total_gb=sum(s.size_gb for s in stats),
        runs_per_period=deployment.runs_per_period,
    )


@dataclass(frozen=True)
class QueryPricing:
    """One query's priced summary: base time, result size, view times.

    ``view_hours`` maps each candidate view name that can answer the
    query to its ``t_iV``.  Frequency-independent: frequencies are
    applied when a :class:`~repro.costmodel.total.WorkloadPlan` is
    built, so one pricing serves a query at any weight.
    """

    base_hours: float
    result_gb: float
    view_hours: Mapping[str, float]


@dataclass(frozen=True)
class PlanningInputs:
    """The optimizer's numeric view of one (dataset, deployment) world.

    All hours are single-execution times; frequencies are applied when
    a :class:`WorkloadPlan` is built.

    The candidate and workload-query name sets are computed once, on
    first use, and held on the instance; they are derived state, so
    they take no part in ``==``, ``repr``, :meth:`fingerprint` or
    pickling.
    """

    workload: Workload
    candidates: Tuple[CandidateView, ...]
    view_stats: Mapping[str, ViewStats]
    #: t_i — processing hours per query, straight from the fact table.
    base_query_hours: Mapping[str, float]
    #: t_iV — processing hours per (query name, view name), present only
    #: where the view's grain answers the query's grain.
    view_query_hours: Mapping[Tuple[str, str], float]
    result_sizes_gb: Mapping[str, float]
    dataset_gb: float
    deployment: DeploymentSpec
    base_timeline: StorageTimeline

    # -- held name sets ------------------------------------------------

    @cached_property
    def _candidate_names(self) -> FrozenSet[str]:
        """Every candidate view name, computed once."""
        return frozenset(c.name for c in self.candidates)

    @cached_property
    def _query_names(self) -> FrozenSet[str]:
        """Every workload query name, computed once."""
        return frozenset(q.name for q in self.workload)

    def __getstate__(self) -> Dict[str, object]:
        # Drop the held name sets: a pickle carries only the fields,
        # whether or not the sets were built before pickling.
        state = dict(self.__dict__)
        state.pop("_candidate_names", None)
        state.pop("_query_names", None)
        return state

    # -- subset evaluation ---------------------------------------------

    def view(self, name: str) -> CandidateView:
        """Look up a candidate by name."""
        for candidate in self.candidates:
            if candidate.name == name:
                return candidate
        raise CostModelError(f"no candidate view named {name!r}")

    def check_subset(self, subset: AbstractSet[str]) -> FrozenSet[str]:
        """Validate a set of candidate names."""
        return _check_views(subset, self._candidate_names)

    def best_source(self, query_name: str, subset: AbstractSet[str]) -> Optional[str]:
        """The selected view answering ``query_name`` fastest, if any beats base."""
        base = self.base_query_hours[query_name]
        best_name: Optional[str] = None
        best_hours = base
        for view_name in subset:
            hours = self.view_query_hours.get((query_name, view_name))
            if hours is not None and hours < best_hours:
                best_hours = hours
                best_name = view_name
        return best_name

    def query_hours_with(self, subset: AbstractSet[str]) -> Dict[str, float]:
        """Per-query t_iV under ``subset`` (min over answering views, capped by base)."""
        return self._query_hours(self.check_subset(subset))

    def _query_hours(self, subset: FrozenSet[str]) -> Dict[str, float]:
        """:meth:`query_hours_with` on an already validated subset."""
        hours: Dict[str, float] = {}
        for query in self.workload:
            base = self.base_query_hours[query.name]
            best = base
            for view_name in subset:
                t = self.view_query_hours.get((query.name, view_name))
                if t is not None and t < best:
                    best = t
            hours[query.name] = best
        return hours

    def processing_hours(self, subset: AbstractSet[str]) -> float:
        """Formula 9: T_processingQ under ``subset``, frequency-weighted."""
        per_query = self.query_hours_with(subset)
        return sum(
            per_query[q.name] * q.frequency for q in self.workload
        )

    def group_processing_hours(
        self, subset: AbstractSet[str], query_names: AbstractSet[str]
    ) -> float:
        """Formula 9 restricted to the named queries (one tenant's slice).

        Every name must belong to the workload — a silently ignored
        typo would make a tenant's hours quietly vanish.
        """
        names = set(query_names)
        unknown = names - self._query_names
        if unknown:
            raise CostModelError(
                f"unknown workload queries: {sorted(unknown)}"
            )
        per_query = self.query_hours_with(subset)
        return sum(
            per_query[q.name] * q.frequency
            for q in self.workload
            if q.name in names
        )

    def plan_for(self, subset: AbstractSet[str]) -> WorkloadPlan:
        """The :class:`WorkloadPlan` a subset induces (empty = baseline)."""

        def per_query(checked: FrozenSet[str]):
            hours = self._query_hours(checked)
            return [
                (hours[q.name], self.result_sizes_gb[q.name])
                for q in self.workload
            ]

        return subset_plan(
            subset,
            self._candidate_names,
            self.view_stats,
            self.workload,
            per_query,
            self.dataset_gb,
            self.deployment,
            self.base_timeline,
        )

    def baseline_plan(self) -> WorkloadPlan:
        """Section 3's no-views plan."""
        return self.plan_for(frozenset())

    def fingerprint(self) -> Tuple:
        """A hashable identity of this numeric world.

        Two inputs with equal fingerprints price every subset
        identically, so their :class:`SelectionOutcome`\\ s can be shared
        through a cross-problem cache (see
        :class:`repro.optimizer.SubsetEvaluationCache`).
        """
        return (
            self.workload.fingerprint(),
            self.candidates,
            tuple(sorted(self.view_stats.items())),
            tuple(sorted(self.base_query_hours.items())),
            tuple(sorted(self.view_query_hours.items())),
            tuple(sorted(self.result_sizes_gb.items())),
            self.dataset_gb,
            self.deployment.fingerprint(),
            self.base_timeline.fingerprint(),
        )


class PlanningEstimator:
    """Builds :class:`PlanningInputs` from a dataset and deployment."""

    def __init__(
        self,
        dataset: Dataset,
        deployment: DeploymentSpec,
        mode: str = "analytic",
    ) -> None:
        if mode not in ("analytic", "empirical"):
            raise CostModelError(
                f"mode must be 'analytic' or 'empirical', got {mode!r}"
            )
        if mode == "empirical" and abs(dataset.size_model.row_scale - 1.0) > 1e-12:
            raise CostModelError(
                "empirical mode needs a 1:1 size model (row_scale == 1); "
                "scaled datasets must use analytic mode — see module docs"
            )
        self._dataset = dataset
        self._deployment = deployment
        self._mode = mode
        self._executor = Executor(dataset) if mode == "empirical" else None

    @property
    def mode(self) -> str:
        """``'analytic'`` or ``'empirical'``."""
        return self._mode

    # -- group counts ---------------------------------------------------

    def _group_count(self, grain: Sequence[str]) -> float:
        """Result rows of a roll-up to ``grain`` over the whole dataset."""
        if self._executor is not None:
            return float(self._executor.materialize(grain).stats.groups_out)
        schema = self._dataset.schema
        logical_rows = self._dataset.size_model.logical_rows(
            self._dataset.fact.n_rows
        )
        return estimate_group_count(schema, grain, logical_rows)

    def _grain_gb(self, grain: Sequence[str], rows: float) -> float:
        row_bytes = self._dataset.schema.row_logical_bytes(grain)
        return rows * row_bytes / BYTES_PER_GB

    def _query_group_count(self, query) -> float:
        """Result rows of a (possibly filtered) workload query.

        Filters shrink both the surviving row count and the reachable
        group space proportionally (uniform-membership model); the
        empirical mode executes the filtered query exactly instead.
        """
        if self._executor is not None:
            return float(self._executor.answer(query).stats.groups_out)
        schema = self._dataset.schema
        logical_rows = self._dataset.size_model.logical_rows(
            self._dataset.fact.n_rows
        )
        selectivity = query.selectivity(schema)
        if selectivity >= 1.0:
            return estimate_group_count(schema, query.grain, logical_rows)
        from ..engine.cardinality import expected_distinct, grain_space

        space = max(1.0, grain_space(schema, query.grain) * selectivity)
        return expected_distinct(logical_rows * selectivity, space)

    # -- pricing primitives --------------------------------------------

    def view_statistics(
        self, candidates: Sequence[CandidateView]
    ) -> Dict[str, ViewStats]:
        """Per-view planning statistics for a candidate catalogue.

        Materialization scans the dataset and writes the view out (the
        write amplification factor); maintenance is one incremental job
        per cycle over the delta.  Depends only on (dataset,
        deployment), so incremental callers compute it once and reuse
        it across workloads.
        """
        dep = self._deployment
        dataset_gb = self._dataset.logical_size_gb
        view_stats: Dict[str, ViewStats] = {}
        for view in candidates:
            rows = self._group_count(view.grain)
            size_gb = self._grain_gb(view.grain, rows)
            materialization = (
                dep.job_hours(dataset_gb, rows)
                * dep.materialization_write_factor
            )
            maintenance = (
                maintenance_hours_per_cycle(
                    dep.maintenance_policy, dep, dataset_gb, rows
                )
                if dep.maintenance_cycles
                else 0.0
            )
            view_stats[view.name] = ViewStats(
                view=view,
                rows=rows,
                size_gb=size_gb,
                materialization_hours=materialization,
                maintenance_hours_per_cycle=maintenance,
            )
        return view_stats

    def price_query(
        self, query, view_stats: Mapping[str, ViewStats]
    ) -> QueryPricing:
        """Price one query: base time, result size, per-view times.

        ``view_stats`` is the catalogue to price against (from
        :meth:`view_statistics`).  Independent of the query's
        frequency, so a re-weighted query needs no re-pricing.
        """
        dep = self._deployment
        dataset_gb = self._dataset.logical_size_gb
        schema = self._dataset.schema
        groups = self._query_group_count(query)
        base_hours = dep.job_hours(dataset_gb, groups)
        view_hours: Dict[str, float] = {}
        for stats in view_stats.values():
            if not query.answerable_from(schema, stats.view.grain):
                continue
            hours = dep.job_hours(stats.size_gb, groups)
            if dep.view_speedup_cap is not None:
                hours = max(hours, base_hours / dep.view_speedup_cap)
            view_hours[stats.view.name] = hours
        return QueryPricing(
            base_hours=base_hours,
            result_gb=self._grain_gb(query.grain, groups),
            view_hours=view_hours,
        )

    # -- the build ------------------------------------------------------

    def assemble(
        self,
        workload: Workload,
        candidates: Sequence[CandidateView],
        view_stats: Mapping[str, ViewStats],
        pricing_for,
    ) -> PlanningInputs:
        """Assemble :class:`PlanningInputs` from per-query pricings.

        ``pricing_for(query) -> QueryPricing`` supplies each query's
        numbers — :meth:`price_query` for the batch path, a memoized
        wrapper for incremental callers.  Keeping the assembly in one
        place guarantees both paths construct the identical world.
        """
        dep = self._deployment
        dataset_gb = self._dataset.logical_size_gb
        base_hours: Dict[str, float] = {}
        result_sizes: Dict[str, float] = {}
        view_hours: Dict[Tuple[str, str], float] = {}
        for query in workload:
            pricing = pricing_for(query)
            base_hours[query.name] = pricing.base_hours
            result_sizes[query.name] = pricing.result_gb
            for view_name, hours in pricing.view_hours.items():
                view_hours[(query.name, view_name)] = hours
        return PlanningInputs(
            workload=workload,
            candidates=tuple(candidates),
            view_stats=view_stats,
            base_query_hours=base_hours,
            view_query_hours=view_hours,
            result_sizes_gb=result_sizes,
            dataset_gb=dataset_gb,
            deployment=dep,
            base_timeline=StorageTimeline(dataset_gb, dep.storage_months),
        )

    def build(
        self,
        workload: Workload,
        candidates: Sequence[CandidateView],
    ) -> PlanningInputs:
        """Compute the optimizer inputs for a workload and candidate set."""
        view_stats = self.view_statistics(candidates)
        return self.assemble(
            workload,
            candidates,
            view_stats,
            lambda query: self.price_query(query, view_stats),
        )
