"""High-level view selection: the paper's Section 5.2, plus baselines.

:func:`select_views` runs one scenario with one algorithm:

* ``"knapsack"`` — the paper's approach.  Per-view weights (net dollar
  cost in cents) and values (hours saved) are computed *independently*
  (each view priced as if it were the only one), the matching 0/1
  knapsack DP is solved exactly, and the resulting subset is re-priced
  exactly.  Because independence over-counts savings shared between
  overlapping views, the exact re-pricing can come out infeasible; a
  documented repair pass (drop lowest-density items for MV1, add
  fastest views for MV2) then restores feasibility.  This keeps the
  algorithm honest without silently changing its character.
* ``"greedy"`` — interaction-aware greedy (:mod:`repro.optimizer.greedy`).
* ``"exhaustive"`` — ground truth by enumeration
  (:mod:`repro.optimizer.exhaustive`).

Every algorithm returns a :class:`SelectionResult` carrying the chosen
outcome *and* the no-views baseline, because the paper's reported
quantities (Tables 6-8) are improvement rates against that baseline.

Algorithms are resolved through the :mod:`repro.optimizer.registry`:
``algorithm`` may be a registered name or an
:class:`~repro.optimizer.registry.OptimizerSpec` instance carrying its
own configuration (beam widths, budgets, seeds for the anytime search
family in :mod:`repro.optimizer.search`).  The classic trio's specs —
:class:`KnapsackSpec`, :class:`GreedySpec`, :class:`ExhaustiveSpec` —
are defined and registered here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Dict, FrozenSet, List, Optional, Tuple, Union

from ..errors import InfeasibleProblemError, OptimizationError, ScenarioMismatchError
from ..explain import OptimizerSolveRecord
from ..explain import current as current_explain
from ..telemetry import current as current_telemetry
from .exhaustive import exhaustive_select
from .fairness import FairShareScenario
from .greedy import greedy_select
from .knapsack import max_value_knapsack, min_weight_cover
from .problem import SelectionOutcome, SelectionProblem
from .registry import OptimizerSpec, register, resolve
from .scenarios import BudgetLimit, Scenario, TimeLimit, Tradeoff

__all__ = [
    "SelectionResult",
    "select_views",
    "KnapsackSpec",
    "GreedySpec",
    "ExhaustiveSpec",
]

@dataclass(frozen=True)
class SelectionResult:
    """A scenario's answer: chosen subset vs. the no-views baseline."""

    scenario: Scenario
    algorithm: str
    outcome: SelectionOutcome
    baseline: SelectionOutcome

    @property
    def selected_views(self) -> FrozenSet[str]:
        """Names of the views chosen for materialization."""
        return self.outcome.subset

    @property
    def time_improvement(self) -> float:
        """Paper's "IP rate": fractional T reduction vs. no views."""
        base = self.baseline.processing_hours
        if base == 0:
            return 0.0
        return (base - self.outcome.processing_hours) / base

    @property
    def cost_improvement(self) -> float:
        """Paper's "IC rate": fractional C reduction vs. no views."""
        base = self.baseline.total_cost
        if not base:
            return 0.0
        saved = base - self.outcome.total_cost
        return saved.ratio_to(base)

    def objective_improvement(self) -> float:
        """MV3's "tradeoff rate": fractional objective reduction."""
        if not isinstance(self.scenario, Tradeoff):
            raise OptimizationError(
                "objective_improvement is defined for MV3 (Tradeoff) only"
            )
        base = self.scenario.objective(self.baseline)
        if base == 0:
            return 0.0
        return (base - self.scenario.objective(self.outcome)) / base

    def describe(self) -> str:
        """Multi-line report used by the CLI and examples."""
        lines = [
            self.scenario.describe() + f"  [{self.algorithm}]",
            f"  baseline : {self.baseline.describe()}",
            f"  selected : {self.outcome.describe()}",
            f"  time improvement: {self.time_improvement:.1%}",
            f"  cost improvement: {self.cost_improvement:.1%}",
        ]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The paper's knapsack, per scenario.
# ---------------------------------------------------------------------------


def _independent_marginals(problem: SelectionProblem):
    """Per-view (weight cents, saving hours), each priced standalone.

    Evaluates the baseline once and each singleton once (n + 1
    evaluations total) instead of routing through the per-view marginal
    helpers, which would re-request both outcomes per quantity.
    """
    baseline = problem.baseline()
    base_cost = baseline.total_cost
    base_hours = baseline.processing_hours
    weights: Dict[str, int] = {}
    savings: Dict[str, float] = {}
    for name in problem.candidate_names:
        single = problem.singleton(name)
        weights[name] = (single.total_cost - base_cost).to_cents()
        savings[name] = max(0.0, base_hours - single.processing_hours)
    return weights, savings


def _repair_budget(
    problem: SelectionProblem,
    scenario: BudgetLimit,
    chosen: List[str],
    savings: Dict[str, float],
    weights: Dict[str, int],
) -> FrozenSet[str]:
    """Drop lowest-saving-density views until the budget truly holds."""
    current = list(chosen)
    while current:
        outcome = problem.evaluate(frozenset(current))
        if scenario.feasible(outcome):
            return outcome.subset
        current.sort(
            key=lambda n: savings[n] / max(weights[n], 1), reverse=True
        )
        current.pop()  # drop the worst density
    outcome = problem.evaluate(frozenset())
    if scenario.feasible(outcome):
        return outcome.subset
    raise InfeasibleProblemError(
        f"even the empty view set violates {scenario.describe()}"
    )


def _knapsack_mv1(
    problem: SelectionProblem, scenario: BudgetLimit
) -> SelectionOutcome:
    baseline = problem.baseline()
    weights, savings = _independent_marginals(problem)
    names = [n for n in problem.candidate_names if savings[n] > 0]
    capacity = scenario.budget.to_cents() - baseline.total_cost.to_cents()
    solution = max_value_knapsack(
        [weights[n] for n in names],
        [savings[n] for n in names],
        capacity,
    )
    chosen = [names[i] for i in solution.chosen]
    subset = _repair_budget(problem, scenario, chosen, savings, weights)
    return problem.evaluate(subset)


def _knapsack_mv2(
    problem: SelectionProblem, scenario: TimeLimit
) -> SelectionOutcome:
    baseline = problem.baseline()
    # Exact feasibility check first: interactions only ever shrink the
    # combined saving, so "everything materialized" is the true bound.
    everything = problem.evaluate(frozenset(problem.candidate_names))
    if not scenario.feasible(everything):
        raise InfeasibleProblemError(
            f"even materializing all candidates misses {scenario.describe()}"
        )
    weights, savings = _independent_marginals(problem)
    names = list(problem.candidate_names)
    required_s = max(
        0,
        math.ceil((baseline.processing_hours - scenario.limit_hours) * 3600.0),
    )
    try:
        solution = min_weight_cover(
            [weights[n] for n in names],
            [int(savings[n] * 3600.0) for n in names],
            required_s,
        )
    except OptimizationError:
        # Independent savings under-discretized; fall back to greedy.
        return greedy_select(problem, scenario)
    chosen = {names[i] for i in solution.chosen}
    outcome = problem.evaluate(frozenset(chosen))
    # Interactions may leave the deadline missed: add fastest views.
    while not scenario.feasible(outcome):
        best_trial: Optional[SelectionOutcome] = None
        for name in problem.candidate_names:
            if name in outcome.subset:
                continue
            trial = problem.evaluate(outcome.subset | {name})
            current_best = (
                best_trial.processing_hours
                if best_trial is not None
                else outcome.processing_hours
            )
            if trial.processing_hours < current_best:
                best_trial = trial
        if best_trial is None:
            raise InfeasibleProblemError(
                f"repair could not reach {scenario.describe()}"
            )
        outcome = best_trial  # already priced; no re-evaluation needed
    return outcome


def _knapsack_mv3(
    problem: SelectionProblem, scenario: Tradeoff
) -> SelectionOutcome:
    # With no constraint the knapsack degenerates: under independence
    # the objective is separable, so a view belongs in the set exactly
    # when its standalone delta is an improvement.
    baseline = problem.baseline()
    base_obj = scenario.objective(baseline)
    chosen = set()
    for name in problem.candidate_names:
        if scenario.objective(problem.singleton(name)) < base_obj:
            chosen.add(name)
    return problem.evaluate(frozenset(chosen))


def _knapsack_select(
    problem: SelectionProblem, scenario: Scenario
) -> SelectionOutcome:
    if isinstance(scenario, FairShareScenario):
        # The knapsack DP has no tenant dimension, so solve the base
        # scenario fairness-blind first; only when that answer breaks
        # (hard mode) or overshoots (soft mode) a tenant cap is the
        # slower, interaction-exact greedy re-run under the full
        # fairness envelope.
        unconstrained = _knapsack_select(problem, scenario.base)
        if scenario.feasible(unconstrained) and (
            scenario.hard or scenario.key(unconstrained)[0] == 0.0
        ):
            return unconstrained
        return greedy_select(problem, scenario)
    if isinstance(scenario, BudgetLimit):
        return _knapsack_mv1(problem, scenario)
    if isinstance(scenario, TimeLimit):
        return _knapsack_mv2(problem, scenario)
    if isinstance(scenario, Tradeoff):
        return _knapsack_mv3(problem, scenario)
    raise ScenarioMismatchError("knapsack", scenario)


# ---------------------------------------------------------------------------
# The classic trio as registered specs.
# ---------------------------------------------------------------------------


@register
@dataclass(frozen=True)
class KnapsackSpec(OptimizerSpec):
    """The paper's 0/1 knapsack under independence, with exact repair.

    The DP dispatches on concrete scenario types, so unlike the search
    algorithms it cannot optimize arbitrary :class:`Scenario`
    implementations — ``supported_scenarios`` pins the four it knows,
    and anything else raises :class:`~repro.errors.
    ScenarioMismatchError` before any evaluation runs.
    """

    name: ClassVar[str] = "knapsack"
    supported_scenarios: ClassVar[Tuple[type, ...]] = (
        BudgetLimit,
        TimeLimit,
        Tradeoff,
        FairShareScenario,
    )

    def solve(
        self,
        problem: SelectionProblem,
        scenario: Scenario,
        warm_start: Optional[FrozenSet[str]] = None,
    ) -> SelectionOutcome:
        self.check_scenario(scenario)
        return _knapsack_select(problem, scenario)


@register
@dataclass(frozen=True)
class GreedySpec(OptimizerSpec):
    """Interaction-aware greedy: repair, best-addition, drop pass."""

    name: ClassVar[str] = "greedy"

    def solve(
        self,
        problem: SelectionProblem,
        scenario: Scenario,
        warm_start: Optional[FrozenSet[str]] = None,
    ) -> SelectionOutcome:
        return greedy_select(problem, scenario)


@register
@dataclass(frozen=True)
class ExhaustiveSpec(OptimizerSpec):
    """Ground truth by enumeration (capped candidate count)."""

    name: ClassVar[str] = "exhaustive"

    def solve(
        self,
        problem: SelectionProblem,
        scenario: Scenario,
        warm_start: Optional[FrozenSet[str]] = None,
    ) -> SelectionOutcome:
        return exhaustive_select(problem, scenario)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def select_views(
    problem: SelectionProblem,
    scenario: Scenario,
    algorithm: Union[str, OptimizerSpec] = "knapsack",
    warm_start: Optional[FrozenSet[str]] = None,
) -> SelectionResult:
    """Choose the views to materialize for ``scenario``.

    ``algorithm`` is a registered name (``"knapsack"``, ``"greedy"``,
    ``"exhaustive"``, ``"beam"``, ``"local"``) or an
    :class:`~repro.optimizer.registry.OptimizerSpec` carrying its own
    knobs.  ``warm_start`` seeds anytime algorithms with a previously
    held subset; the classic trio ignores it, so legacy results are
    unchanged.

    >>> # doctest-style sketch; see examples/quickstart.py for a
    >>> # runnable end-to-end version.
    """
    spec = resolve(algorithm)
    telemetry = current_telemetry()
    explain = current_explain()
    if explain.enabled:
        stats = problem.stats
        calls_before = stats.calls
        priced_before = stats.priced
        hits_before = stats.hits
    with telemetry.span("optimizer.solve", algorithm=spec.name):
        outcome = spec.solve(problem, scenario, warm_start=warm_start)
    if telemetry.enabled:
        telemetry.inc("optimizer.solves", algorithm=spec.name)
        telemetry.observe(
            "optimizer.selected_views", len(outcome.subset)
        )
    if explain.enabled:
        # Everything mutable is captured *now* — the stat counters
        # keep counting and the scope closes when the epoch ends — but
        # the record itself (four sorted tuples, a dataclass) is built
        # lazily at log-read time, off the solve path.
        stats = problem.stats
        epoch, policy = explain.context
        incumbent = None if warm_start is None else frozenset(warm_start)
        chosen = outcome.subset
        evaluations = stats.calls - calls_before
        priced = stats.priced - priced_before
        cache_hits = stats.hits - hits_before
        explain.emit_deferred(
            lambda: OptimizerSolveRecord(
                epoch=epoch,
                policy=policy,
                algorithm=spec.name,
                subset=tuple(sorted(chosen)),
                warm_start=(
                    None if incumbent is None else tuple(sorted(incumbent))
                ),
                added=tuple(
                    sorted(chosen - (incumbent or frozenset()))
                ),
                dropped=tuple(
                    sorted((incumbent or frozenset()) - chosen)
                ),
                evaluations=evaluations,
                priced=priced,
                cache_hits=cache_hits,
            )
        )
    return SelectionResult(
        scenario=scenario,
        algorithm=spec.name,
        outcome=outcome,
        baseline=problem.baseline(),
    )
