"""View-selection optimization: scenarios MV1/MV2/MV3 and algorithms."""

from .elastic import ElasticChoice, elastic_select, scale_out_only
from .exhaustive import exhaustive_select, iterate_subsets
from .fairness import FairShareScenario
from .greedy import greedy_select
from .knapsack import KnapsackSolution, max_value_knapsack, min_weight_cover
from .pareto import dominates, frontier_outcomes, pareto_frontier
from .problem import (
    EvaluationStats,
    SelectionOutcome,
    SelectionProblem,
    SubsetEvaluationCache,
)
from .registry import OptimizerSpec, register, registered_algorithms, resolve
from .scenarios import BudgetLimit, Scenario, TimeLimit, Tradeoff, mv1, mv2, mv3
from .search import BeamSearchSpec, LocalSearchSpec, SearchBudget
from .selector import (
    ExhaustiveSpec,
    GreedySpec,
    KnapsackSpec,
    SelectionResult,
    select_views,
)

__all__ = [
    "BeamSearchSpec",
    "BudgetLimit",
    "ElasticChoice",
    "EvaluationStats",
    "ExhaustiveSpec",
    "FairShareScenario",
    "GreedySpec",
    "KnapsackSolution",
    "KnapsackSpec",
    "LocalSearchSpec",
    "OptimizerSpec",
    "SearchBudget",
    "SubsetEvaluationCache",
    "register",
    "registered_algorithms",
    "resolve",
    "elastic_select",
    "scale_out_only",
    "Scenario",
    "SelectionOutcome",
    "SelectionProblem",
    "SelectionResult",
    "TimeLimit",
    "Tradeoff",
    "dominates",
    "exhaustive_select",
    "frontier_outcomes",
    "greedy_select",
    "iterate_subsets",
    "max_value_knapsack",
    "min_weight_cover",
    "mv1",
    "mv2",
    "mv3",
    "pareto_frontier",
    "select_views",
]
