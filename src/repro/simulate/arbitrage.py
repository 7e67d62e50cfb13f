"""Online pricing arbitrage: provider migration as a policy decision.

The paper treats the provider as fixed context; the lifecycle
simulator's :class:`~repro.simulate.events.PriceChange` made the book
an *event*.  This module makes it a *decision*: each epoch, an
:class:`ArbitrageAware` policy prices the warehouse's holdings and
workload against every candidate book quoted in the state's market
(cheap, because counterfactual problems flow through the shared
:class:`~repro.optimizer.problem.SubsetEvaluationCache`), charges the
would-be switch — dataset + view egress on the source, ingress on the
target, full re-materialization at the target's compute rates
(:mod:`repro.pricing.migration`) — and emits a
:class:`~repro.simulate.events.ProviderMigration` only when the
amortized savings over a forecast horizon beat the switch cost.

Two guards keep spot-price noise from causing thrash:

* the **amortization test** itself — a transient price blip rarely
  clears egress + rebuild within the horizon;
* **hysteresis** — the same candidate family must win for
  ``hysteresis`` consecutive epochs before the policy moves, the same
  hold-N idea :class:`~repro.simulate.policy.RegretTriggered` uses
  for re-selection.

The wrapper composes with any re-selection policy: the inner policy
keeps deciding *what to materialize*, the wrapper decides *where to
run it*, and on migration the subset is re-selected under the
target's book (everything is re-materialized anyway, so there is no
carry benefit to preserve).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, FrozenSet, Optional

from ..errors import SimulationError
from ..explain import ArbitrageAssessmentRecord
from ..explain import current as current_explain
from ..money import Money
from ..optimizer.problem import SelectionProblem
from ..pricing.migration import MigrationEstimate
from ..pricing.providers import Provider
from ..telemetry import current as current_telemetry
from .events import ProviderMigration
from .policy import PolicyDecision, ReselectionPolicy
from .problems import EpochContext
from .state import provider_family

__all__ = [
    "ArbitrageAware",
    "MigrationAssessment",
    "assess_migration",
    "operating_cost",
]


def operating_cost(problem: SelectionProblem, subset: AbstractSet[str]) -> Money:
    """One epoch's steady-state bill for holding ``subset``.

    Everything the subset costs per billing period *except*
    materialization: processing, maintenance, storage and result
    egress.  This is the per-epoch quantity two provider books are
    compared on — build charges are one-offs and belong to the switch
    cost, not the recurring savings.
    """
    breakdown = problem.evaluate(subset).breakdown
    return breakdown.total - breakdown.computing.materialization_cost


@dataclass(frozen=True)
class MigrationAssessment:
    """One candidate book's migration economics at one epoch.

    ``stay_cost`` and ``move_cost`` are per-epoch operating costs of
    the same holdings + workload on the current and candidate books;
    ``estimate`` is the full switch price tag.  The decision rule is
    :attr:`worthwhile`: positive per-epoch savings whose sum over
    ``horizon`` epochs exceeds the switch cost.
    """

    target: Provider
    stay_cost: Money
    move_cost: Money
    estimate: MigrationEstimate
    horizon: int

    @property
    def savings_per_epoch(self) -> Money:
        """What one epoch on the target saves (negative = costs more)."""
        return self.stay_cost - self.move_cost

    @property
    def amortized_savings(self) -> Money:
        """The savings summed over the forecast horizon."""
        return self.savings_per_epoch * self.horizon

    @property
    def net_savings(self) -> Money:
        """Amortized savings minus the switch cost — the decision margin."""
        return self.amortized_savings - self.estimate.total

    @property
    def worthwhile(self) -> bool:
        """Whether the move pays for itself within the horizon."""
        return self.savings_per_epoch > Money(0) and self.net_savings > Money(0)

    def describe(self) -> str:
        """One line: target, per-epoch savings, switch cost, verdict."""
        verdict = "pays" if self.worthwhile else "does not pay"
        return (
            f"-> {self.target.name}: saves {self.savings_per_epoch}/epoch, "
            f"switch {self.estimate.total}, net {self.net_savings} over "
            f"{self.horizon} epochs ({verdict})"
        )


def assess_migration(
    problem: SelectionProblem,
    target_problem: SelectionProblem,
    target: Provider,
    subset: AbstractSet[str],
    held: AbstractSet[str],
    horizon: int,
) -> MigrationAssessment:
    """Price one candidate migration.

    Parameters
    ----------
    problem:
        The epoch's problem on the *current* book.
    target_problem:
        The same world counterfactually billed on ``target`` (from
        :meth:`~repro.simulate.problems.EpochContext.counterfactual`).
    target:
        The candidate book.
    subset:
        The views that would be held (and re-materialized) after the
        move — the inner policy's decision for this epoch.
    held:
        The views that physically exist when the move would fire —
        they are what gets egressed alongside the dataset.
    horizon:
        Epochs the savings are amortized over.
    """
    if horizon < 1:
        raise SimulationError(f"forecast horizon must be >= 1, got {horizon}")
    inputs = problem.inputs
    rebuild = (
        target_problem.evaluate(subset).breakdown.computing.materialization_cost
    )
    estimate = MigrationEstimate.between(
        source=inputs.deployment.provider,
        target=target,
        dataset_gb=inputs.dataset_gb,
        view_sizes_gb={
            name: inputs.view_stats[name].size_gb for name in sorted(held)
        },
        rebuild_cost=rebuild,
    )
    return MigrationAssessment(
        target=target,
        stay_cost=operating_cost(problem, subset),
        move_cost=operating_cost(target_problem, subset),
        estimate=estimate,
        horizon=horizon,
    )


class ArbitrageAware(ReselectionPolicy):
    """Wraps a re-selection policy with provider-migration decisions.

    Each epoch the inner policy decides the subset as usual; the
    wrapper then prices that subset (and the workload) on every other
    family quoted in the state's market, and — when one book's
    amortized savings beat the switch cost for ``hysteresis``
    consecutive epochs — re-selects under the winner's book and
    attaches a :class:`~repro.simulate.events.ProviderMigration` to
    the decision.  The first epoch never migrates (there is nothing
    deployed to move yet), and an empty market makes the wrapper a
    transparent pass-through.

    Parameters
    ----------
    inner:
        The re-selection policy deciding *what* to materialize.
    horizon:
        Epochs the per-epoch savings are amortized over before being
        compared with the switch cost (the ``--migration-horizon``
        CLI knob).
    hysteresis:
        Consecutive epochs the same candidate family must stay
        worthwhile before the policy moves (``--migration-hold``).
        ``1`` migrates on the first worthwhile epoch.
    """

    name = "arbitrage"

    def __init__(
        self,
        inner: ReselectionPolicy,
        horizon: int = 6,
        hysteresis: int = 2,
    ) -> None:
        if isinstance(inner, ArbitrageAware):
            raise SimulationError(
                "arbitrage wrappers do not nest; wrap the base policy once"
            )
        if horizon < 1:
            raise SimulationError(
                f"forecast horizon must be >= 1 epoch, got {horizon}"
            )
        if hysteresis < 1:
            raise SimulationError(
                f"hysteresis must be >= 1 epoch, got {hysteresis}"
            )
        self._inner = inner
        self._horizon = horizon
        self._hysteresis = hysteresis
        # Consecutive epochs the same candidate family has been the
        # worthwhile winner; reset on migration, on a new run, and
        # whenever no candidate (or a different one) wins.
        self._streak = 0
        self._streak_family: Optional[str] = None

    # -- delegation -----------------------------------------------------

    @property
    def inner(self) -> ReselectionPolicy:
        """The wrapped re-selection policy."""
        return self._inner

    @property
    def horizon(self) -> int:
        """Epochs the savings forecast covers."""
        return self._horizon

    @property
    def hysteresis(self) -> int:
        """Consecutive worthwhile epochs required before migrating."""
        return self._hysteresis

    @property
    def scenario(self):
        """The inner policy's objective (delegated)."""
        return self._inner.scenario

    @property
    def optimizer(self):
        """The inner policy's optimizer spec (delegated)."""
        return self._inner.optimizer

    def optimum(
        self,
        problem: SelectionProblem,
        current: Optional[FrozenSet[str]] = None,
    ) -> FrozenSet[str]:
        """The inner policy's optimum for ``problem`` (delegated)."""
        return self._inner.optimum(problem, current)

    def decide(
        self,
        epoch_index: int,
        problem: SelectionProblem,
        current: Optional[FrozenSet[str]],
    ) -> PolicyDecision:
        """Without an epoch context there is nothing to arbitrage against;
        delegate to the inner policy unchanged."""
        return self._inner.decide(epoch_index, problem, current)

    # -- the arbitrage step --------------------------------------------

    def _reset(self) -> None:
        self._streak = 0
        self._streak_family = None

    def decide_in_context(
        self,
        epoch_index: int,
        problem: SelectionProblem,
        current: Optional[FrozenSet[str]],
        context: EpochContext,
    ) -> PolicyDecision:
        """The inner decision, possibly upgraded to a migration."""
        decision = self._inner.decide(epoch_index, problem, current)
        if current is None:
            # Epoch 0: the provider is a deployment choice, not a
            # migration — there is nothing deployed to move yet.
            self._reset()
            return decision
        candidates = context.state.candidate_books()
        if not candidates:
            return decision
        telemetry = current_telemetry()
        explain = current_explain()
        quotes = []
        best: Optional[MigrationAssessment] = None
        with telemetry.span("arbitrage.assess", epoch=epoch_index):
            for book in candidates:
                assessment = assess_migration(
                    problem,
                    context.counterfactual(book),
                    book,
                    decision.subset,
                    current,
                    self._horizon,
                )
                if telemetry.enabled:
                    telemetry.inc("arbitrage.quotes")
                    if assessment.worthwhile:
                        telemetry.inc("arbitrage.worthwhile")
                if explain.enabled:
                    quotes.append(assessment)
                if not assessment.worthwhile:
                    continue
                if best is None or assessment.net_savings > best.net_savings:
                    best = assessment
        if best is None:
            self._reset()
            self._emit_quotes(explain, epoch_index, quotes, best, False)
            return decision
        family = provider_family(best.target.name)
        if family == self._streak_family:
            self._streak += 1
        else:
            self._streak_family = family
            self._streak = 1
        if self._streak < self._hysteresis:
            self._emit_quotes(explain, epoch_index, quotes, best, False)
            return decision
        streak = self._streak
        self._reset()
        if telemetry.enabled:
            telemetry.inc("arbitrage.migrations")
            telemetry.observe(
                "arbitrage.net_savings", best.net_savings
            )
        self._emit_quotes(explain, epoch_index, quotes, best, True, streak)
        # Everything re-materializes on the target anyway, so there is
        # no carry benefit: re-select under the target's book.
        subset = self._inner.optimum(context.counterfactual(best.target))
        return PolicyDecision(
            subset=subset,
            reoptimized=True,
            regret=decision.regret,
            migration=ProviderMigration(
                epoch=epoch_index, provider=best.target
            ),
            trigger="arbitrage",
            streak=streak,
        )

    def _emit_quotes(
        self,
        explain,
        epoch_index: int,
        quotes,
        best: Optional[MigrationAssessment],
        migrated: bool,
        streak: Optional[int] = None,
    ) -> None:
        """Record every book's quote into the ambient explain log.

        ``streak`` is the hold counter *after* this epoch's update
        (passed explicitly on the migration path, where the counter
        has already been reset); ``migrated`` marks the winning quote
        when the move fired.

        Each quote parks as a deferred log slot: the assessment is a
        frozen value object and every other captured input (the
        counter, the shared policy description, the winning identity)
        is immutable, so the record — a dozen exact ``Money`` reads
        plus a dataclass — materializes at log-read time instead of
        inside the decision loop.
        """
        if not explain.enabled:
            return
        counter = streak if streak is not None else self._streak
        # One description per emission batch, not per book: describe()
        # renders nested policy reprs, and every quote shares it.
        policy = self.describe()
        hold = self._hysteresis
        for quote in quotes:
            explain.emit_deferred(
                lambda quote=quote: ArbitrageAssessmentRecord(
                    epoch=epoch_index,
                    policy=policy,
                    target=quote.target.name,
                    stay_cost=quote.stay_cost,
                    move_cost=quote.move_cost,
                    savings_per_epoch=quote.savings_per_epoch,
                    switch_cost=quote.estimate.total,
                    amortized_savings=quote.amortized_savings,
                    net_savings=quote.net_savings,
                    horizon=quote.horizon,
                    worthwhile=quote.worthwhile,
                    streak=counter,
                    hold=hold,
                    migrated=migrated and quote is best,
                )
            )

    def describe(self) -> str:
        """``arbitrage[inner, h=H(, hold N)]``."""
        hold = f", hold {self._hysteresis}" if self._hysteresis > 1 else ""
        return (
            f"arbitrage[{self._inner.describe()}, "
            f"h={self._horizon}{hold}]"
        )
