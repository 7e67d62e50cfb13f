"""The view-selection problem: subsets of candidates, exactly priced.

A :class:`SelectionProblem` binds :class:`~repro.costmodel.estimator.PlanningInputs`
to a :class:`~repro.costmodel.total.CloudCostModel` and answers one
question: *what does this subset of candidate views cost, and how fast
is the workload with it?*  Every algorithm — the paper's knapsack, the
exhaustive ground truth, the greedy — speaks to this object, so they
are compared on identical physics.

Evaluation is **exact** (interactions included): the processing time of
a subset takes, per query, the best answering source actually in the
subset.  The knapsack's independence approximation lives in the
*algorithm*, not here; its final answer is re-priced exactly before
being reported.

Pricing a subset is memoized at two levels:

* every :class:`SelectionProblem` keeps a private subset -> outcome
  dict, so one optimizer run never prices the same subset twice;
* an optional :class:`SubsetEvaluationCache` can be shared *across*
  problems.  It keys entries by ``(state key, subset)``, where the
  state key is a hashable fingerprint of the problem's numeric world
  (:meth:`~repro.costmodel.estimator.PlanningInputs.fingerprint` by
  default).  The lifecycle simulator (:mod:`repro.simulate`) hands the
  same cache to every epoch's problem, so epochs whose world did not
  change never re-price a subset from scratch.

:class:`EvaluationStats` counts calls, cache hits and actual pricings,
which is how tests and benchmarks demonstrate the caching works.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, Hashable, Optional, Tuple

from ..costmodel.estimator import PlanningInputs
from ..costmodel.total import CloudCostModel, CostBreakdown
from ..errors import OptimizationError
from ..kernel import KernelWorld, ScreeningWorld, kernel_enabled
from ..money import Money

__all__ = [
    "EvaluationStats",
    "SelectionOutcome",
    "SelectionProblem",
    "SubsetEvaluationCache",
]


@dataclass(frozen=True)
class SelectionOutcome:
    """One subset, exactly priced."""

    subset: FrozenSet[str]
    breakdown: CostBreakdown

    @property
    def processing_hours(self) -> float:
        """T_processingQ under this subset (Formula 9)."""
        return self.breakdown.processing_hours

    @property
    def total_cost(self) -> Money:
        """C under this subset (Formula 1)."""
        return self.breakdown.total

    def describe(self) -> str:
        """Short display: views + headline numbers."""
        views = ", ".join(sorted(self.subset)) if self.subset else "(no views)"
        return f"[{views}] {self.breakdown.summary()}"


@dataclass
class EvaluationStats:
    """Counters for one problem's :meth:`SelectionProblem.evaluate` traffic."""

    #: evaluate() invocations (including every cache hit).
    calls: int = 0
    #: Hits in the problem's own subset dict.
    local_hits: int = 0
    #: Hits in the shared :class:`SubsetEvaluationCache`.
    shared_hits: int = 0
    #: Subsets actually priced through the cost model.
    priced: int = 0

    @property
    def hits(self) -> int:
        """All cache hits, local and shared."""
        return self.local_hits + self.shared_hits


class SubsetEvaluationCache:
    """Cross-problem memo of subset pricings, keyed by (state, subset).

    The state key identifies the numeric world a pricing was computed
    in; two problems with equal state keys are interchangeable for
    pricing purposes, so their outcomes can be shared.  Used by
    :mod:`repro.simulate` to keep multi-epoch, multi-policy sweeps from
    re-pricing unchanged epochs.

    Entries are stored under the state key's interned id (see
    :meth:`intern`), so :meth:`get` and :meth:`put` hash a deep key
    once per call while a :class:`SelectionProblem` resolves its id
    once and then looks entries up by that ``int`` alone.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, FrozenSet[str]], SelectionOutcome] = {}
        self._interned: Dict[Hashable, int] = {}
        self.hits = 0
        self.misses = 0

    def intern(self, state_key: Hashable) -> int:
        """A small stable id for a (possibly deep) state key.

        State keys built from full fingerprints are large nested
        tuples; hashing one per ``evaluate()`` call would dominate
        cache lookups.  Interning hashes the deep key once and hands
        back an ``int`` that is unique *within this cache* — callers
        sharing a cache share the id namespace, so soundness is kept.
        """
        interned = self._interned.get(state_key)
        if interned is None:
            interned = len(self._interned)
            self._interned[state_key] = interned
        return interned

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self, state_key: Hashable, subset: FrozenSet[str]
    ) -> Optional[SelectionOutcome]:
        """The cached outcome for ``subset`` in world ``state_key``, if any."""
        state_id = self._interned.get(state_key)
        if state_id is None:
            self.misses += 1
            return None
        return self._get_interned(state_id, subset)

    def put(
        self,
        state_key: Hashable,
        subset: FrozenSet[str],
        outcome: SelectionOutcome,
    ) -> None:
        """Record a freshly priced outcome."""
        self._put_interned(self.intern(state_key), subset, outcome)

    def _get_interned(
        self, state_id: int, subset: FrozenSet[str]
    ) -> Optional[SelectionOutcome]:
        """:meth:`get` for a state key already resolved by :meth:`intern`."""
        outcome = self._entries.get((state_id, subset))
        if outcome is None:
            self.misses += 1
        else:
            self.hits += 1
        return outcome

    def _put_interned(
        self, state_id: int, subset: FrozenSet[str], outcome: SelectionOutcome
    ) -> None:
        """:meth:`put` for a state key already resolved by :meth:`intern`."""
        self._entries[(state_id, subset)] = outcome

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop every entry (counters and interned ids are kept).

        Interned ids survive so state keys handed out before the clear
        stay valid and distinct.
        """
        self._entries.clear()


class SelectionProblem:
    """Binds planning inputs to a cost model; memoizes subset pricing.

    ``cache`` (optional) is a :class:`SubsetEvaluationCache` shared
    with other problems; ``state_key`` identifies this problem's world
    in that cache and defaults to ``inputs.fingerprint()`` (computed
    lazily, only if the shared cache is consulted).  The key is
    interned in the shared cache once, on first use, so each
    evaluation hashes a small ``int`` rather than the whole key.

    ``kernel`` controls whether pricing runs through the vectorized
    :class:`~repro.kernel.KernelWorld` (``None`` follows the ambient
    :func:`repro.kernel.kernel_enabled` default).  The kernel is a pure
    accelerator: it reproduces the Decimal path byte-for-byte or is
    not used at all, so the flag never changes any outcome.
    """

    def __init__(
        self,
        inputs: PlanningInputs,
        cost_model: Optional[CloudCostModel] = None,
        cache: Optional[SubsetEvaluationCache] = None,
        state_key: Optional[Hashable] = None,
        kernel: Optional[bool] = None,
    ) -> None:
        if cache is not None and cost_model is not None and state_key is None:
            # The default state key fingerprints the inputs only; a
            # custom cost model prices them differently, so sharing
            # under that key would alias distinct worlds.
            raise OptimizationError(
                "a custom cost_model with a shared cache needs an "
                "explicit state_key that identifies the model"
            )
        self._inputs = inputs
        self._model = cost_model or CloudCostModel(inputs.deployment)
        self._cache: Dict[FrozenSet[str], SelectionOutcome] = {}
        self._shared = cache
        self._state_key = state_key
        self._state_id: Optional[int] = None
        self._candidate_names = tuple(c.name for c in inputs.candidates)
        self._stats = EvaluationStats()
        self._kernel_requested = kernel
        self._kernel_world: Optional[KernelWorld] = None
        self._kernel_tried = False
        self._screen_world: Optional[KernelWorld] = None
        self._screen_tried = False

    @property
    def inputs(self) -> PlanningInputs:
        """The numeric world the problem is defined over."""
        return self._inputs

    @property
    def cost_model(self) -> CloudCostModel:
        """The pricing side of the problem."""
        return self._model

    @property
    def candidate_names(self) -> Tuple[str, ...]:
        """Candidate view names, in deterministic order (built once)."""
        return self._candidate_names

    @property
    def stats(self) -> EvaluationStats:
        """Evaluation counters (calls / hits / actual pricings)."""
        return self._stats

    @property
    def state_key(self) -> Hashable:
        """This problem's identity in a shared cache."""
        if self._state_key is None:
            self._state_key = self._inputs.fingerprint()
        return self._state_key

    def evaluate(self, subset: AbstractSet[str]) -> SelectionOutcome:
        """Exactly price ``subset`` (memoized, locally and shared)."""
        key = self._inputs.check_subset(subset)
        self._stats.calls += 1
        cached = self._cache.get(key)
        if cached is not None:
            self._stats.local_hits += 1
            return cached
        if self._shared is not None:
            if self._state_id is None:
                self._state_id = self._shared.intern(self.state_key)
            shared = self._shared._get_interned(self._state_id, key)
            if shared is not None:
                self._cache[key] = shared
                self._stats.shared_hits += 1
                return shared
        world = self._kernel_world_for()
        if world is not None:
            breakdown = world.evaluate(key)
        else:
            breakdown = self._model.evaluate(self._inputs.plan_for(key))
        outcome = SelectionOutcome(subset=key, breakdown=breakdown)
        self._stats.priced += 1
        self._cache[key] = outcome
        if self._shared is not None:
            self._shared._put_interned(self._state_id, key, outcome)
        return outcome

    def _kernel_world_for(self) -> Optional[KernelWorld]:
        """The kernel world pricing this problem, built on first miss.

        ``None`` means the kernel is disabled or cannot represent this
        world; the caller runs the oracle path instead.  Built lazily
        so problems answered entirely from caches never pay the build.
        """
        if not self._kernel_tried:
            self._kernel_tried = True
            wanted = (
                self._kernel_requested
                if self._kernel_requested is not None
                else kernel_enabled()
            )
            if wanted:
                self._kernel_world = KernelWorld.build(self._inputs, self._model)
        return self._kernel_world

    def screener(self) -> Optional[ScreeningWorld]:
        """The cents-only screening surrogate for this world, if any.

        ``None`` when the world cannot be kernel-factored (cascade
        materialization, subclassed cost models, inputs the oracle
        rejects) — searchers then rank on exact evaluations instead.

        Deliberately independent of the kernel on/off flag: screening
        only *orders* candidate moves, and both the kernel and oracle
        paths then price the screened winners to byte-identical
        ledgers — so ``--no-kernel`` keeps changing nothing but speed.
        The kernel world built here is reused for exact pricing when
        the flag allows it, so nothing is factored twice.
        """
        if not self._screen_tried:
            self._screen_tried = True
            world = self._kernel_world
            if world is None:
                world = KernelWorld.build(self._inputs, self._model)
                wanted = (
                    self._kernel_requested
                    if self._kernel_requested is not None
                    else kernel_enabled()
                )
                if world is not None and wanted and not self._kernel_tried:
                    # Share the factoring with the exact path when that
                    # path would build the same world anyway.
                    self._kernel_world = world
                    self._kernel_tried = True
            self._screen_world = world
        if self._screen_world is None:
            return None
        return self._screen_world.screening()

    def baseline(self) -> SelectionOutcome:
        """The without-views outcome (Section 3 of the paper)."""
        return self.evaluate(frozenset())

    def singleton(self, view_name: str) -> SelectionOutcome:
        """The outcome of materializing exactly one view."""
        return self.evaluate(frozenset({view_name}))

    def marginal_cost(self, view_name: str) -> Money:
        """C({v}) - C(∅): the view's standalone net dollar impact.

        Negative means the view pays for itself in compute savings —
        these are the items the knapsack pre-accepts.
        """
        return self.singleton(view_name).total_cost - self.baseline().total_cost

    def marginal_saving_hours(self, view_name: str) -> float:
        """T(∅) - T({v}): the view's standalone time saving (>= 0)."""
        return (
            self.baseline().processing_hours
            - self.singleton(view_name).processing_hours
        )

    def processing_hours_for(
        self, subset: AbstractSet[str], query_names: AbstractSet[str]
    ) -> float:
        """Frequency-weighted hours of a query group under ``subset``.

        The multi-workload slice of Formula 9: summing over one
        tenant's queries instead of the whole workload.  The groups'
        hours sum to the subset's total processing hours when the
        groups partition the workload.
        """
        return self._inputs.group_processing_hours(subset, query_names)
