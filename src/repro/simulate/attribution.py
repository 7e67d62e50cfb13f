"""Shared-cost attribution: one warehouse bill, split across tenants.

When several tenants share a warehouse, most of the bill is jointly
caused: a view at (day, country) may serve three tenants' dashboards,
the base dataset is stored once for everyone, and a maintenance job
refreshes a view for whoever queries it next.  A
:class:`SharedCostAttributor` splits every component of an epoch's
:class:`~repro.costmodel.total.CostBreakdown` into per-tenant shares
that **sum exactly** to the fleet amount — the invariant
:meth:`~repro.simulate.ledger.FleetLedger.verify_attribution` enforces.

Cost components and how they are split:

* **query processing** and **result transfer** — directly caused:
  every query belongs to exactly one tenant, so these are split by
  each tenant's frequency-weighted processing hours / egress volume;
* **view maintenance**, **view storage**, **view builds** — shared by
  the tenants whose queries the view answers this epoch, split by the
  attribution *mode* (below);
* **base-dataset storage**, **teardown egress**, **migration
  transfer** (the legs of a provider switch — the "which tenant pays
  for a migration?" charge) and **cancelled-build sunk compute** —
  fleet infrastructure with no per-view user set, split by the
  infrastructure rule (proportional to use, or evenly).

Epochs billed on mid-epoch holdings (records carrying
:class:`~repro.simulate.ledger.EpochSegment`\\ s) are attributed
segment by segment: each segment's prorated operating components are
split by the views live *during that segment* — a tenant whose
dashboard view lands mid-epoch starts paying its view-storage share
only from the landing — and the per-segment shares sum across
segments to exactly the epoch's prorated fleet charges, so
:meth:`~repro.simulate.ledger.FleetLedger.verify_attribution` holds
unchanged.

One plan, one merge: :meth:`SharedCostAttributor.component_plan` is
the only place an epoch's splits are decided, as a tuple of
:class:`AllocationEntry` records.  :func:`plan_products` computes
their per-tenant products and :func:`merge_plan` replays the
sequential residual.  Fleet runs evaluate the plan through
:mod:`repro.simulate.sharding` (one in-process shard, or several
tenant shards across worker processes) and
:meth:`SharedCostAttributor.outcome_shares` evaluates it in-process —
the same merge, the same bytes.

Two attribution modes (:data:`ATTRIBUTION_MODES`):

* ``"proportional"`` — proportional-to-use: a view's charges are split
  by each using tenant's frequency-weighted accesses (a tenant running
  a view-answered query 6x/period pays twice the share of one running
  it 3x/period);
* ``"even"`` — Shapley-style even split: a view's cost is a fixed
  joint cost, and the Shapley value of a fixed-cost game shared by *k*
  symmetric players is ``cost / k``, so every tenant using the view
  pays the same share regardless of intensity.

Exactness: shares are computed in :class:`~repro.money.Money`
(``Decimal``) arithmetic, and each component's last tenant receives
``amount - sum(other shares)`` rather than its own rounded product, so
per-tenant ledgers always sum to the fleet ledger — not just "to the
cent" but to the last decimal digit.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..costmodel.storage import storage_cost
from ..costmodel.total import CostBreakdown
from ..errors import SimulationError
from ..money import _CTX, Money, ZERO
from ..optimizer.problem import SelectionOutcome, SelectionProblem
from ..workload.workload import NAMESPACE_SEPARATOR
from .ledger import EpochRecord, TenantEpochRecord

__all__ = [
    "ATTRIBUTION_MODES",
    "TENANT_SEPARATOR",
    "AllocationEntry",
    "PLAN_FIELDS",
    "SharedCostAttributor",
    "allocate_exactly",
    "merge_plan",
    "plan_products",
    "tenant_records",
    "tenant_of_query",
]

#: Attribution modes accepted by :class:`SharedCostAttributor`.
ATTRIBUTION_MODES = ("proportional", "even")

#: Separator between a tenant's name and its queries' names in the
#: merged fleet workload ("acme/Q1" belongs to tenant "acme"): each
#: tenant's queries form the workload namespace named after it.
TENANT_SEPARATOR = NAMESPACE_SEPARATOR

#: The :class:`~repro.simulate.ledger.TenantEpochRecord` fields an
#: :class:`AllocationEntry` may land on.
PLAN_FIELDS = (
    "processing_cost",
    "transfer_cost",
    "maintenance_cost",
    "storage_cost",
    "build_cost",
    "teardown_cost",
    "migration_cost",
    "cancelled_cost",
)


def tenant_of_query(query_name: str) -> Optional[str]:
    """The tenant a namespaced fleet query belongs to (``None`` if unscoped)."""
    if TENANT_SEPARATOR not in query_name:
        return None
    return query_name.split(TENANT_SEPARATOR, 1)[0]


def allocate_exactly(
    amount: Money, weights: Mapping[str, float], order: Sequence[str]
) -> Dict[str, Money]:
    """Split ``amount`` by ``weights`` so the shares sum to it exactly.

    Every tenant but the last gets ``amount * (weight / total_weight)``;
    the last gets the exact residual, which absorbs any rounding of the
    Decimal products.  Zero (or degenerate) total weight falls back to
    an even split — a charge must never vanish just because nobody's
    weight registered.

    >>> from repro.money import Money
    >>> shares = allocate_exactly(
    ...     Money("10.00"), {"a": 2.0, "b": 1.0}, ["a", "b"]
    ... )
    >>> shares["a"] + shares["b"] == Money("10.00")
    True
    """
    if not order:
        raise SimulationError("cannot allocate a charge to zero tenants")
    total_weight = sum(max(0.0, weights.get(name, 0.0)) for name in order)
    if total_weight <= 0.0:
        weights = {name: 1.0 for name in order}
        total_weight = float(len(order))
    shares: Dict[str, Money] = {}
    running = ZERO
    for name in order[:-1]:
        share = amount * (max(0.0, weights.get(name, 0.0)) / total_weight)
        shares[name] = share
        running = running + share
    shares[order[-1]] = amount - running
    return shares


@dataclass(frozen=True)
class AllocationEntry:
    """One exact split of an epoch's attribution plan.

    The normalized form of one :func:`allocate_exactly` call: ``field``
    names the :class:`~repro.simulate.ledger.TenantEpochRecord`
    component the shares land on, ``weights`` aligns with the active
    tenant order, and the zero-total even fallback is *already
    applied* (``total`` is the exact divisor the sequential split
    uses).  Any tenant's product share ``amount * (weights[i] /
    total)`` can therefore be computed independently — in-process or
    in a worker shard (:func:`plan_products`) — and :func:`merge_plan`
    reassembles the sequential running sum so the globally-last tenant
    gets the exact residual, byte-identical for any shard count.
    """

    field: str
    amount: Money
    weights: Tuple[float, ...]
    total: float


class SharedCostAttributor:
    """Splits fleet charges into per-tenant shares (see module docs).

    Parameters
    ----------
    tenants:
        The tenant names, in the deterministic order used for residual
        assignment (the last tenant absorbs rounding residues).
    mode:
        One of :data:`ATTRIBUTION_MODES`.
    tenant_of:
        Maps a fleet query name to its owning tenant; defaults to the
        :data:`TENANT_SEPARATOR` prefix convention used by
        :class:`~repro.simulate.tenants.TenantFleet`.
    """

    def __init__(
        self,
        tenants: Sequence[str],
        mode: str = "proportional",
        tenant_of: Optional[Callable[[str], Optional[str]]] = None,
    ) -> None:
        if mode not in ATTRIBUTION_MODES:
            raise SimulationError(
                f"unknown attribution mode {mode!r}; "
                f"choose from {ATTRIBUTION_MODES}"
            )
        if not tenants:
            raise SimulationError("an attributor needs at least one tenant")
        if len(set(tenants)) != len(tenants):
            raise SimulationError("tenant names must be unique")
        self._tenants: Tuple[str, ...] = tuple(tenants)
        self._roster = frozenset(self._tenants)
        self._mode = mode
        self._tenant_of = tenant_of if tenant_of is not None else tenant_of_query

    @property
    def tenants(self) -> Tuple[str, ...]:
        """Tenant names, in residual-assignment order."""
        return self._tenants

    @property
    def mode(self) -> str:
        """``'proportional'`` or ``'even'``."""
        return self._mode

    def describe(self) -> str:
        """Short display form."""
        return f"{self._mode} over {len(self._tenants)} tenants"

    # -- per-epoch working data ----------------------------------------

    def _owner(self, query_name: str) -> str:
        tenant = self._tenant_of(query_name)
        if tenant is None or tenant not in self._roster:
            raise SimulationError(
                f"query {query_name!r} does not belong to any known tenant "
                f"({', '.join(self._tenants)})"
            )
        return tenant

    def _active(
        self, tenants: Optional[Sequence[str]]
    ) -> Tuple[str, ...]:
        """Resolve an active-tenant restriction (``None`` = full roster)."""
        if tenants is None:
            return self._tenants
        active = tuple(tenants)
        if not active:
            raise SimulationError("cannot attribute to zero active tenants")
        unknown = [t for t in active if t not in self._roster]
        if unknown:
            raise SimulationError(
                f"unknown active tenants {unknown!r}; roster has "
                f"{len(self._tenants)} names"
            )
        return active

    def _direct_weights(
        self,
        problem: SelectionProblem,
        subset: FrozenSet[str],
        active: Tuple[str, ...],
    ) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, Dict[str, float]]]:
        """Per-tenant processing/egress weights and per-view user weights.

        Returns ``(processing, egress, users)`` where ``processing`` and
        ``egress`` map tenant -> frequency-weighted hours / GB, and
        ``users`` maps view name -> {tenant: frequency-weighted accesses
        to that view} (only tenants with at least one query answered by
        the view appear).  ``active`` is the resolved active set (see
        :meth:`_active`); every workload query must belong to an
        active tenant.
        """
        inputs = problem.inputs
        # One pass computes hours, egress and per-view users together;
        # the hours agree with PlanningInputs.group_processing_hours
        # per tenant (pinned by a test) without re-scanning the
        # workload once per tenant.
        per_query = inputs.query_hours_with(subset)
        processing = {name: 0.0 for name in active}
        egress = {name: 0.0 for name in active}
        users: Dict[str, Dict[str, float]] = {}
        for query in inputs.workload:
            tenant = self._owner(query.name)
            if tenant not in processing:
                raise SimulationError(
                    f"query {query.name!r} belongs to tenant {tenant!r}, "
                    f"which is not active this epoch"
                )
            processing[tenant] += per_query[query.name] * query.frequency
            egress[tenant] += (
                inputs.result_sizes_gb[query.name] * query.frequency
            )
            source = inputs.best_source(query.name, subset)
            if source is not None:
                users.setdefault(source, {}).setdefault(tenant, 0.0)
                users[source][tenant] += query.frequency
        return processing, egress, users

    def _view_weights(
        self,
        per_view_amounts: Mapping[str, float],
        users: Mapping[str, Mapping[str, float]],
        infrastructure: Mapping[str, float],
        active: Tuple[str, ...],
    ) -> Dict[str, float]:
        """Per-tenant weights for charges that accrue per view.

        ``per_view_amounts`` weights each view's contribution (hours,
        gigabytes); each view's amount is divided among its users by
        the attribution mode, falling back to the infrastructure rule
        for views nobody currently uses (a policy may carry a view
        through an epoch in which no query reads it).
        """
        weights = {name: 0.0 for name in active}
        infra_total = sum(infrastructure.values())
        for view_name, amount in per_view_amounts.items():
            if amount <= 0.0:
                continue
            view_users = users.get(view_name)
            if view_users:
                if self._mode == "even":
                    share = amount / len(view_users)
                    for tenant in view_users:
                        weights[tenant] += share
                else:
                    use_total = sum(view_users.values())
                    for tenant, use in view_users.items():
                        weights[tenant] += amount * (use / use_total)
            elif infra_total > 0.0:
                for tenant, infra in infrastructure.items():
                    weights[tenant] += amount * (infra / infra_total)
            else:
                share = amount / len(active)
                for tenant in active:
                    weights[tenant] += share
        return weights

    def _infrastructure_weights(
        self,
        processing: Mapping[str, float],
        active: Tuple[str, ...],
    ) -> Mapping[str, float]:
        """The rule for charges with no per-view user set."""
        if self._mode == "even":
            return {name: 1.0 for name in active}
        return processing

    # -- the plan -------------------------------------------------------

    @staticmethod
    def _plan_entry(
        field: str,
        amount: Money,
        weights: Mapping[str, float],
        order: Sequence[str],
    ) -> AllocationEntry:
        """Normalize one split into an :class:`AllocationEntry`.

        Mirrors :func:`allocate_exactly`'s weight handling exactly:
        clipping, total, and even fallback are applied here so every
        evaluator computes the identical ``amount * (weight / total)``
        products.
        """
        clipped = tuple(
            max(0.0, weights.get(name, 0.0)) for name in order
        )
        total = sum(clipped)
        if total <= 0.0:
            clipped = tuple(1.0 for _ in order)
            total = float(len(order))
        return AllocationEntry(
            field=field, amount=amount, weights=clipped, total=total
        )

    def _operating_entries(
        self,
        problem: SelectionProblem,
        subset: FrozenSet[str],
        breakdown: CostBreakdown,
        fraction: float,
        active: Tuple[str, ...],
    ) -> Tuple[List[AllocationEntry], Dict[str, float], Dict]:
        """The operating-cost entries of one period (or segment).

        Splits ``breakdown``'s processing, transfer, maintenance and
        storage — scaled by ``fraction``, the period share a segment
        held ``subset`` for — by the users of ``subset``.  Storage
        contributes two entries, base then view share, both landing
        on ``storage_cost``.  Returns ``(entries, processing hours,
        view users)`` for the caller's one-off entries.
        """
        inputs = problem.inputs
        processing, egress, users = self._direct_weights(
            problem, subset, active
        )
        infrastructure = self._infrastructure_weights(processing, active)

        def scaled(amount: Money) -> Money:
            return amount if fraction == 1.0 else amount * fraction

        ordered = sorted(subset)
        cycles = inputs.deployment.maintenance_cycles
        maintenance_amounts = {
            name: inputs.view_stats[name].maintenance_hours_per_cycle * cycles
            for name in ordered
        }
        size_amounts = {
            name: inputs.view_stats[name].size_gb for name in ordered
        }
        base_storage = storage_cost(
            inputs.deployment.provider.storage, inputs.base_timeline
        )
        entries = [
            self._plan_entry(
                "processing_cost",
                scaled(breakdown.computing.processing_cost),
                processing, active,
            ),
            self._plan_entry(
                "transfer_cost", scaled(breakdown.transfer), egress, active
            ),
            self._plan_entry(
                "maintenance_cost",
                scaled(breakdown.computing.maintenance_cost),
                self._view_weights(
                    maintenance_amounts, users, infrastructure, active
                ),
                active,
            ),
            self._plan_entry(
                "storage_cost", scaled(base_storage), infrastructure, active
            ),
            self._plan_entry(
                "storage_cost",
                scaled(breakdown.storage - base_storage),
                self._view_weights(
                    size_amounts, users, infrastructure, active
                ),
                active,
            ),
        ]
        return entries, processing, users

    def _one_off_entries(
        self,
        build_cost: Money,
        build_amounts: Mapping[str, float],
        users: Mapping[str, Mapping[str, float]],
        infrastructure: Mapping[str, float],
        teardown_cost: Money,
        migration_cost: Money,
        cancelled_cost: Money,
        active: Tuple[str, ...],
    ) -> List[AllocationEntry]:
        """Build, teardown, migration and cancelled-build entries."""
        return [
            self._plan_entry(
                "build_cost",
                build_cost,
                self._view_weights(
                    build_amounts, users, infrastructure, active
                ),
                active,
            ),
            self._plan_entry(
                "teardown_cost", teardown_cost, infrastructure, active
            ),
            self._plan_entry(
                "migration_cost", migration_cost, infrastructure, active
            ),
            self._plan_entry(
                "cancelled_cost", cancelled_cost, infrastructure, active
            ),
        ]

    def _period_plan(
        self,
        problem: SelectionProblem,
        subset: FrozenSet[str],
        built: FrozenSet[str],
        breakdown: CostBreakdown,
        teardown_cost: Money,
        migration_cost: Money,
        cancelled_cost: Money,
        active: Tuple[str, ...],
    ) -> Tuple[Tuple[AllocationEntry, ...], Dict[str, float]]:
        """The plan of one full period holding ``subset``.

        ``breakdown`` is the period's priced breakdown (materialization
        narrowed to ``built``), used as is — never re-priced.
        """
        entries, processing, users = self._operating_entries(
            problem, subset, breakdown, 1.0, active
        )
        plan = problem.inputs.plan_for(subset)
        build_amounts = {
            name: hours
            for name, hours in zip(sorted(subset), plan.materialization_hours)
            if name in built and hours > 0.0
        }
        entries += self._one_off_entries(
            breakdown.computing.materialization_cost,
            build_amounts,
            users,
            self._infrastructure_weights(processing, active),
            teardown_cost,
            migration_cost,
            cancelled_cost,
            active,
        )
        return tuple(entries), processing

    def _segment_plan(
        self,
        problem: SelectionProblem,
        record: EpochRecord,
        active: Tuple[str, ...],
    ) -> Tuple[Tuple[AllocationEntry, ...], Dict[str, float]]:
        """The plan of an epoch billed segment by segment.

        Each segment's full-period components are scaled by its period
        fraction and split by the tenants using the views live in
        *that* segment — a tenant whose dashboard view lands mid-epoch
        starts paying its view-storage share only from the landing.
        Because every split is exact and ``Money`` products distribute
        exactly at this precision, the shares sum across segments to
        the record's prorated fleet charges to the last digit.

        Epoch-level one-offs — builds landing this epoch, teardown
        egress, migration transfer, cancelled-build sunk compute — are
        not prorated: builds are split by the landed views' users as
        of the epoch's end holdings, the rest by the infrastructure
        rule over time-weighted processing hours.
        """
        inputs = problem.inputs
        entries: List[AllocationEntry] = []
        hours = {name: 0.0 for name in active}
        end_users: Mapping[str, Mapping[str, float]] = {}
        for segment in record.segments:
            subset = frozenset(segment.subset)
            segment_entries, processing, end_users = (
                self._operating_entries(
                    problem,
                    subset,
                    problem.evaluate(subset).breakdown,
                    segment.fraction,
                    active,
                )
            )
            entries += segment_entries
            for name in active:
                hours[name] += processing[name] * segment.fraction
        build_amounts = {
            name: inputs.view_stats[name].materialization_hours
            for name in record.views_built
        }
        entries += self._one_off_entries(
            record.build_cost,
            build_amounts,
            end_users,
            self._infrastructure_weights(hours, active),
            record.teardown_cost,
            record.migration_cost,
            record.cancelled_cost,
            active,
        )
        return tuple(entries), hours

    def component_plan(
        self,
        problem: SelectionProblem,
        record: EpochRecord,
        breakdown: CostBreakdown,
        tenants: Optional[Sequence[str]] = None,
    ) -> Tuple[Tuple[AllocationEntry, ...], Dict[str, float]]:
        """One epoch's splits — the only place they are decided.

        Returns ``(entries, hours)``: the epoch's exact splits as
        :class:`AllocationEntry` records in a fixed order, plus each
        active tenant's processing hours (the processing weights,
        reused so the hours reported on a
        :class:`~repro.simulate.ledger.TenantEpochRecord` can never
        drift from the weights its processing cost was split by).

        ``breakdown`` must be the epoch breakdown the record was
        accounted from (materialization narrowed to the views built
        this epoch) — the simulator passes it to its observer.
        Records carrying segments (epochs billed on mid-epoch
        holdings) are planned segment by segment instead, re-pricing
        each segment's holdings through the problem's evaluation
        cache and ignoring ``breakdown``.
        """
        active = self._active(tenants)
        if record.segments:
            return self._segment_plan(problem, record, active)
        return self._period_plan(
            problem,
            frozenset(record.subset),
            frozenset(record.views_built),
            breakdown,
            record.teardown_cost,
            record.migration_cost,
            record.cancelled_cost,
            active,
        )

    # -- evaluating the plan --------------------------------------------

    def outcome_shares(
        self,
        problem: SelectionProblem,
        outcome: SelectionOutcome,
        tenants: Optional[Sequence[str]] = None,
    ) -> Dict[str, Money]:
        """Per-tenant shares of a selection outcome's full bill.

        The selection-time view of attribution: every view in the
        subset is charged as if built this period (exactly what
        ``outcome.breakdown`` prices), so the shares sum to
        ``outcome.total_cost``.  This is the quantity fairness-aware
        selection (:class:`~repro.optimizer.fairness.FairShareScenario`)
        constrains.
        """
        active = self._active(tenants)
        entries, _ = self._period_plan(
            problem,
            outcome.subset,
            outcome.subset,
            outcome.breakdown,
            ZERO,
            ZERO,
            ZERO,
            active,
        )
        add = _CTX.add
        totals: Dict[str, Money] = {}
        for name, row in zip(active, merge_plan(entries, len(active))):
            total = row["processing_cost"]
            for field in (
                "transfer_cost", "maintenance_cost", "storage_cost", "build_cost",
            ):
                total = add(total, row[field])
            totals[name] = Money(total)
        return totals

    def outcome_hours(
        self,
        problem: SelectionProblem,
        outcome: SelectionOutcome,
        tenants: Optional[Sequence[str]] = None,
    ) -> Dict[str, float]:
        """Each tenant's own processing hours under an outcome's subset.

        The latency-side analogue of :meth:`outcome_shares` — the
        quantity per-tenant latency-ceiling SLOs constrain.  Hours are
        directly caused (every query has one owner), so no splitting
        rule is involved.
        """
        processing, _, _ = self._direct_weights(
            problem, outcome.subset, self._active(tenants)
        )
        return processing

    def present_tenants(
        self, problem: SelectionProblem
    ) -> Tuple[str, ...]:
        """The roster tenants with at least one query in the problem's
        workload, in attributor order — an elastic fleet's active set
        as seen from a single epoch's problem."""
        present = {
            self._owner(query.name) for query in problem.inputs.workload
        }
        return tuple(name for name in self._tenants if name in present)


#: One shard's products: per plan entry, the shard's per-tenant
#: ``amount * (weight / total)`` values as raw ``Decimal``\ s.
_Products = Tuple[Tuple[Decimal, ...], ...]


def plan_products(
    payload: Sequence[Tuple[Money, Sequence[float], float]],
) -> _Products:
    """Per-tenant products of plan entries, entry by entry.

    ``payload`` holds ``(amount, weights, total)`` per entry, the
    weights restricted to one contiguous tenant range.  Evaluates
    exactly the expression :func:`allocate_exactly` gives a non-last
    tenant — ``amount * (weight / total)``, the float ratio converted
    through ``str`` as :class:`~repro.money.Money` does — on raw
    Decimals in Money's context.  Top-level so it pickles to worker
    processes.
    """
    multiply = _CTX.multiply
    return tuple(
        tuple(
            multiply(amount.amount, Decimal(str(weight / total)))
            for weight in weights
        )
        for amount, weights, total in payload
    )


def merge_plan(
    entries: Sequence[AllocationEntry],
    n: int,
    shard_products: Optional[Sequence[_Products]] = None,
) -> List[Dict[str, Decimal]]:
    """Evaluate a plan: every tenant's field sums, exactly.

    ``shard_products`` are :func:`plan_products` results for
    contiguous tenant ranges covering all ``n`` tenants in order
    (``None`` evaluates the whole plan as one shard).  Per entry, the
    merge replays :func:`allocate_exactly`'s sequential running sum in
    global tenant order and gives the globally-last tenant the exact
    residual — the same Decimal operations in the same order for any
    sharding, so the result is the same bytes.  Field sums start from
    ``ZERO``'s amount (its exponent is part of every result) and stay
    raw ``Decimal``\\ s; callers wrap them in ``Money``.
    """
    if shard_products is None:
        shard_products = (
            plan_products(
                [(entry.amount, entry.weights, entry.total) for entry in entries]
            ),
        )
    add, subtract = _CTX.add, _CTX.subtract
    sums: List[Dict[str, Decimal]] = [
        dict.fromkeys(PLAN_FIELDS, ZERO.amount) for _ in range(n)
    ]
    last = n - 1
    for entry_index, entry in enumerate(entries):
        field = entry.field
        running = ZERO.amount
        position = 0
        for products in shard_products:
            for share in products[entry_index]:
                if position == last:
                    break
                row = sums[position]
                row[field] = add(row[field], share)
                running = add(running, share)
                position += 1
        sums[last][field] = add(
            sums[last][field], subtract(entry.amount.amount, running)
        )
    return sums


def tenant_records(
    record: EpochRecord,
    active: Sequence[str],
    hours: Mapping[str, float],
    sums: Sequence[Mapping[str, Decimal]],
) -> Iterator[TenantEpochRecord]:
    """An evaluated plan's per-tenant records, books checked.

    ``sums`` are :func:`merge_plan`'s rows for the ``active`` tenants.
    Yields the epoch's records in tenant order (active split first,
    then departure settlements), after verifying that every
    component's shares sum exactly to the fleet record — the
    per-epoch half of the sum-to-fleet-ledger invariant.

    The record's churn charges are direct, not shared: each arrival's
    onboarding lands 100% on the arriving tenant's record, and each
    departure yields a settlement-only record (all shares zero,
    ``offboarding_cost`` set) for a tenant no longer in the active
    set.  An arrival outside the split, or a departure still inside
    it, is a bookkeeping contradiction and raises.
    """
    arrivals = dict(record.arrivals)
    missing = set(arrivals).difference(active)
    if missing:
        raise SimulationError(
            f"epoch {record.epoch}: arrival charges for "
            f"{sorted(missing)!r}, which are not in the active split"
        )
    add = _CTX.add
    checks = dict.fromkeys(PLAN_FIELDS, ZERO.amount)
    produced = []
    for name, row in zip(active, sums):
        for field, amount in row.items():
            checks[field] = add(checks[field], amount)
        produced.append(
            TenantEpochRecord(
                epoch=record.epoch,
                tenant=name,
                processing_hours=hours[name],
                onboarding_cost=arrivals.get(name, ZERO),
                **{field: Money(amount) for field, amount in row.items()},
            )
        )
    _verify_epoch(record, checks)
    yield from produced
    active_set = set(active)
    for tenant, amount in record.departures:
        if tenant in active_set:
            raise SimulationError(
                f"epoch {record.epoch}: departure settlement for "
                f"{tenant!r}, which is still in the active split"
            )
        yield TenantEpochRecord(
            epoch=record.epoch,
            tenant=tenant,
            processing_cost=ZERO,
            transfer_cost=ZERO,
            maintenance_cost=ZERO,
            storage_cost=ZERO,
            build_cost=ZERO,
            teardown_cost=ZERO,
            processing_hours=0.0,
            offboarding_cost=amount,
        )


def _verify_epoch(record: EpochRecord, checks: Mapping[str, Decimal]) -> None:
    """The per-epoch books-balance check, against the fleet record."""
    add = _CTX.add
    operating = add(
        add(
            add(checks["processing_cost"], checks["transfer_cost"]),
            checks["maintenance_cost"],
        ),
        checks["storage_cost"],
    )
    expected = (
        ("operating", record.operating_cost, operating),
        ("build", record.build_cost, checks["build_cost"]),
        ("teardown", record.teardown_cost, checks["teardown_cost"]),
        ("migration", record.migration_cost, checks["migration_cost"]),
        ("cancelled", record.cancelled_cost, checks["cancelled_cost"]),
    )
    for component, fleet_amount, tenant_sum in expected:
        if fleet_amount.amount != tenant_sum:
            raise SimulationError(
                f"epoch {record.epoch}: attributed {component} shares "
                f"sum to {Money(tenant_sum)}, fleet charged {fleet_amount}"
            )
