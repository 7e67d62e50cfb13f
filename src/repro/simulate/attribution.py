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

Asynchronous epochs (records carrying
:class:`~repro.simulate.ledger.EpochSegment`\\ s) are attributed
segment by segment: each segment's prorated operating components are
split by the views live *during that segment* — a tenant whose
dashboard view lands mid-epoch starts paying its view-storage share
only from the landing — and the per-segment shares sum across
segments to exactly the epoch's prorated fleet charges, so
:meth:`~repro.simulate.ledger.FleetLedger.verify_attribution` holds
unchanged.

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

from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..costmodel.storage import storage_cost
from ..costmodel.total import CostBreakdown
from ..errors import SimulationError
from ..money import Money, ZERO
from ..optimizer.problem import SelectionOutcome, SelectionProblem
from ..workload.workload import NAMESPACE_SEPARATOR
from .ledger import EpochRecord, TenantEpochRecord

__all__ = [
    "ATTRIBUTION_MODES",
    "TENANT_SEPARATOR",
    "AllocationEntry",
    "SharedCostAttributor",
    "allocate_exactly",
    "tenant_of_query",
]

#: Attribution modes accepted by :class:`SharedCostAttributor`.
ATTRIBUTION_MODES = ("proportional", "even")

#: Separator between a tenant's name and its queries' names in the
#: merged fleet workload ("acme/Q1" belongs to tenant "acme"): each
#: tenant's queries form the workload namespace named after it.
TENANT_SEPARATOR = NAMESPACE_SEPARATOR


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
    """One exact split, flattened for sharded execution.

    The normalized form of one :func:`allocate_exactly` call: ``field``
    names the :class:`~repro.simulate.ledger.TenantEpochRecord`
    component the shares land on, ``weights`` aligns with the active
    tenant order, and the zero-total even fallback is *already
    applied* (``total`` is the exact divisor the sequential split
    uses).  A worker can therefore compute any tenant's product share
    ``amount * (weights[i] / total)`` independently — the same Money
    expression :func:`allocate_exactly` evaluates — and the merge
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
        tenants: Optional[Sequence[str]] = None,
    ) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, Dict[str, float]]]:
        """Per-tenant processing/egress weights and per-view user weights.

        Returns ``(processing, egress, users)`` where ``processing`` and
        ``egress`` map tenant -> frequency-weighted hours / GB, and
        ``users`` maps view name -> {tenant: frequency-weighted accesses
        to that view} (only tenants with at least one query answered by
        the view appear).  ``tenants`` restricts the split to an
        elastic fleet's active set; every workload query must belong
        to an active tenant.
        """
        active = self._active(tenants)
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
        tenants: Optional[Sequence[str]] = None,
    ) -> Dict[str, float]:
        """Per-tenant weights for charges that accrue per view.

        ``per_view_amounts`` weights each view's contribution (hours,
        gigabytes); each view's amount is divided among its users by
        the attribution mode, falling back to the infrastructure rule
        for views nobody currently uses (a policy may carry a view
        through an epoch in which no query reads it).
        """
        active = self._active(tenants)
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
        tenants: Optional[Sequence[str]] = None,
    ) -> Mapping[str, float]:
        """The rule for charges with no per-view user set."""
        if self._mode == "even":
            return {name: 1.0 for name in self._active(tenants)}
        return processing

    # -- the splits -----------------------------------------------------

    def _component_shares(
        self,
        problem: SelectionProblem,
        subset: FrozenSet[str],
        built: FrozenSet[str],
        breakdown: CostBreakdown,
        teardown_cost: Money,
        migration_cost: Money = ZERO,
        cancelled_cost: Money = ZERO,
        tenants: Optional[Sequence[str]] = None,
    ) -> Tuple[Dict[str, Dict[str, Money]], Dict[str, float]]:
        """Split every component of one epoch's breakdown.

        Returns ``(shares, hours)``: ``shares`` maps component name
        (``processing``, ``transfer``, ``maintenance``, ``storage``,
        ``build``, ``teardown``, ``migration``, ``cancelled``) to per-tenant shares
        summing exactly to the fleet amount; ``hours`` is each
        tenant's own frequency-weighted processing hours (the
        processing weights, reused so the hours reported on a
        :class:`~repro.simulate.ledger.TenantEpochRecord` can never
        drift from the weights its processing cost was split by).
        """
        active = self._active(tenants)
        inputs = problem.inputs
        plan = inputs.plan_for(subset)
        processing, egress, users = self._direct_weights(
            problem, subset, active
        )
        infrastructure = self._infrastructure_weights(processing, active)
        ordered = sorted(subset)
        cycles = inputs.deployment.maintenance_cycles

        maintenance_amounts = {
            name: inputs.view_stats[name].maintenance_hours_per_cycle * cycles
            for name in ordered
        }
        build_amounts = {
            name: hours
            for name, hours in zip(ordered, plan.materialization_hours)
            if name in built and hours > 0.0
        }
        size_amounts = {
            name: inputs.view_stats[name].size_gb for name in ordered
        }

        base_storage = storage_cost(
            inputs.deployment.provider.storage, plan.base_timeline
        )
        view_storage = breakdown.storage - base_storage

        storage_shares = allocate_exactly(
            base_storage, infrastructure, active
        )
        view_storage_shares = allocate_exactly(
            view_storage,
            self._view_weights(size_amounts, users, infrastructure, active),
            active,
        )
        shares = {
            "processing": allocate_exactly(
                breakdown.computing.processing_cost, processing, active
            ),
            "transfer": allocate_exactly(breakdown.transfer, egress, active),
            "maintenance": allocate_exactly(
                breakdown.computing.maintenance_cost,
                self._view_weights(
                    maintenance_amounts, users, infrastructure, active
                ),
                active,
            ),
            "storage": {
                name: storage_shares[name] + view_storage_shares[name]
                for name in active
            },
            "build": allocate_exactly(
                breakdown.computing.materialization_cost,
                self._view_weights(
                    build_amounts, users, infrastructure, active
                ),
                active,
            ),
            "teardown": allocate_exactly(
                teardown_cost, infrastructure, active
            ),
            "migration": allocate_exactly(
                migration_cost, infrastructure, active
            ),
            "cancelled": allocate_exactly(
                cancelled_cost, infrastructure, active
            ),
        }
        return shares, processing

    def attribute(
        self,
        problem: SelectionProblem,
        record: EpochRecord,
        breakdown: CostBreakdown,
        tenants: Optional[Sequence[str]] = None,
    ) -> Dict[str, TenantEpochRecord]:
        """One epoch's fleet record split into per-tenant records.

        ``breakdown`` must be the epoch breakdown the record was
        accounted from (materialization narrowed to the views built
        this epoch) — the simulator passes it to its observer.
        Records carrying segments (asynchronous epochs billed on
        mid-epoch holdings) take the segment-wise path instead, which
        re-prices each segment's holdings through the problem's
        evaluation cache and ignores ``breakdown``.

        ``tenants`` restricts the split to an elastic fleet's active
        set for the epoch.  The record's churn charges are direct, not
        shared: each arrival's onboarding lands 100% on the arriving
        tenant's record, and each departure yields a settlement-only
        record (all shares zero, ``offboarding_cost`` set) for a
        tenant no longer in the active set.
        """
        records = self._split_epoch(problem, record, breakdown, tenants)
        return self._apply_churn(record, records)

    def _split_epoch(
        self,
        problem: SelectionProblem,
        record: EpochRecord,
        breakdown: CostBreakdown,
        tenants: Optional[Sequence[str]] = None,
    ) -> Dict[str, TenantEpochRecord]:
        """The shared-charge split, before churn charges land."""
        if record.segments:
            return self._attribute_segments(problem, record, tenants)
        active = self._active(tenants)
        subset = frozenset(record.subset)
        built = frozenset(record.views_built)
        shares, hours = self._component_shares(
            problem, subset, built, breakdown, record.teardown_cost,
            record.migration_cost, record.cancelled_cost, active,
        )
        return {
            name: TenantEpochRecord(
                epoch=record.epoch,
                tenant=name,
                processing_cost=shares["processing"][name],
                transfer_cost=shares["transfer"][name],
                maintenance_cost=shares["maintenance"][name],
                storage_cost=shares["storage"][name],
                build_cost=shares["build"][name],
                teardown_cost=shares["teardown"][name],
                processing_hours=hours[name],
                migration_cost=shares["migration"][name],
                cancelled_cost=shares["cancelled"][name],
            )
            for name in active
        }

    def _apply_churn(
        self,
        record: EpochRecord,
        records: Dict[str, TenantEpochRecord],
    ) -> Dict[str, TenantEpochRecord]:
        """Land the epoch's direct churn charges on tenant records."""
        for tenant, amount in record.arrivals:
            if tenant not in records:
                raise SimulationError(
                    f"epoch {record.epoch}: arrival charge for "
                    f"{tenant!r}, which is not in the active split"
                )
            records[tenant] = replace(
                records[tenant], onboarding_cost=amount
            )
        for tenant, amount in record.departures:
            if tenant in records:
                raise SimulationError(
                    f"epoch {record.epoch}: departure settlement for "
                    f"{tenant!r}, which is still in the active split"
                )
            records[tenant] = TenantEpochRecord(
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
        return records

    def _attribute_segments(
        self,
        problem: SelectionProblem,
        record: EpochRecord,
        active_tenants: Optional[Sequence[str]] = None,
    ) -> Dict[str, TenantEpochRecord]:
        """Attribute one asynchronous epoch, segment by segment.

        Each segment's full-period components are scaled by its period
        fraction and split by the tenants using the views live in
        *that* segment; per-tenant shares accumulate across segments.
        Because every per-segment split is exact
        (:func:`allocate_exactly`) and ``Money`` products distribute
        exactly at this precision, the accumulated shares sum to the
        record's prorated fleet charges to the last digit.

        Epoch-level one-offs — builds landing this epoch, teardown
        egress, migration transfer, cancelled-build sunk compute — are
        not prorated: builds are split by the landed views' users as
        of the epoch's end holdings, the rest by the infrastructure
        rule over time-weighted processing hours.
        """
        inputs = problem.inputs
        tenants = self._active(active_tenants)
        operating_components = (
            "processing", "transfer", "maintenance", "storage",
        )
        totals: Dict[str, Dict[str, Money]] = {
            component: {name: ZERO for name in tenants}
            for component in operating_components
        }
        hours = {name: 0.0 for name in tenants}
        cycles = inputs.deployment.maintenance_cycles
        base_storage_full = storage_cost(
            inputs.deployment.provider.storage, inputs.base_timeline
        )
        end_users: Dict[str, Mapping[str, float]] = {}
        for segment in record.segments:
            subset = frozenset(segment.subset)
            bd = problem.evaluate(subset).breakdown
            processing, egress, users = self._direct_weights(
                problem, subset, tenants
            )
            infrastructure = self._infrastructure_weights(
                processing, tenants
            )
            end_users = users
            fraction = segment.fraction

            def scaled(amount: Money) -> Money:
                return amount if fraction == 1.0 else amount * fraction

            ordered = sorted(subset)
            maintenance_amounts = {
                name: inputs.view_stats[name].maintenance_hours_per_cycle
                * cycles
                for name in ordered
            }
            size_amounts = {
                name: inputs.view_stats[name].size_gb for name in ordered
            }
            base_shares = allocate_exactly(
                scaled(base_storage_full), infrastructure, tenants
            )
            view_storage_shares = allocate_exactly(
                scaled(bd.storage - base_storage_full),
                self._view_weights(
                    size_amounts, users, infrastructure, tenants
                ),
                tenants,
            )
            segment_shares = {
                "processing": allocate_exactly(
                    scaled(bd.computing.processing_cost), processing, tenants
                ),
                "transfer": allocate_exactly(
                    scaled(bd.transfer), egress, tenants
                ),
                "maintenance": allocate_exactly(
                    scaled(bd.computing.maintenance_cost),
                    self._view_weights(
                        maintenance_amounts, users, infrastructure, tenants
                    ),
                    tenants,
                ),
                "storage": {
                    name: base_shares[name] + view_storage_shares[name]
                    for name in tenants
                },
            }
            for component in operating_components:
                for name in tenants:
                    totals[component][name] = (
                        totals[component][name] + segment_shares[component][name]
                    )
            for name in tenants:
                hours[name] += processing[name] * fraction
        # Epoch-level one-offs, split once over the whole epoch; the
        # infrastructure rule runs on time-weighted processing hours.
        epoch_infrastructure = self._infrastructure_weights(hours, tenants)
        build_amounts = {
            name: inputs.view_stats[name].materialization_hours
            for name in record.views_built
        }
        build_shares = allocate_exactly(
            record.build_cost,
            self._view_weights(
                build_amounts, end_users, epoch_infrastructure, tenants
            ),
            tenants,
        )
        teardown_shares = allocate_exactly(
            record.teardown_cost, epoch_infrastructure, tenants
        )
        migration_shares = allocate_exactly(
            record.migration_cost, epoch_infrastructure, tenants
        )
        cancelled_shares = allocate_exactly(
            record.cancelled_cost, epoch_infrastructure, tenants
        )
        return {
            name: TenantEpochRecord(
                epoch=record.epoch,
                tenant=name,
                processing_cost=totals["processing"][name],
                transfer_cost=totals["transfer"][name],
                maintenance_cost=totals["maintenance"][name],
                storage_cost=totals["storage"][name],
                build_cost=build_shares[name],
                teardown_cost=teardown_shares[name],
                processing_hours=hours[name],
                migration_cost=migration_shares[name],
                cancelled_cost=cancelled_shares[name],
            )
            for name in tenants
        }

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
        shares, _ = self._component_shares(
            problem,
            outcome.subset,
            outcome.subset,
            outcome.breakdown,
            ZERO,
            tenants=active,
        )
        totals: Dict[str, Money] = {}
        for name in active:
            totals[name] = (
                shares["processing"][name]
                + shares["transfer"][name]
                + shares["maintenance"][name]
                + shares["storage"][name]
                + shares["build"][name]
            )
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
            problem, outcome.subset, tenants
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

    # -- sharded execution ---------------------------------------------

    @staticmethod
    def _plan_entry(
        field: str,
        amount: Money,
        weights: Mapping[str, float],
        order: Sequence[str],
    ) -> AllocationEntry:
        """Normalize one split into an :class:`AllocationEntry`.

        Mirrors :func:`allocate_exactly`'s weight handling exactly:
        clipping, total, and even fallback are applied here so workers
        evaluate the identical ``amount * (weight / total)`` products.
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

    def component_plan(
        self,
        problem: SelectionProblem,
        record: EpochRecord,
        breakdown: CostBreakdown,
        tenants: Optional[Sequence[str]] = None,
    ) -> Tuple[Tuple[AllocationEntry, ...], Dict[str, float]]:
        """One epoch's splits, flattened for sharded execution.

        Returns ``(entries, hours)``: the exact
        :func:`allocate_exactly` calls :meth:`attribute` would make,
        as :class:`AllocationEntry` records in a fixed order (storage
        contributes two entries — base then view share — both landing
        on ``storage_cost``), plus each active tenant's processing
        hours.  :class:`~repro.simulate.sharding.ShardedAttribution`
        evaluates the entries' per-tenant products across worker
        shards and reassembles the sequential residual, reproducing
        :meth:`attribute`'s records byte for byte.
        """
        active = self._active(tenants)
        inputs = problem.inputs
        entries: List[AllocationEntry] = []
        if record.segments:
            hours = {name: 0.0 for name in active}
            cycles = inputs.deployment.maintenance_cycles
            base_storage_full = storage_cost(
                inputs.deployment.provider.storage, inputs.base_timeline
            )
            end_users: Mapping[str, Mapping[str, float]] = {}
            for segment in record.segments:
                subset = frozenset(segment.subset)
                bd = problem.evaluate(subset).breakdown
                processing, egress, users = self._direct_weights(
                    problem, subset, active
                )
                infrastructure = self._infrastructure_weights(
                    processing, active
                )
                end_users = users
                fraction = segment.fraction

                def scaled(amount: Money) -> Money:
                    return amount if fraction == 1.0 else amount * fraction

                ordered = sorted(subset)
                maintenance_amounts = {
                    name: inputs.view_stats[name].maintenance_hours_per_cycle
                    * cycles
                    for name in ordered
                }
                size_amounts = {
                    name: inputs.view_stats[name].size_gb for name in ordered
                }
                entries += [
                    self._plan_entry(
                        "processing_cost",
                        scaled(bd.computing.processing_cost),
                        processing, active,
                    ),
                    self._plan_entry(
                        "transfer_cost", scaled(bd.transfer), egress, active
                    ),
                    self._plan_entry(
                        "maintenance_cost",
                        scaled(bd.computing.maintenance_cost),
                        self._view_weights(
                            maintenance_amounts, users, infrastructure,
                            active,
                        ),
                        active,
                    ),
                    self._plan_entry(
                        "storage_cost",
                        scaled(base_storage_full),
                        infrastructure, active,
                    ),
                    self._plan_entry(
                        "storage_cost",
                        scaled(bd.storage - base_storage_full),
                        self._view_weights(
                            size_amounts, users, infrastructure, active
                        ),
                        active,
                    ),
                ]
                for name in active:
                    hours[name] += processing[name] * fraction
            epoch_infrastructure = self._infrastructure_weights(
                hours, active
            )
            build_amounts = {
                name: inputs.view_stats[name].materialization_hours
                for name in record.views_built
            }
            entries += [
                self._plan_entry(
                    "build_cost",
                    record.build_cost,
                    self._view_weights(
                        build_amounts, end_users, epoch_infrastructure,
                        active,
                    ),
                    active,
                ),
                self._plan_entry(
                    "teardown_cost", record.teardown_cost,
                    epoch_infrastructure, active,
                ),
                self._plan_entry(
                    "migration_cost", record.migration_cost,
                    epoch_infrastructure, active,
                ),
                self._plan_entry(
                    "cancelled_cost", record.cancelled_cost,
                    epoch_infrastructure, active,
                ),
            ]
            return tuple(entries), hours

        subset = frozenset(record.subset)
        built = frozenset(record.views_built)
        plan = inputs.plan_for(subset)
        processing, egress, users = self._direct_weights(
            problem, subset, active
        )
        infrastructure = self._infrastructure_weights(processing, active)
        ordered = sorted(subset)
        cycles = inputs.deployment.maintenance_cycles
        maintenance_amounts = {
            name: inputs.view_stats[name].maintenance_hours_per_cycle * cycles
            for name in ordered
        }
        build_amounts = {
            name: hours
            for name, hours in zip(ordered, plan.materialization_hours)
            if name in built and hours > 0.0
        }
        size_amounts = {
            name: inputs.view_stats[name].size_gb for name in ordered
        }
        base_storage = storage_cost(
            inputs.deployment.provider.storage, plan.base_timeline
        )
        view_storage = breakdown.storage - base_storage
        entries += [
            self._plan_entry(
                "processing_cost",
                breakdown.computing.processing_cost,
                processing, active,
            ),
            self._plan_entry(
                "transfer_cost", breakdown.transfer, egress, active
            ),
            self._plan_entry(
                "maintenance_cost",
                breakdown.computing.maintenance_cost,
                self._view_weights(
                    maintenance_amounts, users, infrastructure, active
                ),
                active,
            ),
            self._plan_entry(
                "storage_cost", base_storage, infrastructure, active
            ),
            self._plan_entry(
                "storage_cost",
                view_storage,
                self._view_weights(
                    size_amounts, users, infrastructure, active
                ),
                active,
            ),
            self._plan_entry(
                "build_cost",
                breakdown.computing.materialization_cost,
                self._view_weights(
                    build_amounts, users, infrastructure, active
                ),
                active,
            ),
            self._plan_entry(
                "teardown_cost", record.teardown_cost,
                infrastructure, active,
            ),
            self._plan_entry(
                "migration_cost", record.migration_cost,
                infrastructure, active,
            ),
            self._plan_entry(
                "cancelled_cost", record.cancelled_cost,
                infrastructure, active,
            ),
        ]
        return tuple(entries), processing
