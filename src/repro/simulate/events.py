"""Lifecycle events: what changes between epochs.

Each event names the epoch it fires at (events fire at the *start* of
their epoch, before that epoch's selection decision) and transforms a
:class:`~repro.simulate.state.WarehouseState` into the next one:

* workload drift — :class:`AddQueries`, :class:`DropQueries`,
  :class:`ReweightQueries`;
* data dynamics — :class:`GrowFactTable` (logical growth or purge);
* market dynamics — :class:`PriceChange` (the warehouse is forced onto
  a new price book), :class:`MarketReprice` (a book's quote moves; the
  warehouse follows only if it is on that book's family), and
  :class:`ProviderMigration` (a deliberate provider switch the
  simulator bills: dataset + view egress, plus re-materialization on
  the target);
* capacity dynamics — :class:`FleetChange` (scale out/in, node loss);
* tenant churn — :class:`TenantArrival`, :class:`TenantDeparture`:
  a tenant joins or leaves the shared warehouse mid-lifecycle.  Both
  are *billed* events: the simulator charges the arriving tenant's
  onboarding (its initial result products are loaded into the
  warehouse at the current book's inbound rates) and the departing
  tenant's offboarding settlement (its final result footprint is
  exported at the book it leaves behind).  The state transform is the
  workload change itself; a :class:`~repro.simulate.tenants.
  TenantFleet` compiles them from ``Tenant.arrival_epoch`` /
  ``departure_epoch`` rather than having callers schedule them by
  hand;
* build dynamics — :class:`BuildStarted`, :class:`BuildCompleted`,
  :class:`BuildCancelled`: *markers* the asynchronous simulator emits
  into the ledger when a queued build starts late, lands mid-epoch, or
  is abandoned.  Unlike the other events they are outputs, not inputs
  — scheduling one on a timeline is legal but changes nothing (their
  ``apply`` is the identity).

An :class:`EventTimeline` holds a simulation's full schedule and hands
the simulator each epoch's events in a deterministic order (schedule
order within an epoch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from ..errors import SchemaError, SimulationError
from ..pricing.providers import Provider
from ..workload.query import AggregateQuery
from .state import WarehouseState

__all__ = [
    "SimulationEvent",
    "AddQueries",
    "DropQueries",
    "ReweightQueries",
    "GrowFactTable",
    "PriceChange",
    "MarketReprice",
    "ProviderMigration",
    "FleetChange",
    "TenantArrival",
    "TenantDeparture",
    "BuildStarted",
    "BuildCompleted",
    "BuildCancelled",
    "EventTimeline",
]


@dataclass(frozen=True)
class SimulationEvent:
    """Base event: fires at the start of ``epoch``.

    Parameters
    ----------
    epoch:
        Zero-based epoch index the event fires at, *before* that
        epoch's selection decision.

    Subclasses implement :meth:`apply` (the state transform) and
    :meth:`describe` (the ledger display form).
    """

    epoch: int

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise SimulationError(
                f"events fire at epoch >= 0, got {self.epoch}"
            )

    def apply(self, state: WarehouseState) -> WarehouseState:
        """The state after this event.

        Parameters
        ----------
        state:
            The warehouse state as it stands when the event fires.

        Returns
        -------
        WarehouseState
            A new state; the input is never mutated.
        """
        raise NotImplementedError

    def describe(self) -> str:
        """Short human-readable form for ledgers and logs.

        Returns
        -------
        str
            A compact one-token summary (e.g. ``data x1.3``).
        """
        raise NotImplementedError


@dataclass(frozen=True)
class AddQueries(SimulationEvent):
    """New queries join the workload.

    Parameters
    ----------
    queries:
        The arriving :class:`~repro.workload.query.AggregateQuery`
        objects; at least one, with names not already in the workload.
    """

    queries: Tuple[AggregateQuery, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.queries:
            raise SimulationError("AddQueries needs at least one query")

    def apply(self, state: WarehouseState) -> WarehouseState:
        """The state with the new queries appended to the workload."""
        try:
            return state.with_workload(
                state.workload.with_queries(self.queries)
            )
        except SchemaError as error:
            raise SimulationError(
                f"epoch {self.epoch}: cannot add queries: {error}"
            ) from error

    def describe(self) -> str:
        """``+queries[...]`` with the arriving query names."""
        names = ", ".join(q.name for q in self.queries)
        return f"+queries[{names}]"


@dataclass(frozen=True)
class DropQueries(SimulationEvent):
    """Queries leave the workload.

    Parameters
    ----------
    names:
        Names of the departing queries; each must exist in the
        workload when the event fires.
    """

    names: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.names:
            raise SimulationError("DropQueries needs at least one name")

    def apply(self, state: WarehouseState) -> WarehouseState:
        """The state with the named queries removed from the workload."""
        try:
            return state.with_workload(state.workload.without(self.names))
        except SchemaError as error:
            raise SimulationError(
                f"epoch {self.epoch}: cannot drop queries: {error}"
            ) from error

    def describe(self) -> str:
        """``-queries[...]`` with the departing query names."""
        return f"-queries[{', '.join(self.names)}]"


@dataclass(frozen=True)
class ReweightQueries(SimulationEvent):
    """Query frequencies shift (hot queries get hotter, cold colder).

    Parameters
    ----------
    frequencies:
        ``(query name, new frequency)`` pairs; each name must exist
        and may appear only once (a duplicate would silently shadow
        the earlier weight).
    """

    frequencies: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.frequencies:
            raise SimulationError(
                "ReweightQueries needs at least one (name, frequency)"
            )
        names = [name for name, _ in self.frequencies]
        if len(set(names)) != len(names):
            raise SimulationError(
                "ReweightQueries lists a query more than once; a "
                "duplicate would silently shadow the earlier weight"
            )

    def apply(self, state: WarehouseState) -> WarehouseState:
        """The state with the named queries' frequencies replaced."""
        try:
            return state.with_workload(
                state.workload.reweighted(dict(self.frequencies))
            )
        except SchemaError as error:
            raise SimulationError(
                f"epoch {self.epoch}: cannot reweight queries: {error}"
            ) from error

    def describe(self) -> str:
        """``~freq[...]`` with the new per-query weights."""
        parts = ", ".join(f"{n}x{f:g}" for n, f in self.frequencies)
        return f"~freq[{parts}]"


@dataclass(frozen=True)
class GrowFactTable(SimulationEvent):
    """The fact table grows (or shrinks) by a logical factor.

    Parameters
    ----------
    factor:
        Multiplier on the logical row count; ``> 1`` models data
        landing, ``< 1`` a retention purge.  Must be positive.
    """

    factor: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor <= 0:
            raise SimulationError(
                f"growth factor must be positive, got {self.factor}"
            )

    def apply(self, state: WarehouseState) -> WarehouseState:
        """The state after logical growth (or purge) by ``factor``."""
        return state.grown(self.factor)

    def describe(self) -> str:
        """``data xF`` with the growth factor."""
        return f"data x{self.factor:g}"


@dataclass(frozen=True)
class PriceChange(SimulationEvent):
    """The warehouse moves to (or is repriced under) a new price book.

    Unconditional: the active deployment adopts ``provider`` whatever
    book the warehouse was on — a forced repricing (contract change,
    acquisition, mandated move).  For a quote that should only follow
    the warehouse onto its own provider's family, use
    :class:`MarketReprice`; for a *billed* deliberate switch, use
    :class:`ProviderMigration`.

    Parameters
    ----------
    provider:
        The price book the warehouse is billed under from this epoch.
    """

    provider: Provider = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.provider is None:
            raise SimulationError(
                f"{type(self).__name__} needs a provider"
            )

    def apply(self, state: WarehouseState) -> WarehouseState:
        """The state billed under the new provider's price book.

        Returns
        -------
        WarehouseState
            The state with the active deployment on ``provider`` (and
            the market's matching family quote synchronized).
        """
        return state.with_provider(self.provider)

    def describe(self) -> str:
        """``prices->provider`` with the new price book's name."""
        return f"prices->{self.provider.name}"


@dataclass(frozen=True)
class MarketReprice(PriceChange):
    """A provider's quote moves; the warehouse follows only its own book.

    Spot walks emit these: the *market price* of one provider family
    changes.  If the warehouse is on that family, its bill moves with
    the quote (exactly the old :class:`PriceChange` behaviour); if it
    migrated elsewhere, only the market entry updates — the quote
    stays visible to migration policies without yanking the warehouse
    back onto a book it deliberately left.

    Parameters
    ----------
    provider:
        The family's new quote (e.g. a spot-repriced book named
        ``aws-2012~x1.250``).
    """

    def apply(self, state: WarehouseState) -> WarehouseState:
        """The state with the quote landed (family-gated; see class docs)."""
        return state.repriced(self.provider)

    def describe(self) -> str:
        """``market:provider`` with the moved quote's name."""
        return f"market:{self.provider.name}"


@dataclass(frozen=True)
class ProviderMigration(PriceChange):
    """The warehouse deliberately switches provider — and pays for it.

    The state transform is the same as :class:`PriceChange` (the
    active deployment adopts the target book), but the simulator
    bills the switch: the dataset and every held view are egressed on
    the *source* book and ingressed on the *target* book
    (:func:`repro.pricing.migration.migration_transfer_cost`), and
    every view kept through the move is re-materialized at the
    target's compute rates.  Emitted by the arbitrage policy
    (:class:`repro.simulate.arbitrage.ArbitrageAware`) when switching
    pays, or scheduled directly for a forced migration.

    Parameters
    ----------
    provider:
        The target price book.
    """

    def describe(self) -> str:
        """``migrate->provider`` with the target book's name."""
        return f"migrate->{self.provider.name}"


@dataclass(frozen=True)
class FleetChange(SimulationEvent):
    """The instance fleet is resized (scale event or node failure).

    Parameters
    ----------
    n_instances:
        The new fleet size; at least one instance.
    """

    n_instances: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_instances < 1:
            raise SimulationError(
                f"the fleet needs at least one instance, got {self.n_instances}"
            )

    def apply(self, state: WarehouseState) -> WarehouseState:
        """The state running on the resized instance fleet."""
        return state.with_fleet(self.n_instances)

    def describe(self) -> str:
        """``fleet->N`` with the new instance count."""
        return f"fleet->{self.n_instances}"


@dataclass(frozen=True)
class TenantArrival(SimulationEvent):
    """A tenant joins the shared warehouse mid-lifecycle.

    The state transform joins the tenant's (already fleet-qualified)
    queries to the merged workload.  The simulator additionally *bills*
    the arrival: the tenant's initial result products — one copy of
    each arriving query's result — are loaded into the warehouse at
    the current book's inbound transfer rates, recorded as the epoch's
    ``onboarding`` charge and attributed 100% to the arriving tenant.
    (The marginal view demand the arrival creates is billed through
    the ordinary build path: views built to serve the newcomer land in
    ``build_cost`` and the per-view user split hands the newcomer its
    share.)

    Parameters
    ----------
    tenant:
        The arriving tenant's name.
    queries:
        The tenant's initial queries, already namespaced to fleet-wide
        names (``acme/Q1``); at least one.
    precedes:
        Names of tenants that come *after* this one in the fleet's
        roster order.  When given, the arriving queries are inserted
        *before* the first workload query owned by any of them, so the
        merged workload keeps one canonical order — roster order —
        however tenants' arrival epochs interleave.  This is what
        makes a tenant's records invariant to *when* unrelated tenants
        arrive: workload order (and with it every order-sensitive
        float accumulation) never depends on the churn schedule.
        Empty means append, the pre-elastic behavior for hand-built
        events.
    """

    tenant: str = ""
    queries: Tuple[AggregateQuery, ...] = ()
    precedes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.tenant:
            raise SimulationError("TenantArrival needs a tenant name")
        if not self.queries:
            raise SimulationError(
                f"tenant {self.tenant!r} cannot arrive with no queries"
            )

    def apply(self, state: WarehouseState) -> WarehouseState:
        """The state with the tenant's queries joined to the workload.

        Only the arriving queries are validated; the resident workload
        is spliced, not re-checked.
        """
        try:
            return state.with_workload(
                state.workload.with_queries(
                    self.queries, before=self.precedes
                )
            )
        except SchemaError as error:
            raise SimulationError(
                f"epoch {self.epoch}: tenant {self.tenant!r} cannot "
                f"arrive: {error}"
            ) from error

    def describe(self) -> str:
        """``+tenant[name:Nq]`` with the arriving query count."""
        return f"+tenant[{self.tenant}:{len(self.queries)}q]"


@dataclass(frozen=True)
class TenantDeparture(SimulationEvent):
    """A tenant leaves the shared warehouse mid-lifecycle.

    Fires at the start of ``epoch``: the tenant's last *billed* epoch
    is ``epoch - 1``, and ``epoch`` carries only its settlement.  The
    state transform drops the tenant's remaining queries; the
    simulator bills the offboarding — the tenant's final result
    footprint is exported at the book being left (outbound transfer,
    priced *before* any same-epoch repricing or migration applies) —
    and attribution records it on a settlement-only
    :class:`~repro.simulate.ledger.TenantEpochRecord` charged 100% to
    the departing tenant.

    Parameters
    ----------
    tenant:
        The departing tenant's name.
    names:
        The tenant's remaining fleet-qualified query names when it
        leaves.  May be empty — a tenant whose drift already dropped
        every query still departs (and settles at zero export volume).
    """

    tenant: str = ""
    names: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.tenant:
            raise SimulationError("TenantDeparture needs a tenant name")

    def apply(self, state: WarehouseState) -> WarehouseState:
        """The state with the tenant's remaining queries removed."""
        if not self.names:
            return state
        try:
            return state.with_workload(state.workload.without(self.names))
        except SchemaError as error:
            raise SimulationError(
                f"epoch {self.epoch}: tenant {self.tenant!r} cannot "
                f"depart: {error}"
            ) from error

    def describe(self) -> str:
        """``-tenant[name]``."""
        return f"-tenant[{self.tenant}]"


@dataclass(frozen=True)
class _BuildMarker(SimulationEvent):
    """Base for build markers: informational, state-preserving.

    Parameters
    ----------
    view:
        The view whose build the marker describes.
    month:
        The simulation month the marked transition happened at.

    Emitted by the asynchronous simulator only when they carry
    information the ledger's ``views_built`` columns do not: a start
    delayed past its submission (slot contention), a landing after the
    epoch began (wall-clock latency), a cancellation.  Synchronous and
    zero-latency runs therefore emit none — which is what keeps their
    ledgers byte-identical to the pre-async ones.
    """

    view: str = ""
    month: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.view:
            raise SimulationError(
                f"{type(self).__name__} needs a view name"
            )

    def apply(self, state: WarehouseState) -> WarehouseState:
        """Markers record history; the state passes through unchanged."""
        return state


@dataclass(frozen=True)
class BuildStarted(_BuildMarker):
    """A queued build finally got a slot, later than it was submitted."""

    def describe(self) -> str:
        """``build:view started@m`` with the start month."""
        return f"build:{self.view} started@{self.month:g}"


@dataclass(frozen=True)
class BuildCompleted(_BuildMarker):
    """A build landed: the view is live (and billed) from ``month`` on."""

    def describe(self) -> str:
        """``build:view live@m`` with the landing month."""
        return f"build:{self.view} live@{self.month:g}"


@dataclass(frozen=True)
class BuildCancelled(_BuildMarker):
    """An in-flight build was abandoned; only sunk compute is billed."""

    def describe(self) -> str:
        """``build:view cancelled@m`` with the cancellation month."""
        return f"build:{self.view} cancelled@{self.month:g}"


class EventTimeline:
    """A simulation's full event schedule, grouped per epoch."""

    def __init__(self, events: Sequence[SimulationEvent] = ()) -> None:
        self._by_epoch: Dict[int, List[SimulationEvent]] = {}
        self._events: Tuple[SimulationEvent, ...] = tuple(events)
        for event in self._events:
            self._by_epoch.setdefault(event.epoch, []).append(event)

    def at(self, epoch: int) -> Tuple[SimulationEvent, ...]:
        """The events firing at the start of ``epoch`` (schedule order)."""
        return tuple(self._by_epoch.get(epoch, ()))

    @property
    def last_epoch(self) -> int:
        """The latest epoch any event fires at (-1 when empty)."""
        return max(self._by_epoch, default=-1)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[SimulationEvent]:
        return iter(self._events)

    def check_within(self, n_epochs: int) -> None:
        """Fail fast if any event is scheduled past the clock's horizon."""
        if self.last_epoch >= n_epochs:
            raise SimulationError(
                f"event scheduled at epoch {self.last_epoch} but the clock "
                f"only runs {n_epochs} epochs"
            )
