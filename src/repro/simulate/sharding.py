"""Sharded attribution: population-scale tenant splits, exactly.

At 10⁴–10⁵ tenants, splitting every epoch's bill is the dominant
cost of a fleet run, and holding every tenant's every epoch record is
the dominant memory.  This module shards the per-tenant product work
of one epoch's :class:`~repro.simulate.attribution.AllocationEntry`
plan across worker processes and streams the merged
:class:`~repro.simulate.ledger.TenantEpochRecord`\\ s back, so the
caller can fold them into
:class:`~repro.simulate.ledger.TenantTotals` without materializing
the tenant x epoch matrix.

**Why the results are byte-identical for any shard count.**
:func:`~repro.simulate.attribution.allocate_exactly` gives every
tenant but the last the product ``amount * (weight / total)`` — a
*per-tenant independent* expression — and hands the last tenant the
residual ``amount - running`` where ``running`` is the sequential sum
of the earlier products.  Shards therefore compute only the
independent products for their contiguous tenant range; the merge
replays the sequential running sum in global tenant order (shard 0's
tenants first, then shard 1's, ...) and assigns the global-last
tenant the residual.  Every Decimal operation — each product, each
addition, in the same order — is identical to the unsharded split,
whether the products were computed in-process (``jobs=1``) or by a
worker pool, so the books do not merely balance: they are the same
bytes.
"""

from __future__ import annotations

from decimal import Decimal
from multiprocessing import get_context
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..money import _CTX, Money, ZERO
from .attribution import AllocationEntry, SharedCostAttributor
from .ledger import EpochRecord, TenantEpochRecord

__all__ = ["ShardedAttribution", "shard_bounds"]

#: One shard's work order: for each plan entry, ``(amount, weights
#: slice for the shard's tenant range, total)``.
_ShardPayload = Tuple[Tuple[Money, Tuple[float, ...], float], ...]

#: The record fields an :class:`AllocationEntry` may land on.
_FIELDS = (
    "processing_cost",
    "transfer_cost",
    "maintenance_cost",
    "storage_cost",
    "build_cost",
    "teardown_cost",
    "migration_cost",
    "cancelled_cost",
)


def shard_bounds(n_tenants: int, shards: int) -> Tuple[Tuple[int, int], ...]:
    """Contiguous, balanced ``[start, stop)`` tenant ranges.

    The first ``n_tenants % shards`` shards take one extra tenant;
    shards beyond the population come out empty (a 3-tenant fleet on 8
    shards is legal, just idle).
    """
    if shards < 1:
        raise SimulationError(f"shards must be >= 1, got {shards}")
    base, extra = divmod(n_tenants, shards)
    bounds = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return tuple(bounds)


def _shard_products(
    payload: _ShardPayload,
) -> Tuple[Tuple[Money, ...], ...]:
    """One shard's independent per-tenant products, entry by entry.

    Evaluates exactly the Money expression
    :func:`~repro.simulate.attribution.allocate_exactly` gives a
    non-last tenant: ``amount * (weight / total)``, with the weight
    already clipped and the zero-total fallback already applied by
    :meth:`~repro.simulate.attribution.SharedCostAttributor.component_plan`.
    Runs in worker processes (top-level so it pickles) and in-process
    for ``jobs=1`` — the same code path either way.
    """
    return tuple(
        tuple(amount * (weight / total) for weight in weights)
        for amount, weights, total in payload
    )


class ShardedAttribution:
    """Splits epochs across tenant shards, streaming exact records.

    Parameters
    ----------
    attributor:
        The fleet's :class:`~repro.simulate.attribution.
        SharedCostAttributor`; supplies the per-epoch
        :meth:`~repro.simulate.attribution.SharedCostAttributor.
        component_plan`.
    shards:
        How many contiguous tenant ranges to partition each epoch
        into.  Results are byte-identical for every value.
    jobs:
        Worker processes evaluating shard products.  ``1`` (the
        default) stays in-process; larger values fork a pool lazily on
        first use.  Identical results either way.
    """

    def __init__(
        self,
        attributor: SharedCostAttributor,
        shards: int = 1,
        jobs: int = 1,
    ) -> None:
        if shards < 1:
            raise SimulationError(f"shards must be >= 1, got {shards}")
        if jobs < 1:
            raise SimulationError(f"jobs must be >= 1, got {jobs}")
        self._attributor = attributor
        self._shards = shards
        self._jobs = jobs
        self._pool = None

    @property
    def shards(self) -> int:
        """The configured shard count."""
        return self._shards

    @property
    def jobs(self) -> int:
        """The configured worker-process count."""
        return self._jobs

    def _map(self, payloads: Sequence[_ShardPayload]):
        """Evaluate shard payloads, in-process or across the pool."""
        if self._jobs == 1:
            return [_shard_products(payload) for payload in payloads]
        if self._pool is None:
            try:
                context = get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                context = get_context("spawn")
            self._pool = context.Pool(processes=self._jobs)
        return self._pool.map(_shard_products, payloads)

    def close(self) -> None:
        """Shut the worker pool down (idempotent; no-op for jobs=1)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def attribute_streaming(
        self,
        problem,
        record: EpochRecord,
        breakdown,
        tenants: Optional[Sequence[str]] = None,
    ) -> Iterator[TenantEpochRecord]:
        """One epoch's per-tenant records, merged from shard products.

        Yields the epoch's records in tenant order (active split
        first, then departure settlements), after verifying that every
        component's shares sum exactly to the fleet record — the
        per-epoch half of the sum-to-fleet-ledger invariant, checked
        here because streaming callers never hold a full
        :class:`~repro.simulate.ledger.FleetLedger` to re-check.
        """
        entries, hours = self._attributor.component_plan(
            problem, record, breakdown, tenants
        )
        active = (
            tuple(tenants)
            if tenants is not None
            else self._attributor.tenants
        )
        n = len(active)
        bounds = shard_bounds(n, self._shards)
        payloads = [
            tuple(
                (entry.amount, entry.weights[start:stop], entry.total)
                for entry in entries
            )
            for start, stop in bounds
        ]
        shard_results = self._map(payloads)

        # Merge: per entry, replay the sequential running sum in
        # global tenant order; the globally-last tenant takes the
        # exact residual — allocate_exactly's association, verbatim.
        # The sums run on raw Decimals in Money's context, each
        # starting from ZERO's amount (its exponent is part of every
        # result), and are wrapped in Money once per field.
        add, subtract = _CTX.add, _CTX.subtract
        sums: List[Dict[str, Decimal]] = [
            dict.fromkeys(_FIELDS, ZERO.amount) for _ in range(n)
        ]
        for entry_index, entry in enumerate(entries):
            field = entry.field
            running = ZERO.amount
            position = 0
            for shard_index in range(len(bounds)):
                for share in shard_results[shard_index][entry_index]:
                    if position == n - 1:
                        break
                    row = sums[position]
                    row[field] = add(row[field], share.amount)
                    running = add(running, share.amount)
                    position += 1
            sums[n - 1][field] = add(
                sums[n - 1][field], subtract(entry.amount.amount, running)
            )

        arrivals = dict(record.arrivals)
        active_set = set(active)
        missing = set(arrivals) - active_set
        if missing:
            raise SimulationError(
                f"epoch {record.epoch}: arrival charges for "
                f"{sorted(missing)!r}, which are not in the active split"
            )
        checks = dict.fromkeys(_FIELDS, ZERO.amount)
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
        self._verify_epoch(
            record,
            {field: Money(amount) for field, amount in checks.items()},
        )
        for share in produced:
            yield share
        for tenant, amount in record.departures:
            if tenant in arrivals or tenant in active_set:
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

    @staticmethod
    def _verify_epoch(
        record: EpochRecord, checks: Dict[str, Money]
    ) -> None:
        """The per-epoch books-balance check, against the fleet record."""
        operating = (
            checks["processing_cost"]
            + checks["transfer_cost"]
            + checks["maintenance_cost"]
            + checks["storage_cost"]
        )
        expected = (
            ("operating", record.operating_cost, operating),
            ("build", record.build_cost, checks["build_cost"]),
            ("teardown", record.teardown_cost, checks["teardown_cost"]),
            ("migration", record.migration_cost, checks["migration_cost"]),
            ("cancelled", record.cancelled_cost, checks["cancelled_cost"]),
        )
        for component, fleet_amount, tenant_sum in expected:
            if fleet_amount != tenant_sum:
                raise SimulationError(
                    f"epoch {record.epoch}: sharded {component} shares "
                    f"sum to {tenant_sum}, fleet charged {fleet_amount}"
                )
