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
independent products for their contiguous tenant range
(:func:`~repro.simulate.attribution.plan_products`); the merge
(:func:`~repro.simulate.attribution.merge_plan`, the same one a
single in-process shard runs) replays the sequential
running sum in global tenant order (shard 0's tenants first, then
shard 1's, ...) and assigns the global-last tenant the residual.
Every Decimal operation — each product, each addition, in the same
order — is identical to the unsharded split, whether the products
were computed in-process (``jobs=1``) or by a worker pool, so the
books do not merely balance: they are the same bytes.
"""

from __future__ import annotations

from multiprocessing import get_context
from typing import Iterator, Optional, Sequence, Tuple

from ..errors import SimulationError
from .attribution import (
    SharedCostAttributor,
    merge_plan,
    plan_products,
    tenant_records,
)
from .ledger import EpochRecord, TenantEpochRecord

__all__ = ["ShardedAttribution", "shard_bounds"]


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


class ShardedAttribution:
    """Splits epochs across tenant shards, streaming exact records.

    Parameters
    ----------
    attributor:
        The fleet's :class:`~repro.simulate.attribution.
        SharedCostAttributor`; supplies the per-epoch plan and the
        merge.
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

    def _map(self, payloads: Sequence):
        """Evaluate shard payloads, in-process or across the pool."""
        if self._jobs == 1:
            return [plan_products(payload) for payload in payloads]
        if self._pool is None:
            try:
                context = get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                context = get_context("spawn")
            self._pool = context.Pool(processes=self._jobs)
        return self._pool.map(plan_products, payloads)

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

        The epoch's :meth:`~repro.simulate.attribution.
        SharedCostAttributor.component_plan`, its products evaluated
        shard by shard and merged in global tenant order
        (:func:`~repro.simulate.attribution.merge_plan`); records,
        checks and errors are
        :func:`~repro.simulate.attribution.tenant_records`' — the same
        bytes for any shard count.
        """
        active = (
            tuple(tenants)
            if tenants is not None
            else self._attributor.tenants
        )
        entries, hours = self._attributor.component_plan(
            problem, record, breakdown, active
        )
        n = len(active)
        payloads = [
            tuple(
                (entry.amount, entry.weights[start:stop], entry.total)
                for entry in entries
            )
            for start, stop in shard_bounds(n, self._shards)
        ]
        sums = merge_plan(entries, n, self._map(payloads))
        yield from tenant_records(record, active, hours, sums)
