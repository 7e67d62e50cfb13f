"""The explain front end: ambient ``ExplainLog`` objects and scopes.

The provenance layer shares :mod:`repro.telemetry.core`'s ambient
seam — both bind their ``current``/``install``/``activate`` to an
:class:`~repro._ambient.AmbientSlot`:

* :data:`NULL` — the no-op singleton active by default.  ``emit()``
  is a ``pass`` and ``scope()`` hands back a shared reusable context
  manager, so with it installed the instrumented lifecycle stack pays
  one attribute load per site and — the property the passivity tests
  pin — produces byte-identical ledgers, metrics, and CSVs to code
  with no instrumentation at all.
* :class:`ExplainLog` — the live collector: an append-only list of
  frozen decision records (:mod:`repro.explain.records`) in emission
  order, which *is* the export order of the ``--explain-out``
  JSON-lines artifact.

The active object is ambient — :func:`current` reads it,
:func:`install` replaces it, :func:`activate` is the scoped form::

    from repro import explain

    with explain.activate(explain.ExplainLog()) as log:
        simulator.run(policy)
        print(len(log.records))

Instrumented classes capture :func:`current` at the start of a run
and use that handle throughout, keeping the hot path free of global
lookups.  Multiprocessing follows the telemetry story: a worker
installs a fresh ``ExplainLog``, runs its trial, and ships
:meth:`ExplainLog.snapshot` back to the parent, which folds
snapshots in trial order via :meth:`ExplainLog.merge` — so the merged
log is a pure function of the trial set, never of worker scheduling.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, ContextManager, Iterator, List, Optional, Tuple, Union

from .._ambient import NULL_CONTEXT, AmbientSlot
from .records import record_to_json

__all__ = [
    "NULL",
    "ExplainLog",
    "NullExplain",
    "activate",
    "current",
    "install",
]


class _Deferred:
    """A log slot whose record has not been materialized yet.

    :meth:`ExplainLog.emit_deferred` parks one of these in the entry
    list; the first read (:attr:`ExplainLog.records`,
    :attr:`~ExplainLog.entries`, :meth:`~ExplainLog.iter_json` or
    :meth:`~ExplainLog.snapshot`) calls the thunk once and swaps the
    returned record into the same slot, preserving emission order.
    The simulator uses this to move the expensive parts of provenance
    — chain re-pricing, the exact delta fold — off the run's critical
    path: the thunk closes over finished, frozen facts (ledger
    records, warehouse states), so resolving late yields
    byte-identical records to resolving eagerly.
    """

    __slots__ = ("thunk",)

    def __init__(self, thunk: Callable[[], object]) -> None:
        self.thunk = thunk


class NullExplain:
    """Provenance that records nothing — the default ambient object.

    Like :class:`~repro.telemetry.core.NullTelemetry` it carries no
    storage at all: code that wants to *read* records must check
    :attr:`enabled` first, so a disabled run can never grow state.
    """

    enabled = False

    #: The (epoch, policy) pair a scope would carry; always idle here.
    context: Tuple[Optional[int], str] = (None, "")

    def emit(self, record: object) -> None:
        """No-op."""

    def emit_deferred(self, thunk: Callable[[], object]) -> None:
        """No-op — the thunk is dropped, never called."""

    def scope(self, epoch: int, policy: str) -> ContextManager[object]:
        """The shared :data:`~repro._ambient.NULL_CONTEXT`."""
        return NULL_CONTEXT


class ExplainLog:
    """A live provenance log: decision records in emission order.

    Records enter through :meth:`emit` (objects, from instrumented
    code in this process), :meth:`emit_deferred` (a thunk resolved on
    first read — how the simulator keeps expensive provenance off the
    timed loop), or :meth:`merge` (JSON dicts, folded from a worker's
    :meth:`snapshot`); :attr:`entries` interleaves all three in
    arrival order, and that order is the export order.
    """

    enabled = True

    def __init__(self) -> None:
        self._entries: List[Union[object, dict]] = []
        self._context: Tuple[Optional[int], str] = (None, "")

    @property
    def context(self) -> Tuple[Optional[int], str]:
        """The ``(epoch, policy)`` of the enclosing :meth:`scope`.

        ``(None, "")`` outside any scope — e.g. an optimizer solve
        invoked directly rather than from a simulation epoch.
        """
        return self._context

    @property
    def records(self) -> Tuple[object, ...]:
        """Every record *object* emitted in this process, in order.

        Merged snapshot entries (already plain dicts) are excluded;
        use :attr:`entries` for the full export stream.
        """
        self._resolve()
        return tuple(e for e in self._entries if not isinstance(e, dict))

    @property
    def entries(self) -> Tuple[Union[object, dict], ...]:
        """Everything the log holds — records and merged dicts — in order."""
        self._resolve()
        return tuple(self._entries)

    def emit(self, record: object) -> None:
        """Append one frozen decision record.

        Args:
            record: Any of the :mod:`repro.explain.records` dataclasses.
        """
        self._entries.append(record)

    def emit_deferred(self, thunk: Callable[[], object]) -> None:
        """Reserve a slot for a record materialized on first read.

        The hot-path half of the passivity story: an instrumented loop
        appends a closure over already-frozen facts (a few pointer
        stores) and keeps running; the record itself — which may fold
        exact ``Money`` arithmetic or re-price states through caches —
        is built once, lazily, when the log is first read.  Resolution
        is in-place, so emission order *is* still export order, and a
        resolved slot is never re-computed.

        Args:
            thunk: Zero-argument callable returning one record object.
                It must be pure in its captured state: resolving it at
                read time must yield the same bytes as calling it at
                emit time would have.
        """
        self._entries.append(_Deferred(thunk))

    def _resolve(self) -> None:
        """Materialize pending deferred slots, in place, in order."""
        entries = self._entries
        for index, entry in enumerate(entries):
            if type(entry) is _Deferred:
                entries[index] = entry.thunk()

    @contextmanager
    def scope(self, epoch: int, policy: str) -> Iterator["ExplainLog"]:
        """Tag records emitted inside the block with an epoch context.

        The simulator wraps each policy decision in a scope so that
        optimizer solves triggered from deep inside the policy can
        stamp the epoch and policy they served without those layers
        threading the values through their signatures.
        """
        previous = self._context
        self._context = (epoch, policy)
        try:
            yield self
        finally:
            self._context = previous

    def iter_json(self) -> Iterator[dict]:
        """The log as JSON-safe dicts, yielded one entry at a time.

        Deferred slots are resolved in place as the walk reaches them,
        so a consumer that serializes each dict before asking for the
        next (:func:`~repro.explain.export.write_explain`) never holds
        more than one rendered entry.

        Yields:
            One dict per entry, in emission order — record objects
            rendered through
            :func:`~repro.explain.records.record_to_json`, merged
            dicts passed through as-is.
        """
        entries = self._entries
        for index, entry in enumerate(entries):
            if type(entry) is _Deferred:
                entry = entries[index] = entry.thunk()
            yield entry if isinstance(entry, dict) else record_to_json(entry)

    def snapshot(self) -> List[dict]:
        """The log as JSON-safe dicts, for shipping across processes.

        Returns:
            :meth:`iter_json`'s dicts, collected into one list.
        """
        return list(self.iter_json())

    def merge(
        self, snapshot: List[dict], trial: Optional[int] = None
    ) -> None:
        """Fold a worker's :meth:`snapshot` into this log.

        Args:
            snapshot: The dicts a worker's log produced.
            trial: When given, stamped onto every folded entry's
                ``trial`` field — Monte Carlo calls this in trial
                order, so the merged log is deterministic in the
                trial set regardless of worker count.
        """
        for entry in snapshot:
            if trial is not None:
                entry = dict(entry, trial=trial)
            self._entries.append(entry)


#: The process-wide no-op singleton.
NULL = NullExplain()

_SLOT = AmbientSlot(NULL, ExplainLog)

#: The ambient explain object (:data:`NULL` unless installed).
current = _SLOT.current
#: Replace the ambient object (``None`` restores :data:`NULL`); returns
#: the previous one.
install = _SLOT.install
#: Scoped :func:`install`; with no argument, activates a fresh
#: :class:`ExplainLog`.
activate = _SLOT.activate
