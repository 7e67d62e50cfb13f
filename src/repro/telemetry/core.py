"""The telemetry front end: ambient ``Telemetry`` objects and spans.

Everything in the lifecycle stack reports through one of two objects:

* :data:`NULL` — the no-op singleton that is active by default.  Every
  method is a ``pass``; ``span()`` returns a shared reusable context
  manager.  With it installed, instrumented code takes one attribute
  load and one no-op call per site, and — the property the parity
  tests pin — produces byte-identical ledgers and summaries to code
  with no instrumentation at all.
* :class:`Telemetry` — a live collector wrapping a
  :class:`~repro.telemetry.registry.MetricsRegistry` and, optionally,
  an in-memory trace buffer of completed spans for the ``--trace-out``
  JSON-lines exporter.

The active object is ambient: :func:`current` reads it,
:func:`install` replaces it, and :func:`activate` is the scoped form.
All three are bound to one :class:`~repro._ambient.AmbientSlot`, the
same slot type :mod:`repro.explain` uses::

    from repro import telemetry

    with telemetry.activate(telemetry.Telemetry()) as t:
        simulator.run(policy)
        print(t.registry.counter("epochs.total"))

Instrumented classes capture :func:`current` **at construction** and
use that captured handle for their lifetime.  That keeps the hot path
free of global lookups and gives multiprocessing a clean story: a
worker process installs a fresh ``Telemetry`` before building its
simulator, runs, and ships ``registry.snapshot()`` back to the parent
for deterministic merging.
"""

from __future__ import annotations

import time
from typing import ContextManager, Dict, List, Optional, Union

from .._ambient import NULL_CONTEXT, AmbientSlot
from .registry import MetricsRegistry, _Observable

__all__ = [
    "NULL",
    "NullTelemetry",
    "Telemetry",
    "activate",
    "current",
    "install",
]


class NullTelemetry:
    """Telemetry that records nothing — the default ambient object.

    It deliberately has no registry: code that wants to *read* metrics
    must check :attr:`enabled` (or use :func:`current` under an
    :func:`activate` block), so a disabled run can never accidentally
    grow state.
    """

    enabled = False

    def inc(
        self, name: str, value: Union[int, float] = 1, **labels: str
    ) -> None:
        """No-op."""

    def gauge_max(self, name: str, value: float, **labels: str) -> None:
        """No-op."""

    def observe(self, name: str, value: _Observable, **labels: str) -> None:
        """No-op."""

    def span(self, name: str, **attrs: object) -> ContextManager[object]:
        """A shared do-nothing context manager.

        Args:
            name: Ignored.
            **attrs: Ignored.

        Returns:
            The shared :data:`~repro._ambient.NULL_CONTEXT`.
        """
        return NULL_CONTEXT


class _Span:
    """One live span: times itself and reports on exit."""

    __slots__ = ("_telemetry", "name", "attrs", "_started")

    def __init__(
        self, telemetry: "Telemetry", name: str, attrs: Dict[str, object]
    ) -> None:
        self._telemetry = telemetry
        self.name = name
        self.attrs = attrs
        self._started = 0.0

    def __enter__(self) -> "_Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self._started
        self._telemetry._finish_span(self, elapsed)


class Telemetry:
    """A live collector: registry plus optional span trace buffer.

    ``trace=True`` keeps every completed span as a dict in
    :attr:`trace_events` (chronological by completion), which is what
    :func:`~repro.telemetry.exporters.write_trace` serializes.  The
    registry's span *statistics* are always kept — tracing only
    controls whether individual span records survive.
    """

    enabled = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        *,
        trace: bool = False,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace_events: List[Dict[str, object]] = []
        self._trace = trace
        self._origin = time.perf_counter()

    def inc(
        self, name: str, value: Union[int, float] = 1, **labels: str
    ) -> None:
        """Add ``value`` to counter ``name``.

        Args:
            name: The dotted metric name.
            value: The amount to add (default 1).
            **labels: Label pairs selecting the series.
        """
        self.registry.inc(name, value, **labels)

    def gauge_max(self, name: str, value: float, **labels: str) -> None:
        """Raise high-water gauge ``name`` to at least ``value``.

        Args:
            name: The dotted metric name.
            value: The candidate high-water mark.
            **labels: Label pairs selecting the series.
        """
        self.registry.gauge_max(name, value, **labels)

    def observe(self, name: str, value: _Observable, **labels: str) -> None:
        """Fold ``value`` into histogram ``name``.

        Args:
            name: The dotted metric name.
            value: The observation; :class:`~repro.money.Money` and
                :class:`decimal.Decimal` enter the sum exactly.
            **labels: Label pairs selecting the series.
        """
        self.registry.observe(name, value, **labels)

    def span(self, name: str, **attrs: object) -> _Span:
        """A context manager timing one named unit of work.

        Args:
            name: The span name statistics aggregate under.
            **attrs: Free-form span attributes (epoch index, policy
                name, …) carried into the trace record; they do not
                create metric label series.

        Returns:
            An unentered context manager; timing starts on ``with``.
        """
        return _Span(self, name, attrs)

    def _finish_span(self, span: _Span, elapsed: float) -> None:
        self.registry.record_span(span.name, elapsed)
        if self._trace:
            record: Dict[str, object] = {
                "name": span.name,
                "start": round(span._started - self._origin, 9),
                "seconds": round(elapsed, 9),
            }
            if span.attrs:
                record.update(span.attrs)
            self.trace_events.append(record)


#: The process-wide no-op singleton.
NULL = NullTelemetry()

_SLOT = AmbientSlot(NULL, Telemetry)

#: The ambient telemetry object (:data:`NULL` unless installed).
current = _SLOT.current
#: Replace the ambient object (``None`` restores :data:`NULL`); returns
#: the previous one.
install = _SLOT.install
#: Scoped :func:`install`; with no argument, activates a fresh
#: :class:`Telemetry`.
activate = _SLOT.activate
