"""The metrics registry: counters, gauges, histograms, span statistics.

A :class:`MetricsRegistry` is a plain in-process store with four metric
families, chosen so that everything the lifecycle stack emits can be
merged across worker processes *deterministically*:

* **counters** — monotone sums (``inc``).  Merging adds.
* **gauges** — high-water marks (``gauge_max``).  A gauge records the
  largest value ever set (queue depth, fleet size); merging takes the
  max.  Last-write-wins gauges are deliberately absent: the last
  writer depends on scheduling, and this registry must merge to the
  same bytes whatever the worker count.
* **histograms** — ``count`` / ``sum`` / ``min`` / ``max`` summaries
  whose running sum is an exact :class:`decimal.Decimal`.
  :class:`~repro.money.Money` observations enter at their full decimal
  amount, so a histogram of epoch costs sums to the ledger total to
  the last digit (the "Decimal-safe sums" the tests pin down); floats
  are converted via ``repr`` so the decimal the caller printed is the
  decimal that is summed.
* **span statistics** — per-span-name call counts and total wall-clock
  seconds, fed by :meth:`~repro.telemetry.core.Telemetry.span`.  The
  *count* is deterministic (the code path either ran or did not); the
  *seconds* are wall clock and therefore excluded from the
  deterministic exporter (:func:`~repro.telemetry.exporters.
  prometheus_text`) — they surface in the human summary table and the
  trace file instead.

Metric names are dotted (``cache.hits``, ``builds.latency_months``);
the leading segment names the subsystem, which is how the coverage
tests count subsystems.  Labels are passed as keyword arguments and
stored sorted, so ``inc("x", a="1", b="2")`` and ``inc("x", b="2",
a="1")`` hit the same series.

:meth:`MetricsRegistry.snapshot` returns a plain picklable dict and
:meth:`MetricsRegistry.merge` folds one in; merging the same snapshots
in the same order produces byte-identical exports, which is the
property the Monte Carlo harness's ``--jobs`` invariance rests on.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Dict, Tuple, Union

from ..errors import ReproError
from ..money import Money

__all__ = ["HistogramStats", "MetricKey", "MetricsRegistry", "SpanStats"]

#: One metric series: the dotted name plus its sorted label pairs.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]

_Observable = Union[int, float, Decimal, Money]


class TelemetryError(ReproError):
    """Raised on telemetry misuse (bad names, unmergeable snapshots)."""


def _key(name: str, labels: Dict[str, str]) -> MetricKey:
    if not name:
        raise TelemetryError("a metric needs a non-empty name")
    if not labels:
        return (name, ())
    return (
        name,
        tuple(sorted((k, str(v)) for k, v in labels.items())),
    )


def _to_decimal(value: _Observable) -> Decimal:
    """The exact decimal an observation contributes to a histogram sum."""
    if isinstance(value, Money):
        return value.amount
    if isinstance(value, Decimal):
        return value
    if isinstance(value, float):
        # repr is the shortest round-trip form: the decimal the caller
        # would print is the decimal that is summed.
        return Decimal(repr(value))
    return Decimal(value)


class HistogramStats:
    """Running count / exact-decimal sum / min / max of one series."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = Decimal(0)
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: _Observable) -> None:
        """Fold one observation in."""
        self.count += 1
        self.total += _to_decimal(value)
        as_float = value.to_float() if isinstance(value, Money) else float(value)
        if as_float < self.minimum:
            self.minimum = as_float
        if as_float > self.maximum:
            self.maximum = as_float

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return float(self.total) / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Picklable snapshot form (``total`` serialized as ``str``)."""
        return {
            "count": self.count,
            "total": str(self.total),
            "min": self.minimum,
            "max": self.maximum,
        }


class SpanStats:
    """Call count, total, and min/max wall-clock seconds of one span name."""

    __slots__ = ("count", "seconds", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.seconds = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def record(self, seconds: float) -> None:
        """Fold one completed span in.

        Args:
            seconds: The span's wall-clock duration.
        """
        self.count += 1
        self.seconds += seconds
        if seconds < self.minimum:
            self.minimum = seconds
        if seconds > self.maximum:
            self.maximum = seconds


class MetricsRegistry:
    """In-process metric store with deterministic cross-process merging."""

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, Union[int, float]] = {}
        self._gauges: Dict[MetricKey, float] = {}
        self._histograms: Dict[MetricKey, HistogramStats] = {}
        self._spans: Dict[str, SpanStats] = {}

    # -- recording ------------------------------------------------------

    def inc(
        self, name: str, value: Union[int, float] = 1, **labels: str
    ) -> None:
        """Add ``value`` to the counter ``name`` (with ``labels``)."""
        key = _key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + value

    def gauge_max(self, name: str, value: float, **labels: str) -> None:
        """Raise the high-water gauge ``name`` to at least ``value``."""
        key = _key(name, labels)
        current = self._gauges.get(key)
        if current is None or value > current:
            self._gauges[key] = value

    def observe(self, name: str, value: _Observable, **labels: str) -> None:
        """Fold ``value`` into the histogram ``name``."""
        key = _key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = HistogramStats()
        hist.observe(value)

    def record_span(self, name: str, seconds: float) -> None:
        """Fold one completed span into the per-name statistics."""
        stats = self._spans.get(name)
        if stats is None:
            stats = self._spans[name] = SpanStats()
        stats.record(seconds)

    # -- reading --------------------------------------------------------

    @property
    def counters(self) -> Dict[MetricKey, Union[int, float]]:
        """Every counter series (a copy; sort on export, not storage)."""
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[MetricKey, float]:
        """Every high-water gauge series (a copy)."""
        return dict(self._gauges)

    @property
    def histograms(self) -> Dict[MetricKey, HistogramStats]:
        """Every histogram series (live objects; treat as read-only)."""
        return dict(self._histograms)

    @property
    def spans(self) -> Dict[str, SpanStats]:
        """Per-span-name call counts and wall-clock totals."""
        return dict(self._spans)

    def counter(self, name: str, **labels: str) -> Union[int, float]:
        """One counter's value (0 when never incremented)."""
        return self._counters.get(_key(name, labels), 0)

    def gauge(self, name: str, **labels: str) -> float:
        """One gauge's high-water value (0.0 when never set)."""
        return self._gauges.get(_key(name, labels), 0.0)

    def histogram(self, name: str, **labels: str) -> HistogramStats:
        """One histogram's stats (empty stats when never observed)."""
        return self._histograms.get(_key(name, labels), HistogramStats())

    def subsystems(self) -> Tuple[str, ...]:
        """Sorted leading name segments with at least one series.

        ``cache.hits`` and ``cache.misses`` both belong to subsystem
        ``cache`` — the granularity the coverage acceptance counts.
        """
        seen = set()
        for name, _ in (
            list(self._counters)
            + list(self._gauges)
            + list(self._histograms)
        ):
            seen.add(name.split(".", 1)[0])
        return tuple(sorted(seen))

    def __len__(self) -> int:
        return (
            len(self._counters)
            + len(self._gauges)
            + len(self._histograms)
            + len(self._spans)
        )

    # -- cross-process merging -----------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A plain picklable dict of everything recorded so far.

        The wire format worker processes ship back to the Monte Carlo
        parent: no live objects, Decimals as strings.
        """
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                key: hist.as_dict()
                for key, hist in self._histograms.items()
            },
            "spans": {
                name: (
                    stats.count,
                    stats.seconds,
                    stats.minimum,
                    stats.maximum,
                )
                for name, stats in self._spans.items()
            },
        }

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Fold one :meth:`snapshot` in (counters add, gauges max,
        histograms combine, spans add).

        Merging the same snapshots in the same order always produces
        the same registry — the ``--jobs`` determinism property.

        Raises:
            TelemetryError: ``snapshot`` lacks a section, or a span
                entry is not ``(count, seconds, min, max)``; nothing
                is folded in that case.
        """
        try:
            counters = snapshot["counters"]
            gauges = snapshot["gauges"]
            histograms = snapshot["histograms"]
            spans = snapshot["spans"]
        except (TypeError, KeyError) as error:
            raise TelemetryError(
                f"not a registry snapshot: missing {error}"
            ) from None
        span_rows = []
        for name, entry in spans.items():
            try:
                count, seconds, minimum, maximum = entry
            except (TypeError, ValueError):
                raise TelemetryError(
                    f"span {name!r} snapshot entry is not "
                    f"(count, seconds, min, max): {entry!r}"
                ) from None
            span_rows.append((name, count, seconds, minimum, maximum))
        for key, value in counters.items():
            self._counters[key] = self._counters.get(key, 0) + value
        for key, value in gauges.items():
            current = self._gauges.get(key)
            if current is None or value > current:
                self._gauges[key] = value
        for key, entry in histograms.items():
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = HistogramStats()
            hist.count += entry["count"]
            hist.total += Decimal(entry["total"])
            if entry["min"] < hist.minimum:
                hist.minimum = entry["min"]
            if entry["max"] > hist.maximum:
                hist.maximum = entry["max"]
        for name, count, seconds, minimum, maximum in span_rows:
            stats = self._spans.get(name)
            if stats is None:
                stats = self._spans[name] = SpanStats()
            stats.count += count
            stats.seconds += seconds
            if minimum < stats.minimum:
                stats.minimum = minimum
            if maximum > stats.maximum:
                stats.maximum = maximum
