"""Regressions: exposition-format escaping and span min/max extremes."""

from __future__ import annotations

import pytest

from repro.telemetry import (
    MetricsRegistry,
    TelemetryError,
    prometheus_text,
    summary_table,
)


class TestLabelEscaping:
    """Prometheus label values must escape ``\\``, ``"`` and newlines.

    Before the fix, a label value containing any of the three slipped
    into the dump raw, producing an exposition line no scraper could
    parse back to the original value.
    """

    def test_backslash_is_doubled(self):
        registry = MetricsRegistry()
        registry.inc("paths.seen", path="C:\\temp\\x")
        assert 'path="C:\\\\temp\\\\x"' in prometheus_text(registry)

    def test_quote_is_escaped(self):
        registry = MetricsRegistry()
        registry.inc("events.seen", detail='drop "Q4"')
        assert 'detail="drop \\"Q4\\""' in prometheus_text(registry)

    def test_newline_becomes_literal_backslash_n(self):
        registry = MetricsRegistry()
        registry.inc("events.seen", detail="line1\nline2")
        dump = prometheus_text(registry)
        assert 'detail="line1\\nline2"' in dump
        # The dump itself stays one line per series.
        assert len(dump.splitlines()) == 1

    def test_escape_order_backslash_first(self):
        """Escaping the backslash first keeps ``\\n`` in the input from
        double-escaping into ``\\\\n`` incorrectly ordered output."""
        registry = MetricsRegistry()
        registry.inc("events.seen", detail='\\"')
        assert 'detail="\\\\\\""' in prometheus_text(registry)

    def test_span_name_label_is_escaped(self):
        registry = MetricsRegistry()
        registry.record_span('step "fast"\n', 0.1)
        assert 'span="step \\"fast\\"\\n"' in prometheus_text(registry)


class TestSpanExtremes:
    def test_record_tracks_min_and_max(self):
        registry = MetricsRegistry()
        registry.record_span("epoch.step", 0.3)
        registry.record_span("epoch.step", 0.1)
        registry.record_span("epoch.step", 0.2)
        stats = registry.spans["epoch.step"]
        assert stats.minimum == 0.1
        assert stats.maximum == 0.3
        assert stats.count == 3

    def test_merge_takes_min_of_mins_and_max_of_maxes(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.record_span("solve", 0.5)
        left.record_span("solve", 0.9)
        right.record_span("solve", 0.2)
        right.record_span("solve", 0.7)
        left.merge(right.snapshot())
        stats = left.spans["solve"]
        assert stats.count == 4
        assert stats.minimum == 0.2
        assert stats.maximum == 0.9

    def test_merge_rejects_two_tuple_span_snapshots(self):
        """A span entry without min/max is not a snapshot this
        registry produces; merging one fails loudly and folds
        nothing."""
        registry = MetricsRegistry()
        registry.record_span("solve", 0.4)
        with pytest.raises(TelemetryError, match="solve"):
            registry.merge(
                {
                    "counters": {("x.y", ()): 1},
                    "gauges": {},
                    "histograms": {},
                    "spans": {"solve": (2, 1.0)},
                }
            )
        stats = registry.spans["solve"]
        assert stats.count == 1
        assert stats.seconds == 0.4
        assert stats.minimum == 0.4
        assert stats.maximum == 0.4
        assert registry.counter("x.y") == 0

    def test_summary_table_shows_extremes(self):
        registry = MetricsRegistry()
        registry.record_span("epoch.step", 0.25)
        registry.record_span("epoch.step", 0.75)
        table = summary_table(registry)
        assert "min=250.000ms" in table
        assert "max=750.000ms" in table

    def test_prometheus_dump_stays_wall_clock_free(self):
        """Span seconds — extremes included — must never reach the
        deterministic exporter; only the call count does."""
        registry = MetricsRegistry()
        registry.record_span("epoch.step", 0.123)
        dump = prometheus_text(registry)
        assert 'repro_span_calls_total{span="epoch.step"} 1' in dump
        assert "0.123" not in dump
