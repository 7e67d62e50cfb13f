"""Telemetry threaded through the lifecycle stack.

Three acceptance properties live here:

* telemetry **disabled** (the default) perturbs nothing — a run under
  an active collector produces byte-identical ledgers to a plain run;
* telemetry **enabled** on a stochastic multi-tenant async Monte Carlo
  run covers every instrumented subsystem;
* worker registries merge deterministically — ``jobs=1`` and
  ``jobs=4`` export byte-identical Prometheus dumps.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import explain, telemetry
from repro.explain import ExplainLog, explain_lines
from repro.simulate import (
    MonteCarloConfig,
    PolicySpec,
    compose_observers,
    drifting_sales_simulator,
    make_policy,
    run_monte_carlo,
)
from repro.simulate.simulator import EpochObserver
from repro.telemetry import Telemetry, activate, current, prometheus_text

#: Small but fully-featured: stochastic drift, two tenants, a bounded
#: build queue, and one arbitrage-aware policy — every instrumented
#: subsystem fires.
FULL_STACK = MonteCarloConfig(
    generator="mixed",
    n_trials=2,
    n_epochs=8,
    n_rows=4_000,
    seed=7,
    n_tenants=2,
    build_slots=2,
    policies=(
        PolicySpec("regret"),
        PolicySpec("periodic", arbitrage=True),
    ),
)


def _run_drifting(collector=None):
    """One fresh 20-epoch drifting run, optionally under a collector."""
    simulator = drifting_sales_simulator(n_epochs=20, n_rows=5_000, seed=7)
    if collector is None:
        return simulator.run(make_policy("regret"))
    with activate(collector):
        return simulator.run(make_policy("regret"))


class TestPassivity:
    def test_enabled_telemetry_does_not_perturb_the_ledger(self):
        plain = _run_drifting()
        collected = _run_drifting(Telemetry(trace=True))
        assert collected.records == plain.records
        assert collected.render() == plain.render()
        assert collected.summary() == plain.summary()

    def test_monte_carlo_rows_identical_with_and_without_telemetry(self):
        config = MonteCarloConfig(
            n_trials=2, n_epochs=6, n_rows=4_000, seed=11
        )
        plain = run_monte_carlo(config, jobs=1)
        with activate(Telemetry()):
            collected = run_monte_carlo(config, jobs=1)
        assert collected.rows() == plain.rows()


class TestEpochRecordCacheFields:
    def test_per_epoch_deltas_sum_to_the_builder_totals(self):
        simulator = drifting_sales_simulator(
            n_epochs=20, n_rows=5_000, seed=7
        )
        before = simulator._builder.evaluation_stats()
        ledger = simulator.run(make_policy("regret"))
        after = simulator._builder.evaluation_stats()
        assert ledger.total_cache_hits == after.hits - before.hits
        assert (
            ledger.total_subsets_priced == after.priced - before.priced
        )

    def test_hit_rate_and_call_identity(self):
        ledger = _run_drifting()
        for record in ledger.records:
            assert record.evaluate_calls == (
                record.cache_hits + record.subsets_priced
            )
            assert 0.0 <= record.cache_hit_rate <= 1.0
        assert ledger.cache_hit_rate > 0.0  # steady epochs re-hit

    def test_fields_default_to_zero(self):
        """Old-style construction (no cache stats) still works."""
        ledger = _run_drifting()
        record = ledger.records[0]
        required = [
            f.name
            for f in dataclasses.fields(record)
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ]
        rebuilt = type(record)(
            **{name: getattr(record, name) for name in required}
        )
        assert rebuilt.cache_hits == 0
        assert rebuilt.subsets_priced == 0
        assert rebuilt.cache_hit_rate == 0.0


class TestSubsystemCoverage:
    @pytest.fixture(scope="class")
    def full_stack_registry(self):
        with activate(Telemetry()) as collector:
            run_monte_carlo(FULL_STACK, jobs=1)
        return collector.registry

    def test_at_least_five_subsystems_report(self, full_stack_registry):
        covered = set(full_stack_registry.subsystems())
        assert covered >= {
            "arbitrage",
            "builds",
            "cache",
            "montecarlo",
            "optimizer",
            "simulator",
        }

    def test_core_counters_are_plausible(self, full_stack_registry):
        registry = full_stack_registry
        trials = registry.counter("montecarlo.trials")
        assert trials == FULL_STACK.n_trials
        # Each trial yields one outcome per policy plus clairvoyant.
        outcomes = registry.counter("montecarlo.outcomes")
        assert outcomes == trials * (len(FULL_STACK.policies) + 1)
        epochs = registry.counter("simulator.epochs")
        assert epochs >= outcomes * FULL_STACK.n_epochs
        assert registry.counter("optimizer.solves", algorithm="greedy") > 0
        assert registry.counter("cache.subsets_priced") > 0
        assert registry.counter("arbitrage.quotes") > 0
        assert registry.counter("builds.submitted") > 0
        assert registry.gauge("builds.queue_depth") >= 1

    def test_epoch_cost_histogram_sums_exactly(self, full_stack_registry):
        hist = full_stack_registry.histogram("simulator.epoch_cost")
        assert hist.count == full_stack_registry.counter("simulator.epochs")

    def test_jobs_do_not_change_the_merged_dump(self, full_stack_registry):
        with activate(Telemetry()) as collector:
            run_monte_carlo(FULL_STACK, jobs=4)
        assert prometheus_text(collector.registry) == prometheus_text(
            full_stack_registry
        )


class TestObserverErgonomics:
    def test_compose_of_nothing_is_none(self):
        assert compose_observers() is None
        assert compose_observers(None, None) is None

    def test_compose_of_one_is_that_observer(self):
        def observer(record, problem, breakdown):
            pass

        assert compose_observers(None, observer, None) is observer

    def test_composed_observers_run_in_order(self):
        calls = []
        first = lambda record, problem, breakdown: calls.append("first")
        second = lambda record, problem, breakdown: calls.append("second")
        fan_out = compose_observers(first, None, second)
        fan_out("record", "problem", "breakdown")
        assert calls == ["first", "second"]

    def test_plain_callables_satisfy_the_protocol(self):
        def observer(record, problem, breakdown):
            pass

        assert isinstance(observer, EpochObserver)

    def test_observer_sees_every_epoch(self):
        seen = []
        simulator = drifting_sales_simulator(
            n_epochs=20, n_rows=5_000, seed=7
        )
        ledger = simulator.run(
            make_policy("regret"),
            observer=lambda record, problem, breakdown: seen.append(
                record.epoch
            ),
        )
        assert seen == [record.epoch for record in ledger.records]


#: Small enough to run under every sink combination at two job counts.
SINK_MATRIX = MonteCarloConfig(n_trials=2, n_epochs=4, n_rows=4_000, seed=7)


class TestOneCapturePath:
    """Every trial runs one path whichever sinks are on; a sink that is
    off is the ``NULL`` singleton, so neither sink can perturb the
    other or the summary."""

    @pytest.fixture(scope="class")
    def runs(self):
        results = {}
        for jobs in (1, 2):
            for metrics in (False, True):
                for provenance in (False, True):
                    sink = Telemetry() if metrics else telemetry.NULL
                    log = ExplainLog() if provenance else explain.NULL
                    with activate(sink), explain.activate(log):
                        result = run_monte_carlo(SINK_MATRIX, jobs=jobs)
                    results[jobs, metrics, provenance] = (
                        result.rows(),
                        prometheus_text(sink.registry) if metrics else None,
                        explain_lines(log) if provenance else None,
                    )
        return results

    def test_summary_rows_identical_under_every_sink(self, runs):
        rows = [rows for rows, _, _ in runs.values()]
        assert len(rows) == 8
        assert all(other == rows[0] for other in rows)

    def test_metrics_identical_with_and_without_explain(self, runs):
        dumps = [
            dump for (_, metrics, _), (_, dump, _) in runs.items() if metrics
        ]
        assert len(dumps) == 4
        assert "montecarlo_trials" in dumps[0]
        assert all(other == dumps[0] for other in dumps)

    def test_explain_identical_with_and_without_metrics(self, runs):
        logs = [
            lines
            for (_, _, provenance), (_, _, lines) in runs.items()
            if provenance
        ]
        assert len(logs) == 4
        assert logs[0]
        assert all(other == logs[0] for other in logs)

    def test_explain_materialization_never_counts_into_metrics(
        self, monkeypatch
    ):
        from repro.simulate import montecarlo

        real_trial = montecarlo.run_trial

        def probed_trial(config, trial):
            def thunk():
                telemetry.current().inc("probe.leaked")
                return {"kind": "probe"}

            explain.current().emit_deferred(thunk)
            return real_trial(config, trial)

        monkeypatch.setattr(montecarlo, "run_trial", probed_trial)
        config = dataclasses.replace(
            SINK_MATRIX, n_trials=1, policies=(PolicySpec("never"),)
        )
        with activate(Telemetry()) as sink, explain.activate(
            ExplainLog()
        ) as log:
            run_monte_carlo(config, jobs=1)
        assert any('"probe"' in line for line in explain_lines(log))
        assert sink.registry.counter("probe.leaked") == 0

    def test_both_slots_back_at_null(self, runs):
        assert telemetry.current() is telemetry.NULL
        assert explain.current() is explain.NULL


class TestAmbientHygiene:
    def test_suite_leaves_no_collector_installed(self):
        assert not current().enabled
        assert not explain.current().enabled

    @pytest.mark.parametrize(
        "slot, fresh",
        [(telemetry, Telemetry), (explain, ExplainLog)],
        ids=["telemetry", "explain"],
    )
    def test_activate_restores_previous_on_exception(self, slot, fresh):
        outer = fresh()
        with slot.activate(outer):
            with pytest.raises(RuntimeError, match="boom"):
                with slot.activate(fresh()):
                    raise RuntimeError("boom")
            assert slot.current() is outer
        assert slot.current() is slot.NULL
