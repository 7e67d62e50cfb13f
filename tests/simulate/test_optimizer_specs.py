"""Optimizer specs through policies, PolicySpec, and Monte Carlo."""

from __future__ import annotations

import pickle

import pytest

from repro.optimizer import BeamSearchSpec, GreedySpec, KnapsackSpec, resolve
from repro.simulate import (
    MonteCarloConfig,
    NeverReselect,
    PeriodicReselect,
    PolicySpec,
    RegretTriggered,
    make_policy,
    run_monte_carlo,
)


class TestPolicyOptimizerKwarg:
    def test_default_is_greedy(self):
        policy = make_policy("periodic")
        assert policy.optimizer.name == "greedy"
        assert isinstance(policy.optimizer, GreedySpec)

    def test_optimizer_accepts_name_and_spec(self):
        by_name = make_policy("periodic", optimizer="knapsack")
        by_spec = make_policy("periodic", optimizer=KnapsackSpec())
        assert by_name.optimizer == by_spec.optimizer == KnapsackSpec()
        assert by_name.optimizer.name == "knapsack"

    def test_search_spec_knobs_travel(self):
        spec = BeamSearchSpec(budget=64, seed=9)
        policy = make_policy("regret", optimizer=spec)
        assert policy.optimizer is spec
        assert policy.optimizer.name == "beam"

    def test_algorithm_kwarg_raises_type_error(self):
        # The retired string spelling is no parameter at all any more:
        # no policy entry point accepts it, and none has an accessor.
        with pytest.raises(TypeError, match="algorithm"):
            make_policy("periodic", algorithm="knapsack")
        with pytest.raises(TypeError, match="algorithm"):
            PolicySpec("periodic", algorithm="greedy")
        for policy_class in (NeverReselect, PeriodicReselect, RegretTriggered):
            with pytest.raises(TypeError, match="algorithm"):
                policy_class(algorithm="greedy")
        assert not hasattr(make_policy("periodic"), "algorithm")

    def test_both_kwargs_rejected(self):
        with pytest.raises(TypeError, match="algorithm"):
            make_policy(
                "periodic", algorithm="greedy", optimizer=GreedySpec()
            )

    def test_no_warning_on_optimizer_kwarg(self, recwarn):
        make_policy("periodic", optimizer="greedy")
        assert not [
            w
            for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]


class TestPolicySpec:
    def test_optimizer_field_builds_silently(self, recwarn):
        policy = PolicySpec("periodic", optimizer=KnapsackSpec()).build()
        assert policy.optimizer == KnapsackSpec()
        assert not [
            w
            for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]

    def test_optimizer_field_takes_precedence(self):
        # The field defaults to greedy; a spec given replaces it.
        assert PolicySpec("periodic").optimizer == GreedySpec()
        spec = PolicySpec("periodic", optimizer=BeamSearchSpec())
        assert spec.build().optimizer.name == "beam"

    def test_spec_with_optimizer_pickles(self):
        spec = PolicySpec("regret", optimizer=BeamSearchSpec(budget=32))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.build().optimizer.name == "beam"


class TestMonteCarloEquivalence:
    def test_name_and_spec_spellings_identical(self):
        by_name = MonteCarloConfig(
            n_trials=2,
            n_epochs=4,
            n_rows=4_000,
            seed=7,
            policies=(PolicySpec("periodic", optimizer=resolve("greedy")),),
        )
        spec = MonteCarloConfig(
            n_trials=2,
            n_epochs=4,
            n_rows=4_000,
            seed=7,
            policies=(PolicySpec("periodic", optimizer=GreedySpec()),),
        )
        assert (
            run_monte_carlo(by_name, jobs=1).rows()
            == run_monte_carlo(spec, jobs=1).rows()
        )

    def test_search_optimizer_identical_across_jobs(self):
        config = MonteCarloConfig(
            n_trials=3,
            n_epochs=4,
            n_rows=4_000,
            seed=7,
            policies=(
                PolicySpec(
                    "periodic",
                    optimizer=BeamSearchSpec(budget=48, seed=1),
                ),
            ),
        )
        serial = run_monte_carlo(config, jobs=1)
        parallel = run_monte_carlo(config, jobs=2)
        assert serial.rows() == parallel.rows()
