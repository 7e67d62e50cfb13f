"""Chain pricing from one plan equals pricing through a selection problem.

:meth:`EpochProblemBuilder.operating_cost` prices a state's operating
bill at a subset without building a
:class:`~repro.optimizer.problem.SelectionProblem`.  The reference is
:func:`repro.simulate.arbitrage.operating_cost` on the builder's own
problem, with the kernel on (vectorized pricing) and off (the Decimal
oracle), on deployments that charge independent or cascaded builds.
States come from replaying two presets' timelines — drift, growth,
repricing and fleet changes, then tenant arrivals and departures — so
the generated worlds are the ones explain chains actually visit.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CostModelError
from repro.kernel import set_kernel_enabled
from repro.pricing.providers import archive_cloud
from repro.simulate import EpochProblemBuilder, drifting_sales_simulator
from repro.simulate.arbitrage import operating_cost
from repro.simulate.presets import elastic_multi_tenant_simulator

ROWS = 4_000


@lru_cache(maxsize=None)
def _replay(preset: str):
    """(catalogue, every state the preset's timeline passes through)."""
    if preset == "drifting":
        simulator = drifting_sales_simulator(n_epochs=19, n_rows=ROWS)
    else:
        simulator = elastic_multi_tenant_simulator(
            n_tenants=3, n_epochs=10, n_rows=ROWS, seed=5
        ).simulator
    state = simulator._initial
    states = [state]
    for event in simulator.timeline:
        state = event.apply(state)
        states.append(state)
    return simulator.builder.catalogue, tuple(states)


@st.composite
def worlds(draw):
    """(catalogue, state, subset) with cascade and provider varied."""
    catalogue, states = _replay(draw(st.sampled_from(["drifting", "elastic"])))
    state = draw(st.sampled_from(states))
    if draw(st.booleans()):
        state = state.with_provider(archive_cloud())
    cascade = draw(st.booleans())
    state = replace(
        state,
        deployment=replace(
            state.deployment, cascade_materialization=cascade
        ),
    )
    names = sorted(view.name for view in catalogue)
    subset = frozenset(
        draw(st.lists(st.sampled_from(names), max_size=5, unique=True))
    )
    return catalogue, state, subset


@contextmanager
def _kernel(enabled: bool):
    previous = set_kernel_enabled(enabled)
    try:
        yield
    finally:
        set_kernel_enabled(previous)


KERNEL = pytest.mark.parametrize(
    "kernel", [True, False], ids=["kernel", "oracle"]
)


class TestOperatingCostFromOnePlan:
    @KERNEL
    @given(world=worlds())
    @settings(max_examples=60, deadline=None)
    def test_repr_equal_to_the_problem_path(self, kernel, world):
        catalogue, state, subset = world
        with _kernel(kernel):
            reference = operating_cost(
                EpochProblemBuilder(catalogue).problem_for(state), subset
            )
        assert repr(
            EpochProblemBuilder(catalogue).operating_cost(state, subset)
        ) == repr(reference)

    @KERNEL
    @given(world=worlds())
    @settings(max_examples=20, deadline=None)
    def test_shares_the_problem_paths_pricing_memo(self, kernel, world):
        """Either order of the two paths, on one builder, agrees."""
        catalogue, state, subset = world
        builder = EpochProblemBuilder(catalogue)
        first = builder.operating_cost(state, subset)
        with _kernel(kernel):
            reference = operating_cost(builder.problem_for(state), subset)
        assert repr(first) == repr(reference)
        assert repr(builder.operating_cost(state, subset)) == repr(first)

    @given(world=worlds(), stray=st.sampled_from(["nope", "V0", "zz"]))
    @settings(max_examples=20, deadline=None)
    def test_unknown_view_raises_like_check_subset(self, world, stray):
        catalogue, state, subset = world
        builder = EpochProblemBuilder(catalogue)
        bad = subset | {stray}
        with pytest.raises(CostModelError) as expected:
            builder.problem_for(state).inputs.check_subset(bad)
        with pytest.raises(CostModelError) as raised:
            builder.operating_cost(state, bad)
        assert str(raised.value) == str(expected.value)
