"""Held name sets: validation stays loud, identity stays unchanged.

:class:`PlanningInputs` computes its candidate-view and workload-query
name sets once and validates every subset against them.  After a few
hundred successful calls have built every held set and warmed every
cache, an unknown name must still raise :class:`CostModelError` naming
every unknown view (or query), sorted, through each public path.  The
held sets are derived state: equality, ``repr``, :meth:`fingerprint`
and pickles are the same before and after they are first used.
"""

from __future__ import annotations

import copy
import pickle
import re

import pytest

from repro.cube import generate_lattice_inputs
from repro.errors import CostModelError
from repro.optimizer import SelectionProblem


def _lattice_inputs():
    return generate_lattice_inputs(
        n_views=20, n_queries=6, seed=11, target_gb=100.0
    ).inputs


def _warm(inputs, problem):
    """A few hundred successful calls through every validating path."""
    names = [c.name for c in inputs.candidates]
    queries = frozenset(q.name for q in inputs.workload)
    for i, first in enumerate(names):
        for second in names[i:i + 8]:
            subset = frozenset({first, second})
            problem.evaluate(subset)
            inputs.check_subset(subset)
        inputs.plan_for(frozenset({first}))
        inputs.query_hours_with(frozenset({first}))
        inputs.group_processing_hours(frozenset({first}), queries)
    assert problem.stats.calls >= 100


UNKNOWN = frozenset({"zz-missing", "V1-typo", "aa-missing"})
MESSAGE = re.escape(str(sorted(UNKNOWN)))


@pytest.mark.parametrize("kernel", [True, False])
def test_unknown_views_raise_after_warm_calls(kernel):
    inputs = _lattice_inputs()
    problem = SelectionProblem(inputs, kernel=kernel)
    _warm(inputs, problem)
    subset = frozenset({inputs.candidates[0].name}) | UNKNOWN
    paths = {
        "evaluate": problem.evaluate,
        "check_subset": inputs.check_subset,
        "plan_for": inputs.plan_for,
        "query_hours_with": inputs.query_hours_with,
        "group_processing_hours": lambda s: inputs.group_processing_hours(
            s, frozenset(q.name for q in inputs.workload)
        ),
    }
    for name, path in paths.items():
        with pytest.raises(CostModelError, match="unknown candidate views") as err:
            path(subset)
        assert re.search(MESSAGE, str(err.value)), name


def test_unknown_queries_raise_after_warm_calls():
    inputs = _lattice_inputs()
    _warm(inputs, SelectionProblem(inputs))
    known = frozenset(q.name for q in inputs.workload)
    with pytest.raises(CostModelError, match="unknown workload queries") as err:
        inputs.group_processing_hours(frozenset(), known | {"Qz", "Qa"})
    assert "['Qa', 'Qz']" in str(err.value)


def test_held_sets_leave_identity_and_pickles_unchanged():
    inputs = _lattice_inputs()
    # A field-for-field copy taken before the held sets exist.
    before = copy.copy(inputs)
    fingerprint = inputs.fingerprint()
    text = repr(inputs)
    pickled = pickle.dumps(inputs)

    _warm(inputs, SelectionProblem(inputs))

    assert inputs == before
    assert inputs.fingerprint() == fingerprint
    assert repr(inputs) == text
    assert pickle.dumps(inputs) == pickled
    restored = pickle.loads(pickle.dumps(inputs))
    assert restored.fingerprint() == fingerprint
    assert "_candidate_names" not in vars(restored)
    # The restored copy rebuilds its own sets and validates as loudly.
    with pytest.raises(CostModelError, match=MESSAGE):
        restored.check_subset(UNKNOWN)
