"""Churn validates once, at the boundary.

Workload drift events validate only the queries they add; the resident
workload is spliced, not re-checked.  The generative test pins the
spliced workloads to ``Workload(schema, queries)`` rebuilt from
scratch after every step; the negative tests pin every check the
boundary still makes.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest

from repro.errors import SimulationError
from repro.schema import ALL, sales_schema
from repro.simulate import (
    AddQueries,
    DropQueries,
    ReweightQueries,
    WarehouseState,
)
from repro.simulate.events import TenantArrival, TenantDeparture
from repro.workload import AggregateQuery, DimensionFilter, Workload

_TIME = ("day", "month", "year", ALL)
_GEO = ("department", "region", "country", ALL)
_ROSTER = tuple(f"t{i}" for i in range(8))


def _query(rng: random.Random, name: str) -> AggregateQuery:
    grain = (rng.choice(_TIME), rng.choice(_GEO))
    if grain == (ALL, ALL):
        grain = ("year", ALL)
    return AggregateQuery(name, grain, rng.choice((0.5, 1.0, 2.0)))


def _reference_arrival(
    queries: List[AggregateQuery],
    arriving: List[AggregateQuery],
    precedes,
) -> List[AggregateQuery]:
    """The pre-splice insertion rule, scanning every resident query."""
    position = len(queries)
    laters = frozenset(precedes)
    for index, query in enumerate(queries):
        owner, _, rest = query.name.partition("/")
        if rest and owner in laters:
            position = index
            break
    return queries[:position] + arriving + queries[position:]


def _assert_same(workload: Workload, rebuilt: Workload) -> None:
    assert workload.fingerprint() == rebuilt.fingerprint()
    assert tuple(workload.queries) == tuple(rebuilt.queries)
    assert [q.name for q in workload] == [q.name for q in rebuilt]
    assert repr(workload) == repr(rebuilt)
    assert len(workload) == len(rebuilt)


@pytest.mark.parametrize("seed", range(12))
def test_spliced_churn_matches_rebuilt_workload(initial_state, seed):
    rng = random.Random(seed)
    schema = initial_state.workload.schema
    counter = [0]

    def fresh(tenant: str) -> AggregateQuery:
        counter[0] += 1
        return _query(rng, f"{tenant}/Q{counter[0]}")

    # A shared, unqualified query keeps the workload non-empty and
    # exercises names outside every namespace.
    queries = [AggregateQuery("shared", ("month", "country"))]
    owned: Dict[str, List[str]] = {}
    for tenant in _ROSTER[::2]:
        block = [fresh(tenant) for _ in range(rng.randint(1, 3))]
        queries.extend(block)
        owned[tenant] = [q.name for q in block]
    rng.shuffle(queries)
    state = WarehouseState(
        workload=Workload(schema, queries),
        dataset=initial_state.dataset,
        deployment=initial_state.deployment,
    )

    for epoch in range(40):
        absent = [t for t in _ROSTER if t not in owned]
        present = list(owned)
        kind = rng.choice(("arrive", "depart", "add", "drop", "reweight"))
        if kind == "arrive" and absent:
            tenant = rng.choice(absent)
            arriving = [fresh(tenant) for _ in range(rng.randint(1, 3))]
            precedes = _ROSTER[_ROSTER.index(tenant) + 1 :]
            event = TenantArrival(
                epoch=epoch,
                tenant=tenant,
                queries=tuple(arriving),
                precedes=precedes,
            )
            queries = _reference_arrival(queries, arriving, precedes)
            owned[tenant] = [q.name for q in arriving]
        elif kind == "depart" and present:
            tenant = rng.choice(present)
            names = owned.pop(tenant)
            event = TenantDeparture(
                epoch=epoch, tenant=tenant, names=tuple(names)
            )
            queries = [q for q in queries if q.name not in names]
        elif kind == "add" and present:
            # Tenant drift appends, breaking roster order on purpose.
            tenant = rng.choice(present)
            extra = fresh(tenant)
            event = AddQueries(epoch=epoch, queries=(extra,))
            queries = queries + [extra]
            owned[tenant].append(extra.name)
        elif kind == "drop" and present:
            tenant = rng.choice(present)
            if len(owned[tenant]) < 2:
                continue
            name = owned[tenant].pop(rng.randrange(len(owned[tenant])))
            event = DropQueries(epoch=epoch, names=(name,))
            queries = [q for q in queries if q.name != name]
        elif kind == "reweight":
            picked = rng.sample(queries, min(len(queries), rng.randint(1, 3)))
            weights = {q.name: rng.choice((0.25, 3.0, 7.5)) for q in picked}
            event = ReweightQueries(
                epoch=epoch, frequencies=tuple(weights.items())
            )
            queries = [
                AggregateQuery(q.name, q.grain, weights[q.name], q.filters)
                if q.name in weights
                else q
                for q in queries
            ]
        else:
            continue
        state = event.apply(state)
        _assert_same(state.workload, Workload(schema, queries))


class TestArrivalBoundary:
    def test_duplicate_of_a_resident_name_cannot_arrive(self, initial_state):
        clash = AggregateQuery("Q1", ("day", "country"))
        with pytest.raises(SimulationError, match="cannot arrive"):
            TenantArrival(epoch=1, tenant="late", queries=(clash,)).apply(
                initial_state
            )

    def test_duplicate_within_the_arrival_cannot_arrive(self, initial_state):
        query = AggregateQuery("late/Q1", ("day", "country"))
        with pytest.raises(SimulationError, match="cannot arrive"):
            TenantArrival(
                epoch=1, tenant="late", queries=(query, query)
            ).apply(initial_state)

    def test_bad_grain_cannot_arrive(self, initial_state):
        bad = AggregateQuery("late/Q1", ("decade", ALL))
        with pytest.raises(SimulationError, match="cannot arrive"):
            TenantArrival(epoch=1, tenant="late", queries=(bad,)).apply(
                initial_state
            )

    def test_bad_filter_cannot_arrive(self, initial_state):
        out_of_range = DimensionFilter("time", "year", frozenset({10**6}))
        bad = AggregateQuery(
            "late/Q1", ("month", ALL), filters=(out_of_range,)
        )
        with pytest.raises(SimulationError, match="cannot arrive"):
            TenantArrival(epoch=1, tenant="late", queries=(bad,)).apply(
                initial_state
            )

    def test_empty_arrival_rejected(self):
        with pytest.raises(SimulationError, match="cannot arrive"):
            TenantArrival(epoch=1, tenant="late", queries=())

    def test_bad_added_query_cannot_be_added(self, initial_state):
        bad = AggregateQuery("D1", ("decade", ALL))
        with pytest.raises(SimulationError, match="cannot add"):
            AddQueries(epoch=1, queries=(bad,)).apply(initial_state)


class TestDepartureBoundary:
    def test_unknown_names_cannot_depart(self, initial_state):
        with pytest.raises(SimulationError, match="cannot depart"):
            TenantDeparture(
                epoch=1, tenant="ghost", names=("ghost/Q1",)
            ).apply(initial_state)

    def test_dropping_the_last_query_cannot_depart(self, initial_state):
        names = tuple(q.name for q in initial_state.workload)
        with pytest.raises(SimulationError, match="cannot depart"):
            TenantDeparture(epoch=1, tenant="all", names=names).apply(
                initial_state
            )


def test_schema_change_rejected(initial_state):
    foreign = Workload(sales_schema(), initial_state.workload.queries)
    with pytest.raises(SimulationError, match="schema"):
        initial_state.with_workload(foreign)


def test_churn_validates_only_its_own_queries(initial_state, monkeypatch):
    validated: List[str] = []
    check = AggregateQuery.validate_against

    def counting(query, schema):
        validated.append(query.name)
        check(query, schema)

    monkeypatch.setattr(AggregateQuery, "validate_against", counting)
    arriving = (
        AggregateQuery("late/Q1", ("day", "country")),
        AggregateQuery("late/Q2", ("year", "region")),
    )
    state = TenantArrival(epoch=1, tenant="late", queries=arriving).apply(
        initial_state
    )
    assert validated == ["late/Q1", "late/Q2"]
    state = ReweightQueries(epoch=2, frequencies=(("Q1", 4.0),)).apply(state)
    state = TenantDeparture(
        epoch=3, tenant="late", names=("late/Q1", "late/Q2")
    ).apply(state)
    state = DropQueries(epoch=4, names=("Q5",)).apply(state)
    assert validated == ["late/Q1", "late/Q2"]
    assert [q.name for q in state.workload] == ["Q1", "Q2", "Q3", "Q4"]
