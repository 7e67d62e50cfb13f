"""One attribution plan, one merge: oracle and error paths.

In-memory and sharded attribution both evaluate an epoch's
``component_plan`` through :func:`merge_plan`.  ``allocate_exactly``
stays as the reference implementation of one exact split; the
hypothesis suite below checks the merge against it field by field,
``repr``-equal, for any sharding of the tenant range.  The error tests
pin the churn contradictions on the in-memory ``run()`` path.
"""

from __future__ import annotations

from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.money import Money, ZERO
from repro.simulate import (
    MultiTenantSimulator,
    NeverReselect,
    SimulationClock,
    Tenant,
    TenantFleet,
)
from repro.simulate.attribution import (
    PLAN_FIELDS,
    SharedCostAttributor,
    allocate_exactly,
    merge_plan,
    plan_products,
)
from repro.simulate.presets import sales_deployment
from repro.simulate.sharding import shard_bounds
from repro.workload import paper_sales_workload

#: Bill amounts as the ledgers carry them: non-negative decimals with
#: up to eight places, zero included.
amounts = st.builds(
    lambda units, places: Money(Decimal(units).scaleb(-places)),
    st.integers(min_value=0, max_value=10**12),
    st.integers(min_value=0, max_value=8),
)
#: Segment fractions (1.0 is a full period and leaves the amount as is).
fractions = st.one_of(
    st.just(1.0),
    st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
)
#: A weight, or ``None`` for a tenant missing from the weight mapping.
weights = st.one_of(
    st.none(),
    st.just(0.0),
    st.floats(min_value=-50.0, max_value=-1e-9),
    st.floats(min_value=1e-9, max_value=1e6),
)


def _scaled(amount, fraction):
    return amount if fraction == 1.0 else amount * fraction


@st.composite
def splits(draw, n):
    """One split: (field, scaled amount, weight mapping)."""
    amount = _scaled(draw(amounts), draw(fractions))
    mapping = {}
    for index in range(n):
        weight = draw(weights)
        if weight is not None:
            mapping[f"t{index}"] = weight
    return draw(st.sampled_from(PLAN_FIELDS)), amount, mapping


@st.composite
def plans(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    return n, draw(st.lists(splits(n), min_size=1, max_size=6))


def _entries(order, plan):
    return [
        SharedCostAttributor._plan_entry(field, amount, mapping, order)
        for field, amount, mapping in plan
    ]


def _sharded(entries, n, shards):
    return [
        plan_products(
            [
                (entry.amount, entry.weights[start:stop], entry.total)
                for entry in entries
            ]
        )
        for start, stop in shard_bounds(n, shards)
    ]


class TestMergeOracle:
    @given(plan=plans(), shards=st.integers(min_value=1, max_value=9))
    @settings(max_examples=300, deadline=None)
    def test_merge_equals_allocate_exactly_field_by_field(self, plan, shards):
        n, splits_ = plan
        order = [f"t{index}" for index in range(n)]
        entries = _entries(order, splits_)
        # Reference: every split through allocate_exactly, folded per
        # field from ZERO in plan order.
        expected = [dict.fromkeys(PLAN_FIELDS, ZERO) for _ in order]
        for field, amount, mapping in splits_:
            shares = allocate_exactly(amount, mapping, order)
            for row, name in zip(expected, order):
                row[field] = row[field] + shares[name]
        for merged in (
            merge_plan(entries, n),
            merge_plan(entries, n, _sharded(entries, n, shards)),
        ):
            assert [
                {field: repr(Money(value)) for field, value in row.items()}
                for row in merged
            ] == [
                {field: repr(value) for field, value in row.items()}
                for row in expected
            ]

    @given(
        amount=amounts,
        fraction=fractions,
        mapping=st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]), weights.filter(
                lambda w: w is not None
            )
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_split_is_allocate_exactly_itself(
        self, amount, fraction, mapping
    ):
        order = ["a", "b", "c", "d"]
        amount = _scaled(amount, fraction)
        (entry,) = _entries(order, [("build_cost", amount, mapping)])
        shares = allocate_exactly(amount, mapping, order)
        merged = merge_plan([entry], len(order))
        assert [repr(Money(row["build_cost"])) for row in merged] == [
            repr(shares[name]) for name in order
        ]

    @given(amount=amounts, fraction=fractions, weight=weights)
    @settings(max_examples=100, deadline=None)
    def test_single_tenant_takes_the_whole_amount(
        self, amount, fraction, weight
    ):
        amount = _scaled(amount, fraction)
        mapping = {} if weight is None else {"solo": weight}
        (entry,) = _entries(["solo"], [("teardown_cost", amount, mapping)])
        (row,) = merge_plan([entry], 1)
        assert repr(Money(row["teardown_cost"])) == repr(
            allocate_exactly(amount, mapping, ["solo"])["solo"]
        )
        assert Money(row["teardown_cost"]) == amount

    def test_all_zero_weights_fall_back_to_an_even_split(self):
        (entry,) = _entries(
            ["a", "b", "c"],
            [("storage_cost", Money("9.00"), {"a": 0.0, "b": -1.0})],
        )
        assert entry.weights == (1.0, 1.0, 1.0)
        assert entry.total == 3.0
        merged = merge_plan([entry], 3)
        assert sum(
            (Money(row["storage_cost"]) for row in merged), ZERO
        ) == Money("9.00")


@pytest.fixture()
def elastic_sim(sales_dataset_10gb):
    """A 3-tenant fleet with one arrival (b, epoch 1) and one departure
    (c, epoch 2)."""
    schema = sales_dataset_10gb.schema
    fleet = TenantFleet(
        [
            Tenant("a", paper_sales_workload(schema, 3)),
            Tenant("b", paper_sales_workload(schema, 2), arrival_epoch=1),
            Tenant(
                "c", paper_sales_workload(schema, 4), departure_epoch=2
            ),
        ],
        dataset=sales_dataset_10gb,
        deployment=sales_deployment(),
    )
    return MultiTenantSimulator(fleet, clock=SimulationClock(4))


class TestInMemoryChurnErrors:
    """``run()``'s in-process evaluation refuses the same contradictions
    as the sharded path, with the same messages."""

    def test_run_balances_without_doctoring(self, elastic_sim):
        ledger = elastic_sim.run(NeverReselect())
        assert ledger.fleet.arrival_count == 1
        assert ledger.fleet.departure_count == 1

    def test_arrival_charge_outside_the_split_rejected(
        self, elastic_sim, monkeypatch
    ):
        monkeypatch.setattr(
            elastic_sim.simulator,
            "_price_arrival",
            lambda problem, event: ("ghost", Money("1.00")),
        )
        with pytest.raises(SimulationError, match="not in the active split"):
            elastic_sim.run(NeverReselect())

    def test_departed_tenant_still_in_the_split_rejected(
        self, elastic_sim, monkeypatch
    ):
        roster = elastic_sim.fleet.tenant_names
        monkeypatch.setattr(
            elastic_sim.fleet, "active_tenants", lambda epoch: roster
        )
        with pytest.raises(
            SimulationError, match="still in the active split"
        ):
            elastic_sim.run(NeverReselect())
