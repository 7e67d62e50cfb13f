"""Queries and workloads."""

from __future__ import annotations

import pytest

from repro.errors import SchemaError
from repro.schema import ALL, sales_schema
from repro.workload import AggregateQuery, Workload, cross_workload, paper_sales_workload


@pytest.fixture(scope="module")
def schema():
    return sales_schema()


class TestAggregateQuery:
    def test_per_constructor(self, schema):
        q = AggregateQuery.per(
            schema, "Q1", {"time": "year", "geography": "country"}
        )
        assert q.grain == ("year", "country")

    def test_per_defaults_to_all(self, schema):
        q = AggregateQuery.per(schema, "Q", {"time": "month"})
        assert q.grain == ("month", ALL)

    def test_describe(self, schema):
        q = AggregateQuery.per(
            schema, "Q1", {"time": "year", "geography": "country"}
        )
        assert q.describe(schema) == "profit per year, country"
        apex = AggregateQuery("T", (ALL, ALL))
        assert apex.describe(schema) == "total profit"

    def test_validation(self, schema):
        with pytest.raises(SchemaError):
            AggregateQuery("", ("year", ALL))
        with pytest.raises(SchemaError):
            AggregateQuery("Q", ("year", ALL), frequency=0)


class TestWorkload:
    def test_needs_queries(self, schema):
        with pytest.raises(SchemaError):
            Workload(schema, [])

    def test_duplicate_names_rejected(self, schema):
        q = AggregateQuery("Q1", ("year", ALL))
        with pytest.raises(SchemaError):
            Workload(schema, [q, q])

    def test_prefix(self, schema):
        workload = paper_sales_workload(schema, 10)
        assert len(workload.prefix(3)) == 3
        assert list(workload.prefix(3))[0].name == "Q1"
        with pytest.raises(SchemaError):
            workload.prefix(0)
        with pytest.raises(SchemaError):
            workload.prefix(11)


class TestPrefixEdges:
    def test_prefix_of_one_is_just_q1(self, schema):
        one = paper_sales_workload(schema, 10).prefix(1)
        assert [q.name for q in one] == ["Q1"]

    def test_full_prefix_preserves_order_and_content(self, schema):
        workload = paper_sales_workload(schema, 10)
        full = workload.prefix(len(workload))
        assert tuple(full.queries) == tuple(workload.queries)
        assert full.schema is workload.schema

    def test_prefix_is_a_new_workload(self, schema):
        workload = paper_sales_workload(schema, 10)
        assert workload.prefix(3) is not workload
        assert len(workload) == 10  # the original is untouched

    def test_negative_prefix_rejected(self, schema):
        with pytest.raises(SchemaError, match="outside"):
            paper_sales_workload(schema, 10).prefix(-1)

    def test_prefix_keeps_frequencies_and_filters(self, schema):
        hot = AggregateQuery("H", ("year", ALL), frequency=5.0)
        cold = AggregateQuery("C", ("month", ALL), frequency=0.5)
        workload = Workload(schema, [hot, cold])
        assert workload.prefix(1).queries[0].frequency == 5.0

    def test_prefix_of_prefix(self, schema):
        workload = paper_sales_workload(schema, 10)
        assert [q.name for q in workload.prefix(5).prefix(2)] == ["Q1", "Q2"]


class TestDriftHelpers:
    def test_with_queries_appends(self, schema):
        base = paper_sales_workload(schema, 3)
        extra = AggregateQuery("X", ("day", ALL))
        grown = base.with_queries([extra])
        assert [q.name for q in grown] == ["Q1", "Q2", "Q3", "X"]
        assert len(base) == 3

    def test_with_queries_rejects_duplicates(self, schema):
        base = paper_sales_workload(schema, 3)
        with pytest.raises(SchemaError):
            base.with_queries([AggregateQuery("Q1", ("day", ALL))])

    def test_without_and_reweighted(self, schema):
        base = paper_sales_workload(schema, 3)
        assert [q.name for q in base.without(["Q2"])] == ["Q1", "Q3"]
        hot = base.reweighted({"Q1": 4.0})
        assert hot.queries[0].frequency == 4.0
        assert base.queries[0].frequency == 1.0
        with pytest.raises(SchemaError):
            base.without(["nope"])
        with pytest.raises(SchemaError):
            base.without(["Q1", "Q2", "Q3"])
        with pytest.raises(SchemaError):
            base.reweighted({"nope": 2.0})
        with pytest.raises(SchemaError):
            base.reweighted({"Q1": 0.0})

    def test_with_queries_validates_the_arrivals(self, schema):
        base = paper_sales_workload(schema, 3)
        with pytest.raises(SchemaError):
            base.with_queries([AggregateQuery("X", ("decade", ALL))])
        with pytest.raises(SchemaError, match="unique"):
            twice = AggregateQuery("X", ("day", ALL))
            base.with_queries([twice, twice])
        with pytest.raises(SchemaError, match="at least one"):
            base.with_queries([])

    def test_with_queries_before_namespaces(self, schema):
        def joined(*names, before=()):
            base = Workload(schema, [_yearly(n) for n in names])
            grown = base.with_queries([_yearly("new/1")], before=before)
            return [q.name for q in grown]

        # Inserted before the first resident query in any namespace.
        assert joined("a/1", "c/1", "d/1", "c/2", before=("d", "c")) == [
            "a/1", "new/1", "c/1", "d/1", "c/2"
        ]
        # None resident in those namespaces, or none given: appended.
        assert joined("a/1", before=("z",)) == ["a/1", "new/1"]
        assert joined("a/1", "c/1") == ["a/1", "c/1", "new/1"]
        # A bare name, or one with nothing after the slash, is in no
        # namespace.
        assert joined("solo", "b/", before=("solo", "b")) == [
            "solo", "b/", "new/1"
        ]

    def test_drift_operations_equal_a_rebuild(self, schema):
        base = paper_sales_workload(schema, 10)
        extra = AggregateQuery("X", ("day", ALL))
        for drifted in (
            base.with_queries([extra]),
            base.without(["Q3", "Q7"]),
            base.reweighted({"Q2": 5.0}),
            base.prefix(4),
        ):
            rebuilt = Workload(schema, drifted.queries)
            assert drifted.fingerprint() == rebuilt.fingerprint()
            assert repr(drifted) == repr(rebuilt)
            assert drifted.schema is schema


def _yearly(name):
    return AggregateQuery(name, ("year", ALL))


class TestPaperWorkload:
    def test_q1_is_the_quoted_query(self, schema):
        # Section 2.1: Q1 = "sales per year and country".
        workload = paper_sales_workload(schema, 10)
        assert workload.queries[0].grain == ("year", "country")

    def test_sizes_are_prefixes(self, schema):
        ten = paper_sales_workload(schema, 10)
        three = paper_sales_workload(schema, 3)
        assert tuple(q.name for q in three) == tuple(
            q.name for q in ten.queries[:3]
        )

    def test_ten_distinct_grains(self, schema):
        workload = paper_sales_workload(schema, 10)
        grains = [q.grain for q in workload]
        assert len(set(grains)) == 10

    def test_covers_all_nine_level_combinations(self, schema):
        # "per day, month, year and per country, department, region".
        workload = paper_sales_workload(schema, 10)
        crossed = {
            q.grain
            for q in workload
            if ALL not in q.grain
        }
        assert len(crossed) == 9


class TestCrossWorkload:
    def test_excludes_apex(self, schema):
        workload = cross_workload(schema)
        assert (ALL, ALL) not in {q.grain for q in workload}

    def test_size_is_lattice_minus_apex(self, schema):
        assert len(cross_workload(schema)) == 16 - 1

    def test_grains_are_unique_and_valid(self, schema):
        workload = cross_workload(schema)
        grains = [q.grain for q in workload]
        assert len(set(grains)) == len(grains)
        for grain in grains:
            assert schema.validate_grain(grain) == grain

    def test_enumerates_the_full_level_cross_product(self, schema):
        expected = {
            (t, g)
            for t in ("day", "month", "year", ALL)
            for g in ("department", "country", "region", ALL)
        } - {(ALL, ALL)}
        assert {q.grain for q in cross_workload(schema)} == expected

    def test_includes_base_grain(self, schema):
        # Unlike candidate enumeration, the *workload* may ask for the
        # base grain (the finest roll-up is a legitimate query).
        assert schema.base_grain in {q.grain for q in cross_workload(schema)}

    def test_names_follow_enumeration_order(self, schema):
        names = [q.name for q in cross_workload(schema)]
        assert names == [f"Q{i + 1}" for i in range(len(names))]

    def test_frequency_propagates_to_every_query(self, schema):
        workload = cross_workload(schema, frequency=2.5)
        assert all(q.frequency == 2.5 for q in workload)
        default = cross_workload(schema)
        assert all(q.frequency == 1.0 for q in default)

    def test_ssb_cross_product_counts(self):
        from repro.schema import ssb_schema

        schema = ssb_schema()
        workload = cross_workload(schema)
        expected = 1
        for dim in schema.dimensions:
            expected *= len(dim.hierarchy.levels_with_all)
        assert len(workload) == expected - 1
