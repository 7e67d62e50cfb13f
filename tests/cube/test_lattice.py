"""The cuboid lattice: enumeration, order, reachability cross-validation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cube import CuboidLattice
from repro.errors import SchemaError
from repro.schema import ALL, sales_schema, ssb_schema


@pytest.fixture(scope="module")
def lattice():
    return CuboidLattice(sales_schema())


class TestEnumeration:
    def test_sales_lattice_has_sixteen_cuboids(self, lattice):
        # (3 levels + ALL) x (3 levels + ALL).
        assert len(lattice) == 16

    def test_ssb_lattice_has_256_cuboids(self):
        assert len(CuboidLattice(ssb_schema())) == 4**4

    def test_base_and_apex_present(self, lattice):
        assert lattice.base in lattice
        assert lattice.apex in lattice

    def test_enumeration_is_deterministic(self):
        a = CuboidLattice(sales_schema()).cuboids
        b = CuboidLattice(sales_schema()).cuboids
        assert a == b


class TestGraph:
    def test_immediate_edges_step_one_level(self, lattice):
        children = lattice.immediate_children(("day", "department"))
        assert sorted(children) == [("day", "region"), ("month", "department")]

    def test_apex_has_no_children(self, lattice):
        assert lattice.immediate_children(lattice.apex) == []

    def test_base_has_no_parents(self, lattice):
        assert not any(
            lattice.base in lattice.immediate_children(grain)
            for grain in lattice.cuboids
        )

    def test_topological_order_starts_at_base(self, lattice):
        order = lattice.topological_order()
        assert order[0] == lattice.base
        assert order[-1] == lattice.apex

    @pytest.mark.parametrize("schema", [sales_schema, ssb_schema])
    def test_topological_order_is_a_linear_extension(self, schema):
        lattice = CuboidLattice(schema())
        order = lattice.topological_order()
        assert sorted(order) == sorted(lattice.cuboids)
        position = {grain: index for index, grain in enumerate(order)}
        for grain in lattice.cuboids:
            for child in lattice.immediate_children(grain):
                assert position[grain] < position[child]


class TestOrderAgainstReachability:
    """The O(dims) level comparison must equal roll-up reachability."""

    grains = st.tuples(
        st.sampled_from(["day", "month", "year", ALL]),
        st.sampled_from(["department", "region", "country", ALL]),
    )

    @given(a=grains, b=grains)
    @settings(max_examples=60, deadline=None)
    def test_answers_equals_path_existence(self, lattice, a, b):
        assert lattice.answers(a, b) == lattice.roll_up_path_exists(a, b)


class TestQueries:
    def test_answerable_by_base_is_everything(self, lattice):
        assert len(lattice.answerable_by(lattice.base)) == 16

    def test_answer_sources_of_apex_is_everything(self, lattice):
        assert len(lattice.answer_sources(lattice.apex)) == 16

    def test_answer_sources_of_base_is_itself(self, lattice):
        assert lattice.answer_sources(lattice.base) == [lattice.base]

    def test_mid_lattice_counts(self, lattice):
        # (month, region): sources are (day|month) x (department|region).
        assert len(lattice.answer_sources(("month", "region"))) == 4


class TestDescribe:
    def test_describe_uses_star_for_all(self, lattice):
        assert lattice.describe(("month", ALL)) == "(month, *)"

    def test_parse_roundtrip(self, lattice):
        for grain in lattice.cuboids:
            assert lattice.grain_by_name(lattice.describe(grain)) == grain

    def test_parse_rejects_garbage(self, lattice):
        with pytest.raises(SchemaError):
            lattice.grain_by_name("month, country")
        with pytest.raises(SchemaError):
            lattice.grain_by_name("(week, country)")
