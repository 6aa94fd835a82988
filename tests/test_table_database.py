"""Unit tests for tables, rows, data sources and the catalog."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datastore.database import Catalog, DataSource
from repro.datastore.schema import RelationSchema, SourceSchema
from repro.datastore.table import Row, Table
from repro.datastore.types import ValueType
from repro.exceptions import DataError, SchemaError, UnknownRelationError


@pytest.fixture()
def entry_table() -> Table:
    schema = RelationSchema("entry", ["entry_ac", "name", "length"], source="interpro")
    return Table(
        schema,
        rows=[
            {"entry_ac": "IPR001", "name": "Kinase", "length": "120"},
            {"entry_ac": "IPR002", "name": "Zinc finger", "length": "87"},
            ("IPR003", "Kinase", "200"),
        ],
    )


class TestTable:
    def test_append_mapping_and_sequence(self, entry_table):
        assert len(entry_table) == 3
        assert entry_table[0]["entry_ac"] == "IPR001"
        assert entry_table[2]["name"] == "Kinase"

    def test_unknown_attribute_rejected(self, entry_table):
        with pytest.raises(DataError):
            entry_table.append({"nope": 1})

    def test_wrong_arity_rejected(self, entry_table):
        with pytest.raises(DataError):
            entry_table.append(("only", "two"))

    def test_uninterpretable_row_rejected(self, entry_table):
        with pytest.raises(DataError):
            entry_table.append(42)

    @pytest.mark.parametrize(
        "row, expected",
        [
            (("IPR9", "Kinase", "5"), ("IPR9", "Kinase", "5")),
            (["IPR9", "Kinase", "5"], ("IPR9", "Kinase", "5")),
            (range(3), (0, 1, 2)),
            ({"name": "Kinase", "entry_ac": "IPR9"}, ("IPR9", "Kinase", None)),
            ("row", ("IPR9", "Kinase", "5")),
            ({"entry_ac": "IPR9", "nope": 1}, DataError),
            ("abc", DataError),
            (b"abc", DataError),
            (["only", "two"], DataError),
            (("one", "two", "three", "four"), DataError),
            (42, DataError),
            ({"IPR9", "Kinase", "5"}, DataError),
        ],
        ids=[
            "tuple", "list", "other-sequence", "mapping", "row", "unknown-key",
            "str", "bytes", "short-list", "long-tuple", "int", "set",
        ],
    )
    def test_every_row_shape_coerces_or_raises(self, entry_table, row, expected):
        """The exact list / tuple fast path leaves every other shape's outcome as it was."""
        if row == "row":
            row = Row(entry_table.schema, ("IPR9", "Kinase", "5"), 0)
        if expected is DataError:
            with pytest.raises(DataError):
                entry_table.append(row)
            assert len(entry_table) == 3
        else:
            assert entry_table.append(row).values == expected
            assert entry_table[3].values == expected

    def test_column(self, entry_table):
        assert entry_table.column("name") == ["Kinase", "Zinc finger", "Kinase"]

    def test_distinct_values_canonicalized(self, entry_table):
        assert entry_table.distinct_values("name") == {"Kinase", "Zinc finger"}
        # cache invalidation on mutation
        entry_table.append({"entry_ac": "IPR004", "name": "Novel", "length": "10"})
        assert "Novel" in entry_table.distinct_values("name")

    def test_value_overlap(self, entry_table):
        other_schema = RelationSchema("method", ["method_ac", "name"], source="interpro")
        other = Table(other_schema, rows=[{"method_ac": "PF1", "name": "Kinase"}])
        assert entry_table.value_overlap("name", other, "name") == 1

    def test_inferred_column_type(self, entry_table):
        assert entry_table.inferred_column_type("length") is ValueType.INTEGER

    def test_select_and_project(self, entry_table):
        kinases = entry_table.select(lambda row: row["name"] == "Kinase")
        assert len(kinases) == 2
        projected = entry_table.project(["name"])
        assert projected.schema.attribute_names == ("name",)
        assert len(projected) == 3

    def test_row_protocols(self, entry_table):
        row = entry_table[0]
        assert row[0] == "IPR001"
        assert row.get("missing", "x") == "x"
        assert row.as_dict()["name"] == "Kinase"
        assert list(row) == ["IPR001", "Kinase", "120"]
        assert len(row) == 3

    @given(st.lists(st.text(min_size=1, max_size=5), min_size=0, max_size=30))
    def test_distinct_never_larger_than_rows_property(self, values):
        schema = RelationSchema("t", ["v"])
        table = Table(schema, rows=[{"v": v} for v in values])
        assert len(table.distinct_values("v")) <= len(table)


class TestDataSource:
    def test_build_and_lookup(self, mini_catalog):
        interpro = mini_catalog.source("interpro")
        assert interpro.relation_count == 4
        assert interpro.attribute_count == 8
        assert interpro.row_count == 8
        assert interpro.table("entry").schema.qualified_name == "interpro.entry"

    def test_unknown_relation(self, mini_catalog):
        with pytest.raises(UnknownRelationError):
            mini_catalog.source("interpro").table("missing")

    def test_add_relation(self):
        source = DataSource.build("s", {"r": ["a"]})
        table = source.add_relation(RelationSchema("r2", ["b"]), rows=[{"b": "1"}])
        assert len(table) == 1
        assert source.relation_count == 2


class TestCatalog:
    def test_duplicate_source_rejected(self, mini_catalog):
        with pytest.raises(SchemaError):
            mini_catalog.add_source(DataSource.build("go", {"term": ["acc"]}))

    def test_lookup_by_qualified_name(self, mini_catalog):
        table = mini_catalog.relation("interpro.entry")
        assert table.schema.name == "entry"
        with pytest.raises(UnknownRelationError):
            mini_catalog.relation("nope.entry")
        with pytest.raises(UnknownRelationError):
            mini_catalog.relation("not_qualified")

    def test_statistics(self, mini_catalog):
        assert mini_catalog.source_count == 2
        assert mini_catalog.relation_count == 5
        assert mini_catalog.attribute_count == 10
        assert len(mini_catalog.all_tables()) == 5
        assert len(mini_catalog.all_foreign_keys()) == 3

    def test_remove_source(self, mini_catalog):
        removed = mini_catalog.remove_source("go")
        assert removed.name == "go"
        assert not mini_catalog.has_source("go")
        with pytest.raises(SchemaError):
            mini_catalog.remove_source("go")

    def test_container_protocols(self, mini_catalog):
        assert "go" in mini_catalog
        assert "nope" not in mini_catalog
        assert len(mini_catalog) == 2
        assert {s.name for s in mini_catalog} == {"go", "interpro"}
