"""Unit tests for schema objects: attributes, relations, sources, foreign keys."""

from __future__ import annotations

import pytest

from repro.datastore.schema import (
    Attribute,
    ForeignKey,
    RelationSchema,
    SourceSchema,
    qualified_name,
    split_qualified,
)
from repro.datastore.types import ValueType
from repro.exceptions import SchemaError, UnknownAttributeError


class TestAttribute:
    def test_defaults(self):
        attr = Attribute("go_id")
        assert attr.value_type is ValueType.STRING
        assert attr.description == ""

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("")


class TestQualifiedNames:
    def test_roundtrip(self):
        name = qualified_name("interpro", "entry", "name")
        assert name == "interpro.entry.name"
        assert split_qualified(name) == ("interpro", "entry", "name")


class TestRelationSchema:
    def test_string_attributes_promoted(self):
        rel = RelationSchema("entry", ["entry_ac", "name"])
        assert rel.attribute_names == ("entry_ac", "name")
        assert all(isinstance(a, Attribute) for a in rel.attributes)

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("entry", ["a", "a"])

    def test_empty_relation_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("entry", [])

    def test_unknown_attribute(self):
        rel = RelationSchema("entry", ["entry_ac"])
        with pytest.raises(UnknownAttributeError):
            rel.attribute("missing")
        assert not rel.has_attribute("missing")

    def test_attribute_index(self):
        rel = RelationSchema("entry", ["a", "b", "c"])
        assert rel.attribute_index("b") == 1
        with pytest.raises(UnknownAttributeError):
            rel.attribute_index("z")

    def test_primary_key_validated(self):
        with pytest.raises(SchemaError):
            RelationSchema("entry", ["a"], primary_key=["missing"])
        rel = RelationSchema("entry", ["a", "b"], primary_key=["a"])
        assert rel.primary_key == ("a",)

    def test_qualified_names(self):
        rel = RelationSchema("entry", ["entry_ac"], source="interpro")
        assert rel.qualified_name == "interpro.entry"

    def test_unbound_qualified_name(self):
        rel = RelationSchema("entry", ["a"])
        assert rel.qualified_name == "entry"
        rel.bind_source("interpro")
        assert rel.qualified_name == "interpro.entry"

    def test_equality_and_hash(self):
        a = RelationSchema("entry", ["x"], source="s")
        b = RelationSchema("entry", ["x"], source="s")
        c = RelationSchema("entry", ["y"], source="s")
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_container_protocol(self):
        rel = RelationSchema("entry", ["a", "b"])
        assert "a" in rel
        assert "z" not in rel
        assert len(rel) == 2
        assert [attr.name for attr in rel] == ["a", "b"]


class TestSourceSchema:
    def test_add_relation_binds_source(self):
        source = SourceSchema("interpro")
        rel = source.add_relation(RelationSchema("entry", ["entry_ac"]))
        assert rel.source == "interpro"
        assert source.relation("entry") is rel

    def test_duplicate_relation_rejected(self):
        source = SourceSchema("interpro")
        source.add_relation(RelationSchema("entry", ["a"]))
        with pytest.raises(SchemaError):
            source.add_relation(RelationSchema("entry", ["b"]))

    def test_unknown_relation(self):
        source = SourceSchema("interpro")
        with pytest.raises(SchemaError):
            source.relation("missing")

    def test_foreign_key_validation(self):
        source = SourceSchema("interpro")
        source.add_relation(RelationSchema("entry", ["entry_ac"]))
        source.add_relation(RelationSchema("entry2pub", ["entry_ac", "pub_id"]))
        fk = source.add_foreign_key(ForeignKey("entry2pub", "entry_ac", "entry", "entry_ac"))
        assert fk in source.foreign_keys
        with pytest.raises(SchemaError):
            source.add_foreign_key(ForeignKey("entry2pub", "missing", "entry", "entry_ac"))
        with pytest.raises(SchemaError):
            source.add_foreign_key(ForeignKey("nope", "x", "entry", "entry_ac"))

    def test_attribute_count_and_all_attributes(self):
        source = SourceSchema("s")
        source.add_relation(RelationSchema("r1", ["a", "b"]))
        source.add_relation(RelationSchema("r2", ["c"]))
        assert source.attribute_count == 3
        assert len(source) == 2
        assert source.relation_names() == ("r1", "r2")

    def test_empty_source_name_rejected(self):
        with pytest.raises(SchemaError):
            SourceSchema("")


class TestForeignKey:
    def test_as_tuple(self):
        fk = ForeignKey("a", "x", "b", "y")
        assert fk.as_tuple() == ("a", "x", "b", "y")
