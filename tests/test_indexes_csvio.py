"""Unit tests for keyword value lookups and the CSV / JSON IO helpers."""

from __future__ import annotations

import pytest
from reference_values import reference_value_cells

from repro.datastore.csvio import (
    iter_relation_rows,
    load_catalog_json,
    load_relation_csv,
    load_source_from_csv_dir,
    read_relation_header,
    save_catalog_json,
    save_source_to_csv_dir,
    source_from_dict,
    source_to_dict,
)
from repro.datastore.database import Catalog, DataSource
from repro.exceptions import DataError
from repro.graph import QueryGraphBuilder
from repro.profiling import CatalogProfileIndex
from repro.storage import SqliteBackend


class TestKeywordValueLookup:
    """The query-graph builder's keyword lookups over the profile index:
    exact hits, misses, substring hits and their cap, case, and the cells a
    builder remembers per needle, against a brute-force catalog scan."""

    @pytest.fixture()
    def index(self, mini_catalog) -> CatalogProfileIndex:
        return CatalogProfileIndex.from_catalog(mini_catalog)

    @pytest.fixture()
    def builder(self, mini_catalog, index) -> QueryGraphBuilder:
        return QueryGraphBuilder(mini_catalog, index)

    def test_exact_lookup(self, builder):
        cells = builder._value_cells("GO:0001")
        assert {cell.relation for cell in cells} == {"go.term", "interpro.interpro2go"}
        assert {cell.value for cell in cells} == {"GO:0001"}

    def test_lookup_missing(self, builder):
        assert builder._value_cells("NOPE") == []
        # A blank keyword is no exact hit, and no value holds three spaces.
        assert builder._value_cells("   ") == []

    def test_substring_lookup(self, builder):
        cells = builder._value_cells("membrane")
        assert any(cell.value == "plasma membrane" for cell in cells)

    def test_substring_limit(self, mini_catalog, index):
        capped = QueryGraphBuilder(mini_catalog, index, max_value_matches=1)
        assert len(capped._value_cells("GO:")) == 1
        # An exact hit is not capped.
        assert len(capped._value_cells("GO:0001")) == 2

    def test_attribute_values(self, index):
        assert index.profile("go.term", "acc").distinct_values == {"GO:0001", "GO:0002", "GO:0003"}

    def test_attributes_with_value(self, builder):
        pairs = {(cell.relation, cell.attribute) for cell in builder._value_cells("IPR001")}
        assert ("interpro.entry", "entry_ac") in pairs
        assert ("interpro.interpro2go", "entry_ac") in pairs

    def test_overlap(self, index):
        assert index.overlap("go.term", "acc", "interpro.interpro2go", "go_id") == 2
        assert index.overlap("go.term", "name", "interpro.pub", "pub_id") == 0

    def test_distinct_count_positive(self, index):
        assert index.distinct_value_count > 5
        assert index.profile("go.term", "acc") is not None

    def test_remembered_substring_postings_read_as_a_scan(self, mini_catalog, index, builder):
        """A needle's cells are kept across registration and forgotten on
        removal: every lookup equals a scan of the catalog as it stands, the
        cap included, whatever the keyword's case.  The new source repeats an
        old value (its group must not move) and adds new ones (they go last)."""
        extra = DataSource.build(
            "extra",
            {"notes": ["acc", "text"]},
            data={"notes": [
                {"acc": "GO:0003", "text": "membrane transport"},
                {"acc": "GO:0009", "text": "outer membrane"},
                {"acc": "IPR777", "text": "zzz"},
            ]},
        )
        needles = ("go:", "membrane", "ipr", "zzz")

        def check():
            for needle in needles:
                for limit in (1, 3, 25):
                    builder.max_value_matches = limit
                    assert builder._value_cells(needle.upper()) == reference_value_cells(
                        mini_catalog, needle.upper(), limit
                    )

        check()
        assert {needle for needle, cap in builder._postings if cap == 25} == set(needles)
        mini_catalog.add_source(extra)
        index.index_source(extra)
        builder.add_source(extra)
        membrane = builder._postings[("membrane", 25)][1]
        assert list(membrane)[-2:] == ["membrane transport", "outer membrane"]
        check()
        go = mini_catalog.remove_source("go")
        index.remove_source("go")
        builder.remove_source(go)
        assert not builder._postings
        check()


class TestCsvIO:
    def test_relation_roundtrip(self, tmp_path):
        csv_path = tmp_path / "entry.csv"
        csv_path.write_text("entry_ac,name\nIPR001,Kinase\nIPR002,Zinc finger\n")
        schema, rows = load_relation_csv(csv_path)
        assert schema.name == "entry"
        assert schema.attribute_names == ("entry_ac", "name")
        assert rows[1]["name"] == "Zinc finger"

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_relation_csv(path)

    def test_bad_arity_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(DataError):
            load_relation_csv(path)

    def test_source_directory_roundtrip(self, tmp_path, mini_catalog):
        source = mini_catalog.source("interpro")
        out_dir = tmp_path / "interpro"
        written = save_source_to_csv_dir(source, out_dir)
        assert len(written) == 4
        loaded = load_source_from_csv_dir(out_dir)
        assert loaded.name == "interpro"
        assert loaded.relation_count == 4
        assert set(loaded.table("entry").column("entry_ac")) == {"IPR001", "IPR002"}

    def test_byte_order_mark_is_not_part_of_the_first_attribute(self, tmp_path):
        directory = tmp_path / "bom"
        directory.mkdir()
        (directory / "entry.csv").write_bytes(b"\xef\xbb\xbfid,name\n1,Kinase\n")
        source = load_source_from_csv_dir(directory)
        assert source.table("entry").schema.attribute_names == ("id", "name")
        assert set(source.table("entry").column("id")) == {"1"}

    def test_iter_relation_rows_is_lazy(self, tmp_path):
        csv_path = tmp_path / "entry.csv"
        csv_path.write_text("entry_ac,name\nIPR001,Kinase\nIPR002,Zinc finger\n")
        stream = iter_relation_rows(csv_path)
        assert iter(stream) is stream  # a generator, not a materialized list
        assert next(stream)["entry_ac"] == "IPR001"
        header = read_relation_header(csv_path)
        assert header.attribute_names == ("entry_ac", "name")

    def test_streamed_batches_match_materialized_load(self, tmp_path, mini_catalog):
        out_dir = tmp_path / "interpro"
        save_source_to_csv_dir(mini_catalog.source("interpro"), out_dir)
        whole = load_source_from_csv_dir(out_dir)
        batched = load_source_from_csv_dir(out_dir, source_name="batched", batch_size=1)
        for table in whole:
            other = batched.table(table.schema.name)
            assert [tuple(r.values) for r in other.scan()] == [
                tuple(r.values) for r in table.scan()
            ]

    def test_stream_into_sqlite_backend(self, tmp_path, mini_catalog):
        out_dir = tmp_path / "interpro"
        save_source_to_csv_dir(mini_catalog.source("interpro"), out_dir)
        backend = SqliteBackend(":memory:")
        source = load_source_from_csv_dir(out_dir, backend=backend, batch_size=2)
        assert source.table("entry").storage_backend is backend
        assert backend.row_count("interpro.entry") == 2
        assert set(source.table("entry").column("entry_ac")) == {"IPR001", "IPR002"}
        backend.close()

    def test_bad_batch_size_rejected(self, tmp_path):
        empty = tmp_path / "dir"
        empty.mkdir()
        (empty / "r.csv").write_text("a\n1\n")
        with pytest.raises(DataError):
            load_source_from_csv_dir(empty, batch_size=0)

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(DataError):
            load_source_from_csv_dir(tmp_path / "nope")

    def test_load_empty_directory(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(DataError):
            load_source_from_csv_dir(empty)


class TestDictAndJsonIO:
    def test_source_dict_roundtrip(self, mini_catalog):
        source = mini_catalog.source("interpro")
        payload = source_to_dict(source)
        restored = source_from_dict(payload)
        assert restored.name == source.name
        assert restored.relation_count == source.relation_count
        assert restored.row_count == source.row_count
        assert len(restored.schema.foreign_keys) == len(source.schema.foreign_keys)

    def test_catalog_json_roundtrip(self, tmp_path, mini_catalog):
        path = save_catalog_json(mini_catalog, tmp_path / "catalog.json")
        loaded = load_catalog_json(path)
        assert loaded.source_count == mini_catalog.source_count
        assert set(loaded.relation("go.term").column("acc")) == {
            "GO:0001",
            "GO:0002",
            "GO:0003",
        }
