"""Unit tests for the value index and the CSV / JSON IO helpers."""

from __future__ import annotations

import pytest

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
from repro.datastore.indexes import ValueIndex
from repro.exceptions import DataError
from repro.storage import SqliteBackend


class TestValueIndex:
    @pytest.fixture()
    def index(self, mini_catalog) -> ValueIndex:
        return ValueIndex.from_catalog(mini_catalog)

    def test_exact_lookup(self, index):
        occurrences = index.lookup("GO:0001")
        relations = {o.relation for o in occurrences}
        assert relations == {"go.term", "interpro.interpro2go"}

    def test_lookup_missing(self, index):
        assert index.lookup("NOPE") == ()
        assert index.lookup("") == ()

    def test_substring_lookup(self, index):
        occurrences = index.lookup_substring("membrane")
        assert any(o.value == "plasma membrane" for o in occurrences)

    def test_substring_limit(self, index):
        assert len(index.lookup_substring("GO:", limit=2)) == 2

    def test_attribute_values(self, index):
        values = index.attribute_values("go.term", "acc")
        assert values == {"GO:0001", "GO:0002", "GO:0003"}

    def test_attributes_with_value(self, index):
        pairs = index.attributes_with_value("IPR001")
        assert ("interpro.entry", "entry_ac") in pairs
        assert ("interpro.interpro2go", "entry_ac") in pairs

    def test_overlap(self, index):
        assert index.overlap("go.term", "acc", "interpro.interpro2go", "go_id") == 2
        assert index.has_overlap("go.term", "acc", "interpro.interpro2go", "go_id")
        assert not index.has_overlap("go.term", "name", "interpro.pub", "pub_id")

    def test_distinct_count_positive(self, index):
        assert index.distinct_value_count > 5
        assert ("go.term", "acc") in index.indexed_attributes()

    def test_remembered_substring_postings_read_as_a_scan(self, mini_catalog):
        """A needle's posting is kept across indexing and forgotten on removal:
        every lookup equals a scan of the index as it stands, limit included.
        The new source repeats an old value (its posting must not move) and
        adds new ones (they go last)."""

        def scanned(index, needle, limit=None):
            found = [o for value, held in index._occurrences.items() if needle in value.lower() for o in held]
            return tuple(found if limit is None else found[:limit])

        kept = ValueIndex.from_catalog(mini_catalog)
        needles = ("go:", "membrane", "ipr", "zzz")
        extra = DataSource.build(
            "extra",
            {"notes": ["acc", "text"]},
            data={"notes": [
                {"acc": "GO:0003", "text": "membrane transport"},
                {"acc": "GO:0009", "text": "outer membrane"},
                {"acc": "IPR777", "text": "zzz"},
            ]},
        )

        def check():
            for needle in needles:
                for limit in (None, 1, 3):
                    assert kept.lookup_substring(needle.upper(), limit=limit) == scanned(kept, needle, limit)

        check()
        assert set(kept._postings) == set(needles)
        kept.index_source(extra)
        assert kept._postings["membrane"][-2:] == ["membrane transport", "outer membrane"]
        check()
        kept.remove_source("go")
        assert not kept._postings
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
        assert loaded.table("entry").distinct_values("entry_ac") == {"IPR001", "IPR002"}

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
        assert source.table("entry").distinct_values("entry_ac") == {"IPR001", "IPR002"}
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
        assert loaded.relation("go.term").distinct_values("acc") == {
            "GO:0001",
            "GO:0002",
            "GO:0003",
        }
