"""Unit tests for the profiling subsystem (profiles + CatalogProfileIndex)."""

from __future__ import annotations

import pytest
from reference_values import attribute_values

from repro.datastore.database import Catalog, DataSource
from repro.profiling import (
    AttributeProfile,
    CatalogProfileIndex,
    profile_table,
)


@pytest.fixture()
def index(mini_catalog) -> CatalogProfileIndex:
    return CatalogProfileIndex.from_catalog(mini_catalog)


class TestProfileTable:
    def test_attribute_profiles_match_table_state(self, mini_catalog):
        table = mini_catalog.relation("go.term")
        relation_profile, attributes = profile_table(table)
        assert relation_profile.relation == "go.term"
        assert relation_profile.attribute_names == ("acc", "name")
        acc = attributes["acc"]
        assert acc.distinct_values == attribute_values(mini_catalog)[("go.term", "acc")]
        assert acc.row_count == len(table)
        assert acc.non_null_count == 3
        assert acc.distinct_count == 3
        assert acc.selectivity == 1.0
        assert "acc" in acc.name_tokens

    def test_value_tokens_cover_cell_tokens(self, mini_catalog):
        table = mini_catalog.relation("go.term")
        _, attributes = profile_table(table)
        assert "membrane" in attributes["name"].value_tokens
        assert "kinase" in attributes["name"].value_tokens

    def test_name_token_union_is_sibling_union(self, mini_catalog):
        table = mini_catalog.relation("interpro.interpro2go")
        relation_profile, attributes = profile_table(table)
        union = set()
        for profile in attributes.values():
            union |= profile.name_tokens
        assert relation_profile.name_token_union == union


class TestCatalogProfileIndex:
    def test_counts(self, mini_catalog, index):
        assert index.relation_count == mini_catalog.relation_count
        assert index.attribute_count == mini_catalog.attribute_count
        assert index.has_relation("go.term")
        assert not index.has_relation("nope.nope")

    def test_overlap_parity_with_brute_force(self, mini_catalog, index):
        values = attribute_values(mini_catalog)
        attrs = [
            (t.schema.qualified_name, a)
            for t in mini_catalog.all_tables()
            for a in t.schema.attribute_names
        ]
        for rel_a, attr_a in attrs:
            for rel_b, attr_b in attrs:
                expected = values.get((rel_a, attr_a), set()) & values.get((rel_b, attr_b), set())
                assert index.overlap(rel_a, attr_a, rel_b, attr_b) == len(expected)

    def test_value_candidates_match_bruteforce(self, mini_catalog, index):
        values = attribute_values(mini_catalog)
        tables = mini_catalog.all_tables()
        for table in tables:
            relation = table.schema.qualified_name
            for attribute in table.schema.attribute_names:
                expected = {}
                mine = values.get((relation, attribute), set())
                for other in tables:
                    other_relation = other.schema.qualified_name
                    for other_attr in other.schema.attribute_names:
                        if (other_relation, other_attr) == (relation, attribute):
                            continue
                        shared = len(mine & values.get((other_relation, other_attr), set()))
                        if shared:
                            expected[(other_relation, other_attr)] = shared
                assert index.value_candidates(relation, attribute) == expected

    def test_candidate_cache_revalidates_on_epoch(self, mini_catalog, index):
        first = index.value_candidates("go.term", "acc")
        assert index.value_candidates("go.term", "acc") is first  # memo hit
        extra = DataSource.build(
            "extra", {"t": ["go_ref"]}, data={"t": [{"go_ref": "GO:0001"}]}
        )
        index.index_source(extra)
        second = index.value_candidates("go.term", "acc")
        assert ("extra.t", "go_ref") in second

    def test_comparable_pair_count_matches_nested_loop(self, mini_catalog, index):
        tables = mini_catalog.all_tables()
        for min_shared in (1, 2):
            for table_a in tables:
                for table_b in tables:
                    if table_a is table_b:
                        continue
                    rel_a = table_a.schema.qualified_name
                    rel_b = table_b.schema.qualified_name
                    expected = 0
                    for attr_a in table_a.schema.attribute_names:
                        for attr_b in table_b.schema.attribute_names:
                            if index.overlap(rel_a, attr_a, rel_b, attr_b) >= min_shared:
                                expected += 1
                    assert (
                        index.comparable_pair_count(rel_a, rel_b, min_shared) == expected
                    )

    def test_remove_source_equals_fresh_build(self, mini_catalog):
        full = CatalogProfileIndex.from_catalog(mini_catalog)
        full.remove_source("interpro")
        fresh = CatalogProfileIndex.from_tables(
            mini_catalog.source("go").tables()
        )
        assert full.relation_count == fresh.relation_count
        assert full.attribute_count == fresh.attribute_count
        assert full.distinct_value_count == fresh.distinct_value_count
        assert not full.has_relation("interpro.entry")
        assert full.value_candidates("go.term", "acc") == fresh.value_candidates(
            "go.term", "acc"
        )

    def test_reindexing_a_mutated_table_replaces_the_profile(self, mini_catalog, index):
        table = mini_catalog.relation("go.term")
        assert index.is_current(table)
        table.append({"acc": "GO:0009", "name": "ribosome"})
        assert not index.is_current(table)
        index.index_table(table)
        assert index.is_current(table)
        assert "go:0009" in {
            v.lower() for v in index.profile("go.term", "acc").distinct_values
        }

    def test_epoch_moves_on_every_structural_change(self, index, mini_catalog):
        before = index.epoch
        extra = DataSource.build("x", {"t": ["a"]}, data={"t": [{"a": "1"}]})
        index.index_source(extra)
        assert index.epoch > before
        mid = index.epoch
        index.remove_source("x")
        assert index.epoch > mid


class TestTfIdfVectors:
    # Token postings are stored state: the rare-token tier reads them
    # through the router, this reads them back through the accessor.
    def test_token_postings_and_document_frequency_agree(self, index):
        postings = index.token_postings("membrane")
        assert ("go.term", "name") in postings
        assert index.token_postings("no_such_token") == ()


