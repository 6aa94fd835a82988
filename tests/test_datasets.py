"""Tests for the InterPro–GO-like, GBCO-like and synthetic datasets."""

from __future__ import annotations

import pytest
from reference_values import attribute_values, catalog_cells

from repro.datasets import (
    DEFAULT_KEYWORD_QUERIES,
    GBCO_RELATIONS,
    GOLD_EDGES,
    QUERY_LOG,
    build_gbco,
    build_interpro_go,
    grow_catalog_and_graph,
    total_attribute_count,
)
from repro.graph import SearchGraph


class TestInterproGoDataset:
    def test_shape_matches_paper(self, interpro_go_dataset):
        catalog = interpro_go_dataset.catalog
        assert catalog.relation_count == 8
        assert catalog.attribute_count == 28
        assert len(interpro_go_dataset.gold) == 8
        assert len(GOLD_EDGES) == 8

    def test_generation_is_deterministic(self):
        a = build_interpro_go(seed=7)
        b = build_interpro_go(seed=7)
        table_a = a.catalog.relation("interpro.pub")
        table_b = b.catalog.relation("interpro.pub")
        assert [r.values for r in table_a] == [r.values for r in table_b]

    def test_gold_pairs_reference_existing_attributes(self, interpro_go_dataset):
        catalog = interpro_go_dataset.catalog
        for a, b in GOLD_EDGES:
            for qualified in (a, b):
                source, relation, attribute = qualified.split(".")
                table = catalog.relation(f"{source}.{relation}")
                assert table.schema.has_attribute(attribute), qualified

    def test_gold_edges_have_value_overlap(self, interpro_go_dataset):
        """Every gold pair must share values, otherwise MAD could never find it."""
        values = attribute_values(interpro_go_dataset.catalog)
        for a, b in GOLD_EDGES:
            rel_a, attr_a = a.rsplit(".", 1)
            rel_b, attr_b = b.rsplit(".", 1)
            assert values[(rel_a, attr_a)] & values[(rel_b, attr_b)], (a, b)

    def test_name_dissimilar_gold_edge_exists(self):
        """At least one gold edge must be undetectable by name similarity alone
        (acc vs go_id) — that is what separates MAD from the metadata matcher."""
        from repro.matching import MetadataMatcher

        matcher = MetadataMatcher()
        assert matcher.name_similarity("acc", "go_id") < matcher.config.min_confidence

    def test_keyword_queries_have_two_terms(self):
        assert all(len(q) == 2 for q in DEFAULT_KEYWORD_QUERIES)
        assert len(DEFAULT_KEYWORD_QUERIES) == 10

    def test_foreign_keys_optional(self):
        without = build_interpro_go(include_foreign_keys=False)
        with_fk = build_interpro_go(include_foreign_keys=True)
        assert not without.interpro.schema.foreign_keys
        assert with_fk.interpro.schema.foreign_keys


class TestGbcoDataset:
    def test_shape_matches_paper(self, gbco_dataset):
        assert gbco_dataset.catalog.source_count == 18
        assert gbco_dataset.catalog.attribute_count == 187
        assert total_attribute_count() == 187
        assert len(GBCO_RELATIONS) == 18

    def test_query_log_introduces_40_sources(self, gbco_dataset):
        assert len(QUERY_LOG) == 16
        assert gbco_dataset.total_new_source_introductions == 40

    def test_query_log_references_valid_relations(self, gbco_dataset):
        valid = {f"{name}.{name}" for name in GBCO_RELATIONS}
        for entry in QUERY_LOG:
            for relation in entry.base_relations + entry.new_relations:
                assert relation in valid
            assert not (set(entry.base_relations) & set(entry.new_relations))

    def test_base_and_new_relations_share_values(self, gbco_dataset):
        """Each trial's new sources must be joinable with its base relations
        through at least one shared value domain, otherwise registering them
        could never affect the view."""
        values = attribute_values(gbco_dataset.catalog)
        for entry in QUERY_LOG:
            found_overlap = False
            for base in entry.base_relations:
                base_table = gbco_dataset.catalog.relation(base)
                for new in entry.new_relations:
                    new_table = gbco_dataset.catalog.relation(new)
                    for attr_a in base_table.schema.attribute_names:
                        for attr_b in new_table.schema.attribute_names:
                            if values.get((base, attr_a), set()) & values.get((new, attr_b), set()):
                                found_overlap = True
            assert found_overlap, entry

    def test_keywords_match_some_data_or_schema(self, gbco_dataset):
        cell_values = {value.lower() for *_, value in catalog_cells(gbco_dataset.catalog)}
        all_attribute_tokens = set()
        for name, attrs in GBCO_RELATIONS.items():
            all_attribute_tokens.add(name)
            all_attribute_tokens.update(a for a in attrs)
        for entry in QUERY_LOG:
            for keyword in entry.keywords:
                in_schema = any(keyword in token for token in all_attribute_tokens)
                in_values = any(keyword.lower() in value for value in cell_values)
                assert in_schema or in_values, keyword


class TestSyntheticGrowth:
    def test_grow_to_target_size(self, gbco_dataset):
        catalog = build_gbco(rows_per_relation=5).catalog
        graph = SearchGraph()
        graph.add_catalog(catalog)
        result = grow_catalog_and_graph(catalog, graph, target_source_count=30, seed=1)
        assert catalog.source_count == 30
        assert len(result.added_sources) == 12
        # every added source is in the graph with two attribute nodes
        for name in result.added_sources:
            assert graph.has_node(f"rel:{name}.{name}")
            assert len(graph.attribute_nodes_of(f"{name}.{name}")) == 2

    def test_growth_adds_associations_at_average_cost(self):
        catalog = build_gbco(rows_per_relation=5).catalog
        graph = SearchGraph()
        graph.add_catalog(catalog)
        graph.add_association("gene.gene", "gene_id", "transcript.transcript", "gene_id", {"m": 0.5})
        before = len(graph.association_edges())
        result = grow_catalog_and_graph(catalog, graph, target_source_count=20, seed=2)
        added_edges = len(graph.association_edges()) - before
        assert added_edges >= 2  # two per synthetic source
        assert result.average_edge_cost > 0

    def test_no_growth_needed(self):
        catalog = build_gbco(rows_per_relation=5).catalog
        graph = SearchGraph()
        graph.add_catalog(catalog)
        result = grow_catalog_and_graph(catalog, graph, target_source_count=10, seed=3)
        assert result.added_sources == []
