"""Unit tests for the schema matchers: metadata, MAD, value overlap, ensemble."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastore.database import DataSource
from repro.datastore.schema import RelationSchema
from repro.matching import (
    AttributeRef,
    Correspondence,
    DUMMY_LABEL,
    MadConfig,
    MadGraphConfig,
    MadMatcher,
    MatcherEnsemble,
    MetadataMatcher,
    MetadataMatcherConfig,
    ValueOverlapFilter,
    ValueOverlapMatcher,
    attribute_graph_node,
    build_column_value_graph,
    compute_walk_probabilities,
    group_correspondences,
    normalize_distribution,
    run_mad,
    top_y_per_attribute,
    value_graph_node,
)
from repro.profiling import CatalogProfileIndex


def column_value_graph(tables, config=None):
    """The MAD graph over ``tables``' attributes, read off a fresh profile index."""
    index = CatalogProfileIndex.from_tables(tables)
    profiles = [p for t in tables for p in index.profiles_of(t.schema.qualified_name)]
    return build_column_value_graph(profiles, config)


class TestCorrespondence:
    def test_key_is_order_independent(self):
        a = Correspondence(AttributeRef("r1", "x"), AttributeRef("r2", "y"), 0.9, "m")
        b = Correspondence(AttributeRef("r2", "y"), AttributeRef("r1", "x"), 0.7, "m")
        assert a.key() == b.key()

    def test_top_y_per_attribute(self):
        # A pair is kept when it is among the top-Y candidates of *either*
        # endpoint; the y–b pair below is the best of neither endpoint and
        # must be dropped at Y=1.
        corrs = [
            Correspondence(AttributeRef("r1", "x"), AttributeRef("r2", "a"), 0.9, "m"),
            Correspondence(AttributeRef("r1", "x"), AttributeRef("r2", "b"), 0.8, "m"),
            Correspondence(AttributeRef("r1", "y"), AttributeRef("r2", "a"), 0.85, "m"),
            Correspondence(AttributeRef("r1", "y"), AttributeRef("r2", "b"), 0.7, "m"),
        ]
        top1 = top_y_per_attribute(corrs, 1)
        assert {c.confidence for c in top1} == {0.9, 0.85, 0.8}
        top2 = top_y_per_attribute(corrs, 2)
        assert {c.confidence for c in top2} == {0.9, 0.85, 0.8, 0.7}
        assert top_y_per_attribute(corrs, 1, min_confidence=0.95) == []
        with pytest.raises(ValueError):
            top_y_per_attribute(corrs, 0)

    def test_merge_correspondences(self):
        corrs = [
            Correspondence(AttributeRef("r1", "x"), AttributeRef("r2", "a"), 0.9, "m1"),
            Correspondence(AttributeRef("r2", "a"), AttributeRef("r1", "x"), 0.6, "m2"),
            Correspondence(AttributeRef("r1", "x"), AttributeRef("r2", "a"), 0.5, "m1"),
        ]
        rows = list(group_correspondences(corrs))
        assert len(rows) == 1
        source, target, confidences = rows[0]
        assert (source, target) == (AttributeRef("r1", "x"), AttributeRef("r2", "a"))  # the first one seen
        assert confidences == {"m1": 0.9, "m2": 0.6}


class TestSharedRefs:
    def test_a_ref_reads_as_it_always_did(self):
        ref = AttributeRef("s.r", "a")
        assert ref == AttributeRef("s.r", "a") and ref != AttributeRef("s.r", "b")
        assert hash(ref) == hash(("s.r", "a"))
        assert repr(ref) == "AttributeRef(relation='s.r', attribute='a')"
        assert ref.qualified == "s.r.a" and str(ref) == "s.r.a"
        assert {ref: 1}[AttributeRef("s.r", "a")] == 1

    def test_a_schema_hands_out_its_refs_and_new_ones_once_rebound(self):
        schema = RelationSchema("r", ["a", "b"], source="s")
        refs = schema.attribute_refs
        assert refs == (AttributeRef("s.r", "a"), AttributeRef("s.r", "b"))
        assert schema.attribute_refs is refs
        schema.bind_source("s")
        assert schema.attribute_refs is refs  # the same binding keeps them
        schema.bind_source("t")
        rebound = schema.attribute_refs
        assert rebound == (AttributeRef("t.r", "a"), AttributeRef("t.r", "b"))
        assert [ref.qualified for ref in rebound] == ["t.r.a", "t.r.b"]

    def test_correspondences_carry_the_schemas_refs(self, mini_catalog):
        term = mini_catalog.relation("go.term")
        link = mini_catalog.relation("interpro.interpro2go")
        refs = {ref.qualified: ref for table in (term, link) for ref in table.schema.attribute_refs}
        matched = (
            MetadataMatcher(MetadataMatcherConfig(min_confidence=0.0)).match_relations(term, link)
            + ValueOverlapMatcher().match_relations(term, link)
            + MadMatcher().match_relations(term, link)
        )
        assert {c.matcher for c in matched} == {"metadata", "value_overlap", "mad"}
        for c in matched:
            assert c.source is refs[c.source.qualified] and c.target is refs[c.target.qualified]


class TestMetadataMatcher:
    @pytest.fixture()
    def matcher(self) -> MetadataMatcher:
        return MetadataMatcher()

    def test_identical_names_score_one(self, matcher):
        assert matcher.name_similarity("entry_ac", "entry_ac") == 1.0
        assert matcher.name_similarity("pub_id", "PubId") == 1.0

    def test_dissimilar_names_score_low(self, matcher):
        assert matcher.name_similarity("go_id", "acc") < 0.3

    def test_substring_containment_scores_high(self, matcher):
        assert matcher.name_similarity("title", "pub_title") > 0.5

    def test_empty_label(self, matcher):
        assert matcher.name_similarity("", "x") == 0.0

    def test_match_relations_counts_comparisons(self, matcher, mini_catalog):
        entry = mini_catalog.relation("interpro.entry")
        interpro2go = mini_catalog.relation("interpro.interpro2go")
        correspondences = matcher.match_relations(entry, interpro2go)
        assert matcher.counter.attribute_comparisons == 4
        assert matcher.counter.relation_pairs == 1
        pairs = {c.key() for c in correspondences}
        assert ("interpro.entry.entry_ac", "interpro.interpro2go.entry_ac") in pairs
        matcher.reset_counters()
        assert matcher.counter.attribute_comparisons == 0

    def test_same_relation_skipped(self, matcher, mini_catalog):
        entry = mini_catalog.relation("interpro.entry")
        assert matcher.match_relations(entry, entry) == []

    def test_confidences_in_unit_interval(self, matcher, mini_catalog):
        tables = mini_catalog.all_tables()
        for i, a in enumerate(tables):
            for b in tables[i + 1 :]:
                for c in matcher.match_relations(a, b):
                    assert 0.0 <= c.confidence <= 1.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MetadataMatcher(MetadataMatcherConfig(token_weight=0.9, jaro_winkler_weight=0.9))


class TestMadGraph:
    def test_column_value_graph_structure(self, mini_catalog):
        graph = column_value_graph(mini_catalog.all_tables())
        # acc and go_id share GO identifiers, so those value nodes survive pruning.
        shared_value = value_graph_node("GO:0001")
        assert shared_value in graph.value_nodes
        acc_node = attribute_graph_node("go.term", "acc")
        assert graph.degree(acc_node) >= 2
        assert graph.edge_count > 0

    def test_degree_one_values_pruned(self, mini_catalog):
        graph = column_value_graph(mini_catalog.all_tables())
        # "nucleus" appears only in go.term.name, hence is pruned.
        assert value_graph_node("nucleus") not in graph.value_nodes

    def test_pruning_can_be_disabled(self, mini_catalog):
        config = MadGraphConfig(prune_degree_one=False)
        graph = column_value_graph(mini_catalog.all_tables(), config)
        assert value_graph_node("nucleus") in graph.value_nodes

    def test_numeric_values_dropped(self):
        source = DataSource.build(
            "s",
            {"r1": ["a"], "r2": ["b"]},
            data={"r1": [{"a": "123"}, {"a": "shared"}], "r2": [{"b": "123"}, {"b": "shared"}]},
        )
        graph = column_value_graph(source.tables())
        assert value_graph_node("123") not in graph.value_nodes
        assert value_graph_node("shared") in graph.value_nodes

    def test_max_values_per_attribute(self, mini_catalog):
        config = MadGraphConfig(max_values_per_attribute=1, prune_degree_one=False)
        graph = column_value_graph(mini_catalog.all_tables(), config)
        acc_node = attribute_graph_node("go.term", "acc")
        assert graph.degree(acc_node) <= 1


class TestMadAlgorithm:
    def test_walk_probabilities_sum_to_one(self, mini_catalog):
        graph = column_value_graph(mini_catalog.all_tables())
        seeds = set(graph.attribute_nodes)
        probabilities = compute_walk_probabilities(graph, seeds)
        for node, prob in probabilities.items():
            total = prob.p_inj + prob.p_cont + prob.p_abnd
            assert total == pytest.approx(1.0, abs=1e-6)
            assert prob.p_inj >= 0 and prob.p_cont >= 0 and prob.p_abnd >= 0

    def test_isolated_node_gets_full_injection(self):
        from repro.matching.mad_graph import PropagationGraph

        graph = PropagationGraph()
        graph.weights["lonely"] = {}
        probabilities = compute_walk_probabilities(graph, {"lonely"})
        assert probabilities["lonely"].p_inj == 1.0

    def test_labels_propagate_through_shared_values(self, mini_catalog):
        graph = column_value_graph(mini_catalog.all_tables())
        seeds = {node: {node: 1.0} for node in graph.attribute_nodes}
        estimates = run_mad(graph, seeds, MadConfig(max_iterations=3))
        acc_node = attribute_graph_node("go.term", "acc")
        go_id_node = attribute_graph_node("interpro.interpro2go", "go_id")
        # After propagation the acc column should carry the go_id label.
        assert estimates[acc_node].get(go_id_node, 0.0) > 0.0

    def test_dummy_label_present(self, mini_catalog):
        graph = column_value_graph(mini_catalog.all_tables())
        seeds = {node: {node: 1.0} for node in graph.attribute_nodes}
        estimates = run_mad(graph, seeds, MadConfig(max_iterations=2))
        assert any(DUMMY_LABEL in dist for dist in estimates.values())

    def test_normalize_distribution(self):
        dist = {"a": 2.0, "b": 2.0, DUMMY_LABEL: 6.0}
        normalized = normalize_distribution(dist)
        assert normalized == {"a": 0.5, "b": 0.5}
        assert normalize_distribution({DUMMY_LABEL: 1.0}) == {}
        assert normalize_distribution({}) == {}

    def test_convergence_tolerance_stops_early(self, mini_catalog):
        graph = column_value_graph(mini_catalog.all_tables())
        seeds = {node: {node: 1.0} for node in graph.attribute_nodes}
        # Very loose tolerance: a single iteration should be enough to stop.
        loose = run_mad(graph, seeds, MadConfig(max_iterations=50, tolerance=1e9))
        assert loose  # simply completes quickly and returns distributions


class TestMadMatcher:
    def test_finds_instance_level_synonyms(self, mini_catalog):
        matcher = MadMatcher()
        correspondences = matcher.match_tables(mini_catalog.all_tables())
        pairs = {c.key() for c in correspondences}
        assert ("go.term.acc", "interpro.interpro2go.go_id") in pairs

    def test_pairwise_interface_restricts_to_two_relations(self, mini_catalog):
        matcher = MadMatcher()
        term = mini_catalog.relation("go.term")
        interpro2go = mini_catalog.relation("interpro.interpro2go")
        correspondences = matcher.match_relations(term, interpro2go)
        for c in correspondences:
            assert {c.source.relation, c.target.relation} == {"go.term", "interpro.interpro2go"}
        assert matcher.counter.relation_pairs == 1

    def test_same_relation_returns_empty(self, mini_catalog):
        matcher = MadMatcher()
        term = mini_catalog.relation("go.term")
        assert matcher.match_relations(term, term) == []

    def test_confidence_bounds(self, mini_catalog):
        matcher = MadMatcher()
        for c in matcher.match_tables(mini_catalog.all_tables()):
            assert 0.0 < c.confidence <= 1.0


class TestValueOverlap:
    def test_matcher_scores_containment(self, mini_catalog):
        matcher = ValueOverlapMatcher()
        entry = mini_catalog.relation("interpro.entry")
        interpro2go = mini_catalog.relation("interpro.interpro2go")
        correspondences = matcher.match_relations(entry, interpro2go)
        pairs = {c.key(): c.confidence for c in correspondences}
        key = ("interpro.entry.entry_ac", "interpro.interpro2go.entry_ac")
        assert pairs[key] == pytest.approx(1.0)

    def test_min_shared_values_below_one_rejected(self):
        # Posting-list candidates are exact only for pairs sharing a value.
        with pytest.raises(ValueError):
            ValueOverlapMatcher(min_shared_values=0)

    def test_filter_allows_only_overlapping_pairs(self, mini_catalog):
        tables = mini_catalog.all_tables()
        overlap_filter = ValueOverlapFilter.from_tables(tables)
        assert overlap_filter.allows("go.term", "acc", "interpro.interpro2go", "go_id")
        assert not overlap_filter.allows("go.term", "name", "interpro.pub", "pub_id")

    def test_filter_counts_fewer_pairs_than_cartesian(self, mini_catalog):
        tables = mini_catalog.all_tables()
        overlap_filter = ValueOverlapFilter.from_tables(tables)
        term = mini_catalog.relation("go.term")
        interpro2go = mini_catalog.relation("interpro.interpro2go")
        cartesian = len(term.schema.attribute_names) * len(interpro2go.schema.attribute_names)
        assert overlap_filter.comparable_pairs(term, interpro2go) < cartesian


class TestEnsemble:
    def test_requires_matchers(self):
        with pytest.raises(ValueError):
            MatcherEnsemble([])

    def test_combines_confidences_per_pair(self, mini_catalog):
        ensemble = MatcherEnsemble([MetadataMatcher(), MadMatcher()], top_y=2)
        alignments = ensemble.match_tables(mini_catalog.all_tables())
        by_key = {a.key(): a for a in alignments}
        entry_pair = ("interpro.entry.entry_ac", "interpro.interpro2go.entry_ac")
        assert entry_pair in by_key
        confidences = by_key[entry_pair].confidences
        assert "metadata" in confidences and "mad" in confidences
        alignment = by_key[entry_pair]
        assert 0.0 < alignment.average_confidence <= alignment.max_confidence <= 1.0

    def test_mad_only_pair_survives_top_y(self, mini_catalog):
        ensemble = MatcherEnsemble([MetadataMatcher(), MadMatcher()], top_y=2)
        alignments = ensemble.match_tables(mini_catalog.all_tables())
        keys = {a.key() for a in alignments}
        assert ("go.term.acc", "interpro.interpro2go.go_id") in keys

    def test_counters_reset(self, mini_catalog):
        matcher = MetadataMatcher()
        ensemble = MatcherEnsemble([matcher])
        ensemble.match_relations(
            mini_catalog.relation("interpro.entry"), mini_catalog.relation("interpro.pub")
        )
        assert ensemble.total_attribute_comparisons > 0
        ensemble.reset_counters()
        assert ensemble.total_attribute_comparisons == 0
