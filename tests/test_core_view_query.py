"""Unit tests for query generation from trees, ranked views, and the service session."""

from __future__ import annotations

import pytest

from repro.api import QService, RegisterSourceRequest, ServiceConfig
from repro.core import (
    GoldStandard,
    QueryGenerator,
    RankedView,
    gold_target_tree,
    simulated_feedback_for_view,
    tree_signature,
)
from repro.datastore.database import DataSource
from repro.exceptions import QError, RegistrationError
from repro.graph import QueryGraphBuilder, SearchGraph
from repro.learning import AnnotationKind
from repro.matching import MetadataMatcher
from repro.profiling import CatalogProfileIndex
from repro.steiner import k_best_steiner_trees


@pytest.fixture()
def expanded(mini_catalog, mini_graph):
    builder = QueryGraphBuilder(mini_catalog, CatalogProfileIndex.from_catalog(mini_catalog))
    return builder.expand(mini_graph, ["membrane", "title"])


class TestQueryGenerator:
    def test_tree_to_query(self, mini_catalog, expanded):
        trees = k_best_steiner_trees(expanded.graph, expanded.terminals, 1)
        generated = QueryGenerator(expanded.graph).generate(trees[0])
        query = generated.query
        query.validate()
        assert query.cost == pytest.approx(trees[0].cost)
        relations = set(query.relations())
        assert "go.term" in relations
        # the selection carries the matched value
        assert any(s.value == "plasma membrane" for s in query.selections)
        assert generated.signature == tree_signature(trees[0])

    def test_generate_all_skips_failures(self, mini_catalog, expanded):
        trees = k_best_steiner_trees(expanded.graph, expanded.terminals, 3)
        generated = QueryGenerator(expanded.graph).generate_all(trees)
        assert 1 <= len(generated) <= 3
        signatures = {g.signature for g in generated}
        assert len(signatures) == len(generated)

    def test_signature_is_stable(self, expanded):
        trees = k_best_steiner_trees(expanded.graph, expanded.terminals, 1)
        assert tree_signature(trees[0]) == tree_signature(trees[0])


class TestRankedView:
    def test_refresh_produces_ranked_answers(self, mini_catalog, mini_graph):
        view = RankedView(["membrane", "title"], mini_catalog, mini_graph, k=3)
        state = view.refresh()
        assert state.trees
        assert state.queries
        assert view.alpha is not None and view.alpha > 0
        costs = [a.cost for a in view.answers()]
        assert costs == sorted(costs)

    def test_answers_have_provenance(self, mini_catalog, mini_graph):
        view = RankedView(["membrane", "title"], mini_catalog, mini_graph, k=3)
        view.refresh()
        for answer in view.answers():
            assert answer.provenance is not None
            assert answer.provenance.query_id.startswith("tree:")

    def test_uses_relation(self, mini_catalog, mini_graph):
        view = RankedView(["membrane", "title"], mini_catalog, mini_graph, k=3)
        view.refresh()
        assert view.uses_relation("go.term")
        assert not view.uses_relation("not.there")

    def test_annotation_roundtrip(self, mini_catalog, mini_graph):
        view = RankedView(["membrane", "title"], mini_catalog, mini_graph, k=3)
        view.refresh()
        answers = view.answers()
        assert answers, "the mini catalog should produce at least one answer"
        event = view.annotate(answers[0], AnnotationKind.VALID)
        assert event.terminals == view.terminals
        assert event.target_tree.edge_ids

    def test_rebuild_query_graph_picks_up_new_sources(self, mini_catalog, mini_graph):
        view = RankedView(["membrane", "title"], mini_catalog, mini_graph, k=3)
        view.refresh()
        new_source = DataSource.build(
            "extra", {"info": ["acc", "comment"]}, data={"info": [{"acc": "GO:0001", "comment": "x"}]}
        )
        mini_catalog.add_source(new_source)
        mini_graph.add_source(new_source)
        view.builder = QueryGraphBuilder(mini_catalog, CatalogProfileIndex.from_catalog(mini_catalog))
        view.refresh()
        assert view.query_graph.graph.has_node("rel:extra.info")

    def test_a_priced_twin_reads_without_profiling_the_catalog(self, mini_catalog, mini_graph):
        """A twin never expands, so a snapshot or tenant read neither pays for
        nor races on a profile of the whole catalog."""
        view = RankedView(["membrane", "title"], mini_catalog, mini_graph, k=3)
        answers = list(view.stream_answers())
        assert view.builder is not None  # a builder-less view profiles on its first expansion
        twin = RankedView.priced_twin(view.query_graph, mini_graph.weights, view.keywords, mini_catalog, k=3)
        assert [a.cost for a in twin.stream_answers()] == [a.cost for a in answers]
        assert twin.builder is None

    def test_a_moved_base_graph_is_re_expanded_by_the_next_pull(self, mini_catalog, mini_graph):
        """The view keeps its own ledger: no caller says the structure moved."""
        view = RankedView(["membrane", "title"], mini_catalog, mini_graph, k=3)
        before = list(view.stream_answers())
        assert view.expanded_at == mini_graph.structure_version and view.expansion_is_current
        expansion = view.query_graph
        list(view.stream_answers())
        assert view.query_graph is expansion  # nothing moved: nothing re-expanded

        new_source = DataSource.build(
            "extra", {"info": ["acc", "comment"]}, data={"info": [{"acc": "GO:0001", "comment": "x"}]}
        )
        mini_catalog.add_source(new_source)
        mini_graph.add_source(new_source)
        view.builder = QueryGraphBuilder(mini_catalog, CatalogProfileIndex.from_catalog(mini_catalog))
        assert not view.expansion_is_current and view.current_ranking() is None
        after = list(view.stream_answers())
        assert view.query_graph is not expansion
        assert view.query_graph.graph.has_node("rel:extra.info")
        assert view.expanded_at == mini_graph.structure_version
        assert view.last_refresh.solver_runs == 1
        assert [a.values for a in after] == [a.values for a in before]  # the new source joins nothing
        # The rebuilt expansion generates the same queries over unchanged
        # tables, so every answer replays from the engine context.
        assert view.last_refresh.queries_executed == 0
        assert view.last_refresh.queries_reused == len(view.state.queries) > 0
        rebuilt = view.query_graph
        assert view.answers_page(limit=2) == view.answers()[:2] and view.query_graph is rebuilt


class TestSimulatedFeedback:
    def test_gold_tree_uses_only_gold_associations(self, mini_catalog, mini_graph):
        gold = GoldStandard.from_pairs([("go.term.acc", "interpro.interpro2go.go_id")])
        # add a non-gold association that must be excluded
        mini_graph.add_association("go.term", "name", "interpro.pub", "title", {"mad": 0.9})
        builder = QueryGraphBuilder(mini_catalog, CatalogProfileIndex.from_catalog(mini_catalog))
        expanded = builder.expand(mini_graph, ["membrane", "IPR001"])
        tree = gold_target_tree(expanded.graph, expanded.terminals, gold)
        assert tree is not None
        from repro.core.evaluation import edge_attribute_pair
        from repro.graph import EdgeKind

        for edge in tree.edges(expanded.graph):
            if edge.kind is EdgeKind.ASSOCIATION:
                assert edge_attribute_pair(expanded.graph, edge) in gold.pairs

    def test_unreachable_gold_returns_none(self, mini_catalog, mini_graph):
        gold = GoldStandard.from_pairs([("x.y.z", "a.b.c")])  # no usable association
        # Remove the only cross-source association so go.term is unreachable
        # from interpro through gold edges alone... but FK edges remain, so use
        # keywords that require the association edge.
        for edge in list(mini_graph.association_edges()):
            mini_graph.remove_edge(edge.edge_id)
        builder = QueryGraphBuilder(mini_catalog, CatalogProfileIndex.from_catalog(mini_catalog))
        expanded = builder.expand(mini_graph, ["membrane", "title"])
        tree = gold_target_tree(expanded.graph, expanded.terminals, gold)
        assert tree is None


class TestQSystem:
    @pytest.fixture()
    def system(self, interpro_go_dataset):
        return QService(
            sources=interpro_go_dataset.catalog.sources(),
            config=ServiceConfig(top_k=3, top_y=2),
        )

    @staticmethod
    def _create_view(system, keywords):
        return system.view(system.create_view(keywords).view_id)

    @staticmethod
    def _register(system, source, **request):
        return system.register_source(
            RegisterSourceRequest(source=source, **request)
        ).alignment

    def test_bootstrap_installs_associations(self, system):
        correspondences = system.bootstrap_alignments(top_y=2)
        assert correspondences
        assert system.graph.association_edges()

    def test_create_view_and_alpha(self, system):
        system.bootstrap_alignments(top_y=2)
        view = self._create_view(system, ["membrane", "title"])
        assert view.alpha is not None
        assert "membrane title" in system.views

    def test_register_source_exhaustive(self, system):
        system.bootstrap_alignments(top_y=2)
        new_source = DataSource.build(
            "mirna",
            {"target": ["entry_ac", "mirna_id"]},
            data={"target": [{"entry_ac": "IPR000001", "mirna_id": "MIR1"}]},
        )
        result = self._register(system, new_source, strategy="exhaustive")
        assert result.strategy == "exhaustive"
        assert system.catalog.has_source("mirna")
        assert result.attribute_comparisons > 0

    def test_register_source_view_based_requires_view(self, system):
        new_source = DataSource.build("x", {"r": ["a"]})
        with pytest.raises(RegistrationError):
            self._register(system, new_source, strategy="view_based")

    def test_register_source_view_based(self, system):
        system.bootstrap_alignments(top_y=2)
        view = self._create_view(system, ["membrane", "title"])
        new_source = DataSource.build(
            "mirna2",
            {"target": ["entry_ac", "mirna_id"]},
            data={"target": [{"entry_ac": "IPR000001", "mirna_id": "MIR1"}]},
        )
        result = self._register(system, new_source, strategy="view_based", view=view)
        assert result.strategy == "view_based"
        exhaustive_candidates = system.catalog.relation_count - 1
        assert len(result.candidate_relations) <= exhaustive_candidates

    def test_register_source_preferential(self, system):
        system.bootstrap_alignments(top_y=2)
        new_source = DataSource.build(
            "mirna3", {"target": ["entry_ac"]}, data={"target": [{"entry_ac": "IPR000001"}]}
        )
        result = self._register(
            system, new_source, strategy="preferential", max_relations=2
        )
        assert len(result.candidate_relations) == 2

    def test_unknown_strategy(self, system):
        new_source = DataSource.build("y", {"r": ["a"]})
        with pytest.raises(QError):
            self._register(system, new_source, strategy="nope")

    def test_feedback_changes_costs(self, system, interpro_go_dataset):
        system.bootstrap_alignments(top_y=2)
        view = self._create_view(system, ["membrane", "title"])
        event = simulated_feedback_for_view(view, interpro_go_dataset.gold)
        assert event is not None
        weights_before = system.graph.weights.as_dict()
        system.apply_feedback_events(view, [event], repetitions=1)
        assert system.graph.weights.as_dict() != weights_before
        assert len(system.feedback_log) == 1
