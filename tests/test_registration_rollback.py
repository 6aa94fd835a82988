"""Registration atomicity: maintained indexes, graph rollback, batch ingest."""

from __future__ import annotations

import pytest
from reference_values import reference_value_cells

from repro.alignment import ExhaustiveAligner, SourceRegistrar
from repro.alignment.base import BaseAligner
from repro.api import QService, RegisterSourceRequest
from repro.datastore.csvio import source_from_dict, source_to_dict
from repro.datastore.database import Catalog, DataSource
from repro.exceptions import RegistrationError, SchemaError
from repro.graph import QueryGraphBuilder, SearchGraph
from repro.matching import MetadataMatcher
from repro.profiling import CatalogProfileIndex


class _ExplodingAligner(BaseAligner):
    strategy_name = "exploding"

    def candidate_relations(self, graph, catalog, new_source):
        raise RuntimeError("boom")


class _GhostCandidateAligner(ExhaustiveAligner):
    """Proposes a relation the catalog does not hold beside the real ones."""

    def candidate_relations(self, graph, catalog, new_source):
        return ["ghost.rel", *super().candidate_relations(graph, catalog, new_source)]


@pytest.fixture()
def new_source() -> DataSource:
    return DataSource.build(
        "newdb",
        {"xref": ["entry_ac", "go_ref", "score"]},
        data={
            "xref": [
                {"entry_ac": "IPR001", "go_ref": "GO:0001", "score": "1"},
                {"entry_ac": "IPR002", "go_ref": "GO:0002", "score": "2"},
            ]
        },
    )


class TestSearchGraphRemoval:
    def test_remove_node_drops_incident_edges(self, mini_catalog, mini_graph):
        node_id = mini_graph.attribute_nodes()[0].node_id
        incident = len(mini_graph.edges_of(node_id))
        assert incident > 0
        edges_before = mini_graph.edge_count
        mini_graph.remove_node(node_id)
        assert not mini_graph.has_node(node_id)
        assert mini_graph.edge_count == edges_before - incident

    def test_remove_source_is_inverse_of_add_source(self, mini_graph, new_source):
        nodes_before = mini_graph.node_count
        edges_before = mini_graph.edge_count
        mini_graph.add_source(new_source)
        assert mini_graph.node_count > nodes_before
        mini_graph.remove_source("newdb")
        assert mini_graph.node_count == nodes_before
        assert mini_graph.edge_count == edges_before
        assert not mini_graph.has_node("rel:newdb.xref")


class TestIncrementalIndexes:
    def test_value_index_remove_source_equals_fresh_build(self, mini_catalog, new_source):
        grown = CatalogProfileIndex.from_catalog(mini_catalog)
        mini_catalog.add_source(new_source)
        grown.index_source(new_source)
        builder = QueryGraphBuilder(mini_catalog, grown)
        assert _attributes_holding(builder, "GO:0001") >= {("newdb.xref", "go_ref"), ("go.term", "acc")}
        mini_catalog.remove_source("newdb")
        grown.remove_source("newdb")
        builder.remove_source(new_source)
        fresh = CatalogProfileIndex.from_catalog(mini_catalog)
        for table in mini_catalog.all_tables():
            relation = table.schema.qualified_name
            for attr in table.schema.attribute_names:
                assert grown.profile(relation, attr) == fresh.profile(relation, attr)
        assert grown.distinct_value_count == fresh.distinct_value_count
        assert grown.profile("newdb.xref", "go_ref") is None
        assert builder._value_cells("GO:0001") == reference_value_cells(mini_catalog, "GO:0001", 25)

    def test_builder_add_then_remove_source_restores_state(self, mini_catalog, new_source):
        profile_index = CatalogProfileIndex.from_catalog(mini_catalog)
        builder = QueryGraphBuilder(mini_catalog, profile_index)
        docs_before = builder.scorer.document_count
        idf_before = builder.scorer.inverse_document_frequency("entry")
        cells_before = builder._value_cells("GO:0001")
        mini_catalog.add_source(new_source)
        profile_index.index_source(new_source)
        builder.add_source(new_source)
        assert builder.scorer.document_count > docs_before
        assert ("newdb.xref", "go_ref") in _attributes_holding(builder, "GO:0001")
        mini_catalog.remove_source("newdb")
        profile_index.remove_source("newdb")
        builder.remove_source(new_source)
        assert builder.scorer.document_count == docs_before
        assert builder.scorer.inverse_document_frequency("entry") == idf_before
        assert builder._value_cells("GO:0001") == cells_before


def _attributes_holding(builder, keyword):
    """``(relation, attribute)`` of each cell the builder's lookup of ``keyword`` reads."""
    return {(cell.relation, cell.attribute) for cell in builder._value_cells(keyword)}


class TestRegistrarRollback:
    def _registrar(self, mini_catalog, mini_graph):
        """A registrar maintaining a profile index, and a builder reading it."""
        profile_index = CatalogProfileIndex.from_catalog(mini_catalog)
        registrar = SourceRegistrar(mini_catalog, mini_graph, indexes=(profile_index,))
        return registrar, profile_index, QueryGraphBuilder(mini_catalog, profile_index)

    def test_successful_registration_updates_all_indexes(
        self, mini_catalog, mini_graph, new_source
    ):
        registrar, profile_index, builder = self._registrar(
            mini_catalog, mini_graph
        )
        registrar.register(new_source, ExhaustiveAligner(MetadataMatcher()))
        assert mini_catalog.has_source("newdb")
        assert profile_index.has_relation("newdb.xref")
        assert profile_index.profile("newdb.xref", "go_ref").distinct_values == {"GO:0001", "GO:0002"}
        assert ("newdb.xref", "go_ref") in _attributes_holding(builder, "GO:0001")

    def test_failure_rolls_back_catalog_graph_and_indexes(
        self, mini_catalog, mini_graph, new_source
    ):
        registrar, profile_index, builder = self._registrar(
            mini_catalog, mini_graph
        )
        nodes_before = mini_graph.node_count
        edges_before = mini_graph.edge_count
        edge_number_before = mini_graph.next_edge_number
        values_before = profile_index.distinct_value_count
        cells_before = reference_value_cells(mini_catalog, "GO:0001", 25)
        with pytest.raises(RuntimeError):
            registrar.register(new_source, _ExplodingAligner(MetadataMatcher()))
        assert not mini_catalog.has_source("newdb")
        assert mini_graph.node_count == nodes_before
        assert mini_graph.edge_count == edges_before
        assert mini_graph.next_edge_number == edge_number_before
        assert not profile_index.has_relation("newdb.xref")
        assert profile_index.distinct_value_count == values_before
        assert builder._value_cells("GO:0001") == cells_before
        assert registrar.epoch == 0

    def test_unknown_candidate_relation_is_skipped(
        self, mini_catalog, mini_graph, new_source
    ):
        registrar, *_ = self._registrar(mini_catalog, mini_graph)
        result = registrar.register(new_source, _GhostCandidateAligner(MetadataMatcher()))
        assert result.candidate_relations[0] == "ghost.rel"
        real = len(result.candidate_relations) - 1
        assert real > 0
        assert result.relation_pairs_considered == real
        assert result.pairs_scored == real
        assert result.correspondences
        assert {c.target.relation for c in result.correspondences} <= set(
            result.candidate_relations[1:]
        )
        assert result.edges_added
        assert registrar.registered_sources() == ["newdb"]

    def test_other_catalog_errors_fail_the_registration(
        self, mini_catalog, mini_graph, new_source, monkeypatch
    ):
        # Only "no such relation" means "fewer candidates"; anything else a
        # catalog lookup raises must fail the registration, not thin it out.
        registrar, profile_index, *_ = self._registrar(mini_catalog, mini_graph)

        def broken_relation(qualified):
            raise RuntimeError("backend went away")

        monkeypatch.setattr(mini_catalog, "relation", broken_relation)
        sources_before = mini_catalog.source_names()
        nodes_before = mini_graph.node_count
        edges_before = mini_graph.edge_count
        relations_before = profile_index.relation_count
        with pytest.raises(RuntimeError, match="backend went away"):
            registrar.register(new_source, ExhaustiveAligner(MetadataMatcher()))
        assert mini_catalog.source_names() == sources_before
        assert mini_graph.node_count == nodes_before
        assert mini_graph.edge_count == edges_before
        assert profile_index.relation_count == relations_before
        assert registrar.epoch == 0

    def test_registration_succeeds_after_a_failed_attempt(
        self, mini_catalog, mini_graph, new_source
    ):
        registrar, profile_index, _ = self._registrar(mini_catalog, mini_graph)
        with pytest.raises(RuntimeError):
            registrar.register(new_source, _ExplodingAligner(MetadataMatcher()))
        result = registrar.register(new_source, ExhaustiveAligner(MetadataMatcher()))
        assert result.new_source == "newdb"
        assert profile_index.has_relation("newdb.xref")
        assert registrar.registered_sources() == ["newdb"]

    def test_failed_direct_registration_burns_no_edge_ids(self, mini_catalog, new_source):
        """``QService.register_source`` with an aligner that raises, then the
        retry: its edges are numbered like a twin session's that never failed."""
        class ExplodingMatcher(MetadataMatcher):
            def match_relations(self, *args, **kwargs):
                raise RuntimeError("boom")

        def session():
            return QService(sources=[source_from_dict(source_to_dict(s)) for s in mini_catalog])

        def register(service, matcher):
            request = RegisterSourceRequest(
                source=source_from_dict(source_to_dict(new_source)),
                strategy="exhaustive",
                matcher=matcher,
            )
            return [e.edge_id for e in service.register_source(request).alignment.edges_added]

        with session() as failed_once, session() as twin:
            edges_before = failed_once.graph.edge_count
            with pytest.raises(RuntimeError, match="boom"):
                register(failed_once, ExplodingMatcher())
            assert failed_once.graph.edge_count == edges_before
            retried = register(failed_once, MetadataMatcher())
            assert retried and retried == register(twin, MetadataMatcher())
            assert failed_once.graph.next_edge_number == twin.graph.next_edge_number

    def test_duplicate_registration_is_rejected_before_mutation(
        self, mini_catalog, mini_graph, new_source
    ):
        registrar, *_ = self._registrar(mini_catalog, mini_graph)
        registrar.register(new_source, ExhaustiveAligner(MetadataMatcher()))
        with pytest.raises(RegistrationError):
            registrar.register(new_source, ExhaustiveAligner(MetadataMatcher()))
        assert registrar.registered_sources() == ["newdb"]

    def test_session_sources_join_and_leave_through_the_registrar(self, mini_catalog, new_source):
        """``add_source`` admits without aligning, ``remove_source`` evicts and
        keeps the edge-id sequence where it is, and an unknown name raises
        before anything moves."""
        with QService(sources=[source_from_dict(source_to_dict(s)) for s in mini_catalog]) as service:
            graph = service.graph
            shape = (graph.node_count, graph.edge_count)
            service.add_source(new_source)
            assert service.profile_index.has_relation("newdb.xref") and graph.has_node("rel:newdb.xref")
            assert service.registrar.registered_sources() == [] and not graph.association_edges()
            numbered = graph.next_edge_number
            assert service.remove_source("newdb") is new_source
            assert not service.profile_index.has_relation("newdb.xref")
            assert (graph.node_count, graph.edge_count) == shape
            assert graph.next_edge_number == numbered
            version = graph.structure_version
            with pytest.raises(SchemaError, match="nope"):
                service.remove_source("nope")
            assert graph.structure_version == version and (graph.node_count, graph.edge_count) == shape


class TestRegisterBatch:
    def _second_source(self) -> DataSource:
        return DataSource.build(
            "otherdb",
            {"links": ["go_ref", "label"]},
            data={"links": [{"go_ref": "GO:0002", "label": "nucleus"}]},
        )

    def test_batch_admits_all_then_aligns(self, mini_catalog, mini_graph, new_source):
        registrar, profile_index, *_ = TestRegistrarRollback()._registrar(
            mini_catalog, mini_graph
        )
        other = self._second_source()
        results = registrar.register_batch(
            [new_source, other],
            [ExhaustiveAligner(MetadataMatcher()), ExhaustiveAligner(MetadataMatcher())],
        )
        assert [r.new_source for r in results] == ["newdb", "otherdb"]
        assert registrar.registered_sources() == ["newdb", "otherdb"]
        assert profile_index.has_relation("newdb.xref")
        assert profile_index.has_relation("otherdb.links")
        # Batch members are visible to each other's alignment.
        assert "newdb.xref" in results[1].candidate_relations

    def test_batch_failure_rolls_back_every_member(
        self, mini_catalog, mini_graph, new_source
    ):
        registrar, profile_index, builder = TestRegistrarRollback()._registrar(
            mini_catalog, mini_graph
        )
        nodes_before = mini_graph.node_count
        edge_number_before = mini_graph.next_edge_number
        other = self._second_source()
        with pytest.raises(RuntimeError):
            registrar.register_batch(
                [new_source, other],
                [ExhaustiveAligner(MetadataMatcher()), _ExplodingAligner(MetadataMatcher())],
            )
        assert not mini_catalog.has_source("newdb")
        assert not mini_catalog.has_source("otherdb")
        assert mini_graph.node_count == nodes_before
        assert mini_graph.next_edge_number == edge_number_before
        assert not profile_index.has_relation("newdb.xref")
        assert not profile_index.has_relation("otherdb.links")
        assert _attributes_holding(builder, "GO:0002") == {("go.term", "acc"), ("interpro.interpro2go", "go_id")}
        assert registrar.registered_sources() == []

    def test_batch_aligner_factories_resolve_after_admission(
        self, mini_catalog, mini_graph, new_source
    ):
        # A factory entry must be invoked only once every batch member is
        # admitted, so construction-time snapshots (e.g. the view-based
        # strategy's neighborhood graph) see the whole batch.
        registrar, *_ = TestRegistrarRollback()._registrar(mini_catalog, mini_graph)
        other = self._second_source()
        observed = {}

        def factory():
            observed["newdb"] = mini_catalog.has_source("newdb")
            observed["otherdb"] = mini_catalog.has_source("otherdb")
            return ExhaustiveAligner(MetadataMatcher())

        results = registrar.register_batch(
            [new_source, other], [factory, ExhaustiveAligner(MetadataMatcher())]
        )
        assert observed == {"newdb": True, "otherdb": True}
        assert [r.new_source for r in results] == ["newdb", "otherdb"]

    def test_batch_validates_before_mutating(self, mini_catalog, mini_graph, new_source):
        registrar, *_ = TestRegistrarRollback()._registrar(mini_catalog, mini_graph)
        with pytest.raises(RegistrationError):
            registrar.register_batch(
                [new_source, new_source],
                [ExhaustiveAligner(MetadataMatcher()), ExhaustiveAligner(MetadataMatcher())],
            )
        assert not mini_catalog.has_source("newdb")
        with pytest.raises(RegistrationError):
            registrar.register_batch([new_source], [])
