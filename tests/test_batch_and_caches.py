"""QService batch ingest and the shared Steiner-network snapshot cache."""

from __future__ import annotations

import pytest

from repro.api import QService, QueryRequest, RegisterSourceRequest
from repro.datastore.database import DataSource
from repro.engine.context import SteinerNetworkCache
from repro.exceptions import RegistrationError, UnknownViewError
from repro.graph.nodes import NodeKind
from repro.steiner import KBestSteiner, SteinerNetwork


def _source_a() -> DataSource:
    return DataSource.build(
        "newdb",
        {"xref": ["entry_ac", "go_ref"]},
        data={
            "xref": [
                {"entry_ac": "IPR001", "go_ref": "GO:0001"},
                {"entry_ac": "IPR002", "go_ref": "GO:0002"},
            ]
        },
    )


def _source_b() -> DataSource:
    return DataSource.build(
        "otherdb",
        {"links": ["go_ref", "label"]},
        data={"links": [{"go_ref": "GO:0002", "label": "nucleus"}]},
    )


class TestRegisterSourcesBatch:
    @pytest.fixture()
    def service(self, mini_catalog) -> QService:
        return QService(sources=mini_catalog.sources())

    def test_batch_registers_all_sources(self, service):
        responses = service.register_sources(
            [
                RegisterSourceRequest(source=_source_a(), strategy="exhaustive"),
                RegisterSourceRequest(source=_source_b(), strategy="exhaustive"),
            ]
        )
        assert [r.source for r in responses] == ["newdb", "otherdb"]
        assert service.catalog.has_source("newdb")
        assert service.catalog.has_source("otherdb")
        assert service.profile_index.has_relation("newdb.xref")
        assert service.profile_index.has_relation("otherdb.links")
        assert service.stats().registrations == 2

    def test_batch_members_can_align_to_each_other(self, service):
        responses = service.register_sources(
            [
                RegisterSourceRequest(source=_source_a(), strategy="exhaustive"),
                RegisterSourceRequest(source=_source_b(), strategy="exhaustive"),
            ]
        )
        # The second source's exhaustive alignment saw the first one.
        assert "newdb.xref" in responses[1].candidate_relations

    def test_batch_is_atomic_on_duplicate_names(self, service):
        with pytest.raises(RegistrationError):
            service.register_sources(
                [
                    RegisterSourceRequest(source=_source_a(), strategy="exhaustive"),
                    RegisterSourceRequest(source=_source_a(), strategy="exhaustive"),
                ]
            )
        assert not service.catalog.has_source("newdb")
        assert not service.profile_index.has_relation("newdb.xref")
        assert service.stats().registrations == 0

    def test_failed_batch_leaves_no_cells_of_its_sources(self, service, tmp_path):
        """A view-based factory pulls its view inside the batch, so a needle
        first read there (as on a reopened session) holds cells of the batch
        members; rolling the batch back must drop them from later expansions."""
        info = service.create_view(QueryRequest(keywords=("nucleus",)))
        service.save(tmp_path / "session.json")
        reopened = QService.open(tmp_path / "session.json")

        def value_relations():
            list(reopened.stream_answers(QueryRequest(view=info.view_id)))  # a pull
            graph = reopened.view(info.view_id).query_graph.graph
            return {node.relation for node in graph.nodes() if node.kind is NodeKind.VALUE}

        with pytest.raises(UnknownViewError):
            reopened.register_sources(
                [
                    RegisterSourceRequest(source=_source_b(), strategy="view_based", view=info.view_id),
                    RegisterSourceRequest(source=_source_a(), strategy="view_based", view="missing"),
                ]
            )
        assert not reopened.catalog.has_source("otherdb")
        assert value_relations() == {"go.term"}
        reopened.register_source(RegisterSourceRequest(source=_source_b(), strategy="exhaustive"))
        assert value_relations() == {"go.term", "otherdb.links"}

    def test_empty_batch_is_a_noop(self, service):
        assert service.register_sources([]) == ()

    def test_batch_of_one_matches_single_registration(self, mini_catalog):
        batch_service = QService(sources=mini_catalog.sources())
        single_service = QService(sources=mini_catalog.sources())
        (batch_response,) = batch_service.register_sources(
            [RegisterSourceRequest(source=_source_a(), strategy="exhaustive")]
        )
        single_response = single_service.register_source(
            RegisterSourceRequest(source=_source_a(), strategy="exhaustive")
        )
        batch_pairs = sorted(
            (c.source.qualified, c.target.qualified, c.confidence)
            for c in batch_response.alignment.correspondences
        )
        single_pairs = sorted(
            (c.source.qualified, c.target.qualified, c.confidence)
            for c in single_response.alignment.correspondences
        )
        assert batch_pairs == single_pairs

    def test_shared_filter_backed_registration(self, service):
        response = service.register_source(
            RegisterSourceRequest(source=_source_a(), strategy="exhaustive", value_filter=True)
        )
        assert response.attribute_comparisons > 0
        # The filter read the session's shared index — no rebuild happened,
        # and the index already holds the new source.
        assert service.profile_index.has_relation("newdb.xref")


class TestSteinerNetworkCache:
    def test_cache_reuses_snapshot_until_versions_move(self, mini_graph):
        cache = SteinerNetworkCache()
        first = cache.network(mini_graph)
        second = cache.network(mini_graph)
        assert first is second
        assert (cache.builds, cache.hits) == (1, 1)
        # A weight move re-prices the stale snapshot: its indexing is shared,
        # its costs are exactly a from-scratch build's ...
        mini_graph.weights.set("default", 2.0)
        third = cache.network(mini_graph)
        assert third is not first
        assert (cache.builds, cache.rescores) == (1, 1)
        assert third.node_index is first.node_index and third.edge_ids is first.edge_ids
        rebuilt = SteinerNetwork(mini_graph)
        assert third.edge_costs == rebuilt.edge_costs != first.edge_costs
        assert third.adjacency == rebuilt.adjacency
        # ... and a structural move re-indexes.
        from repro.graph.nodes import make_relation_node

        mini_graph.add_node(make_relation_node("x.y"))
        fourth = cache.network(mini_graph)
        assert fourth is not third
        assert (cache.builds, cache.rescores) == (2, 1)
        assert fourth.node_index is not third.node_index

    def test_kbest_with_cache_matches_without(self, mini_catalog, mini_graph):
        terminals = [
            mini_graph.relation_nodes()[0].node_id,
            mini_graph.relation_nodes()[1].node_id,
        ]
        cache = SteinerNetworkCache()
        with_cache = KBestSteiner(network_cache=cache).solve(mini_graph, terminals, 3)
        without = KBestSteiner().solve(mini_graph, terminals, 3)
        assert [(t.cost, sorted(t.edge_ids)) for t in with_cache] == [
            (t.cost, sorted(t.edge_ids)) for t in without
        ]
        assert cache.builds == 1

    def test_view_reads_share_the_context_cache(self, mini_catalog):
        service = QService(sources=mini_catalog.sources())
        service.create_view(QueryRequest(keywords=("membrane", "kinase")))
        builds_after_create = service.engine_context.steiner_cache.builds
        # A second read with no mutation must not rebuild any snapshot.
        info = service.latest_view()
        service.view_info(info.view_id)
        assert service.engine_context.steiner_cache.builds == builds_after_create
