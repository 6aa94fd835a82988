"""What a stored edge holds: counts of heap objects, never seconds.

An association edge is one slotted object: its features are a plain dict of
atoms the collector does not track, and its endpoints are the graph's own
node-id strings.  Its ``metadata`` is read off what it already holds
(``matchers``) or shares (the aligner's ``origin``), and still reads — and
saves — exactly as when every edge carried its own two dicts.  A posting
seen in one attribute is that attribute id, not a one-element set.  A
registration keeps one object per correspondence and no more on the way.
"""

from __future__ import annotations

import gc
import json
import tracemalloc

import pytest

from repro.alignment import ExhaustiveAligner, install_associations
from repro.api import QService, ServiceConfig
from repro.datastore.csvio import source_from_dict, source_to_dict
from repro.datastore.database import Catalog, DataSource
from repro.graph import EdgeKind, QueryGraphBuilder, SearchGraph, make_attribute_node
from repro.graph.edges import ALIGNER_ORIGIN
from repro.matching import MetadataMatcher
from repro.matching.base import AttributeRef, Correspondence
from repro.persist.journal import apply_delta
from repro.persist.snapshot import edge_payload, restore_edge
from repro.profiling import CatalogProfileIndex


def tracked(kind=None):
    """GC-tracked objects now (of exactly ``kind``), after the collector has untracked what it can."""
    gc.collect()
    gc.collect()
    objects = gc.get_objects()
    return len(objects) if kind is None else sum(1 for obj in objects if type(obj) is kind)


class TestHeapCensus:
    def test_an_installed_association_is_one_tracked_object(self):
        count = 2000
        graph = SearchGraph()
        correspondences = [
            Correspondence(AttributeRef("hub.r", f"a{i % 7}"), AttributeRef(f"s{i}.r", "a"), 0.5 + i / 10000, "m")
            for i in range(count)
        ]
        for c in correspondences:  # nodes and their adjacency lists are not the edge's cost
            graph.add_node(make_attribute_node(c.source.relation, c.source.attribute))
            graph.add_node(make_attribute_node(c.target.relation, c.target.attribute))
        objects_before, dicts_before = tracked(), tracked(dict)
        tracemalloc.start()
        try:
            bytes_before = tracemalloc.get_traced_memory()[0]
            edges = install_associations(graph, correspondences)
            gc.collect()
            installed_bytes = tracemalloc.get_traced_memory()[0] - bytes_before
        finally:
            tracemalloc.stop()
        assert len(edges) == count == len(graph.association_edges())
        # The Edge alone; its features dict holds only atoms.
        assert (tracked() - objects_before) / count <= 1.1
        # Everything the graph keeps per association (edge, features, edge id,
        # adjacency and pair entries): 697 bytes on CPython 3.11, plus 10%.
        assert installed_bytes / count <= 770
        for edge in edges:
            assert edge.u is graph.node(edge.u).node_id and edge.v is graph.node(edge.v).node_id
        # No edge has a metadata dict of its own (one that holds `matchers` is tracked).
        assert tracked(dict) - dicts_before <= 5
        assert edges[0].metadata == {"origin": "aligner", "matchers": {"m": 0.5}}

    def test_a_registration_keeps_one_object_per_correspondence(self):
        # One new relation whose two attributes match 200 existing relations:
        # 400 correspondences, every one kept by top-Y, every one a new edge.
        existing = [DataSource.build(f"s{i:03d}", {"gene": ["gene_id", "symbol"]}) for i in range(200)]
        new = DataSource.build("incoming", {"gene": ["gene_id", "symbol"]})
        catalog = Catalog(existing + [new])
        graph = SearchGraph()
        for source in catalog:
            graph.add_source(source)
        aligner = ExhaustiveAligner(MetadataMatcher(), top_y=2)
        gc.collect()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            result = aligner.align(graph, catalog, new)
            gc.collect()
            kept_bytes, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        count = len(result.correspondences)
        assert count == len(result.edges_added) == 400
        with_result = tracked()
        del result
        # The correspondences alone: their refs are the schemas'.  3.0 before
        # the refs were shared (a correspondence and two fresh refs).
        assert (with_result - tracked()) / count <= 1.1
        # What align holds on the way and lets go: 363 bytes per correspondence
        # on CPython 3.11, plus 10% (599 when every correspondence grouped into
        # a row and a confidence map of its own).
        assert (peak_bytes - kept_bytes) / count <= 399

    def test_values_seen_in_one_attribute_add_no_set(self):
        source = DataSource.build(
            "wide", {"r": ["key"]}, data={"r": [{"key": f"id{i:05d}"} for i in range(5000)]}
        )
        index = CatalogProfileIndex(shard_count=4)
        sets_before = tracked(set)
        index.index_source(source)
        assert index.distinct_value_count == 5000
        assert tracked(set) == sets_before
        assert sum(index.shard_sizes()) >= 5000  # and each of them is held


def stored_payload(edge, metadata):
    """The document ``edge`` is saved as when ``metadata`` is what it stores."""
    payload = {
        "id": edge.edge_id, "u": edge.u, "v": edge.v, "kind": edge.kind.value,
        "features": dict(edge.features.items()),
    }
    if edge.fixed_cost is not None:
        payload["fixed_cost"] = edge.fixed_cost
    if metadata:
        payload["metadata"] = metadata
    return payload


def saved_bytes(payload):
    return json.dumps(payload, separators=(",", ":"))


class TestMetadataReadsAsStored:
    def test_every_bootstrap_association_of_gbco(self, gbco_dataset):
        service = QService(
            sources=[source_from_dict(source_to_dict(source)) for source in gbco_dataset.catalog],
            config=ServiceConfig(top_y=2),
        )
        stored = {}  # attribute pair -> what add_association used to keep
        for c in service.bootstrap_alignments():
            pair = frozenset([c.source.qualified, c.target.qualified])
            record = stored.setdefault(pair, {"origin": "aligner", "matchers": {}})
            record["matchers"][c.matcher] = float(c.confidence)
        edges = service.graph.association_edges()
        assert len(edges) == len(stored) > 20
        assert any(len(record["matchers"]) == 2 for record in stored.values())  # merged edges too
        for edge in edges:
            u, v = service.graph.node(edge.u), service.graph.node(edge.v)
            golden = stored[frozenset([f"{u.relation}.{u.attribute}", f"{v.relation}.{v.attribute}"])]
            assert edge.metadata == golden
            assert list(edge.metadata) == ["origin", "matchers"]
            assert list(edge.metadata["matchers"]) == list(golden["matchers"])
            # Saved as stored: the shared origin record, not the matchers it derives.
            assert saved_bytes(edge_payload(edge)) == saved_bytes(stored_payload(edge, {"origin": "aligner"}))
            again = restore_edge(json.loads(saved_bytes(edge_payload(edge))))
            assert again.stored_metadata is ALIGNER_ORIGIN and again.metadata == golden
            assert saved_bytes(edge_payload(again)) == saved_bytes(edge_payload(edge))
        service.close()

    def test_a_two_matcher_merge_keeps_arrival_order(self):
        graph = SearchGraph()
        first = graph.add_association("a.r", "x", "b.s", "y", {"m2": 0.7}, {"origin": "aligner"})
        merged = graph.add_association("a.r", "x", "b.s", "y", {"m1": 0.4, "m2": 0.6}, {"origin": "aligner"})
        golden = {"origin": "aligner", "matchers": {"m2": 0.6, "m1": 0.4}}
        assert merged.metadata == golden and list(merged.metadata["matchers"]) == ["m2", "m1"]
        assert saved_bytes(edge_payload(merged)) == saved_bytes(stored_payload(merged, {"origin": "aligner"}))
        assert restore_edge(json.loads(saved_bytes(edge_payload(merged)))).metadata == golden
        assert first.metadata == {"origin": "aligner", "matchers": {"m2": 0.7}}  # the old edge is untouched

    def test_metadata_a_merge_adds_is_spelled_out_in_arrival_order(self):
        graph = SearchGraph()
        graph.add_association("a.r", "x", "b.s", "y", {"m": 0.5})
        merged = graph.add_association("a.r", "x", "b.s", "y", {"n": 0.25}, {"origin": "aligner"})
        assert list(merged.metadata.items()) == [("matchers", {"m": 0.5, "n": 0.25}), ("origin", "aligner")]
        again = restore_edge(json.loads(saved_bytes(edge_payload(merged))))
        assert list(again.metadata.items()) == list(merged.metadata.items())

    def test_an_integer_confidence_reads_as_the_float_the_features_hold(self):
        # The one value that moves: `matchers` used to keep the raw 1 beside
        # the feature's 1.0.  No matcher and no bench workload produces one.
        edge = SearchGraph().add_association("a.r", "x", "b.s", "y", {"m": 1})
        assert edge.metadata == {"matchers": {"m": 1.0}}
        assert '"matcher::m":1.0' in saved_bytes(edge_payload(edge))
        assert restore_edge(json.loads(saved_bytes(edge_payload(edge)))).metadata == {"matchers": {"m": 1.0}}

    def test_foreign_key_and_keyword_edges_keep_what_they_were_given(self, mini_catalog, mini_graph):
        foreign_keys = mini_graph.edges(EdgeKind.FOREIGN_KEY)
        assert foreign_keys
        for edge in foreign_keys:
            assert list(edge.metadata) == ["foreign_key"] and len(edge.metadata["foreign_key"]) == 4
            assert restore_edge(json.loads(saved_bytes(edge_payload(edge)))).metadata == edge.metadata
        expanded = QueryGraphBuilder(mini_catalog, CatalogProfileIndex.from_catalog(mini_catalog)).expand(mini_graph, ["kinase"]).graph
        matches = expanded.edges(EdgeKind.KEYWORD_MATCH)
        assert matches
        for edge in matches:
            assert edge.metadata == {"mismatch": edge.features.get("keyword_mismatch")}
        for edge in mini_graph.edges(EdgeKind.MEMBERSHIP):
            assert edge.metadata == {} and "metadata" not in edge_payload(edge)

    def test_a_write_into_metadata_raises(self, mini_graph):
        for edge in mini_graph.edges():
            with pytest.raises(TypeError):
                edge.metadata["note"] = "lost"


class TestReplayReplacesTheEdge:
    def test_a_copy_taken_before_a_replayed_merge_keeps_the_old_edge(self, mini_graph):
        old = mini_graph.association_between("go.term", "acc", "interpro.interpro2go", "go_id")
        published = mini_graph.copy()
        version = mini_graph.structure_version
        changed = json.loads(saved_bytes(edge_payload(old)))  # as a journal entry records a merge
        changed["features"]["matcher::metadata"] = 0.8
        entry = dict.fromkeys(("sources_removed", "edges_removed", "nodes_removed", "sources_added", "nodes_added"), [])
        entry.update(edges_added=[], edges_changed=[changed], weights_set={}, profile_epoch=0)
        apply_delta(entry, None, mini_graph, CatalogProfileIndex(), True)
        replayed = mini_graph.edge(old.edge_id)
        assert replayed.metadata["matchers"] == {"mad": 0.9, "metadata": 0.8}
        assert replayed is not old and mini_graph.structure_version > version
        assert published.edge(old.edge_id) is old
        assert old.metadata["matchers"] == {"mad": 0.9} and "matcher::metadata" not in old.features
