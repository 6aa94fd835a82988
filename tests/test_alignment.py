"""Unit tests for the aligner strategies and the registration service."""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.alignment import (
    AlignmentResult,
    ExhaustiveAligner,
    PreferentialAligner,
    SourceRegistrar,
    ViewBasedAligner,
    install_associations,
    prior_from_weights,
)
from repro.datastore.database import Catalog, DataSource
from repro.exceptions import AlignmentError, RegistrationError
from repro.graph import QueryGraphBuilder, SearchGraph, relation_feature
from repro.matching import (
    AttributeRef,
    Correspondence,
    MetadataMatcher,
    ValueOverlapFilter,
)
from repro.profiling import CatalogProfileIndex


@pytest.fixture()
def new_source() -> DataSource:
    """A new source whose attributes overlap with the mini catalog."""
    return DataSource.build(
        "newdb",
        {"xref": ["go_acc", "entry_ac", "note"]},
        data={
            "xref": [
                {"go_acc": "GO:0001", "entry_ac": "IPR001", "note": "curated"},
                {"go_acc": "GO:0002", "entry_ac": "IPR002", "note": "automatic"},
            ]
        },
    )


def register(graph, catalog, source):
    """Add the new source to catalog + graph the way the registrar does."""
    catalog.add_source(source)
    graph.add_source(source)


class TestExhaustiveAligner:
    def test_considers_all_existing_relations(self, mini_catalog, mini_graph, new_source):
        register(mini_graph, mini_catalog, new_source)
        aligner = ExhaustiveAligner(MetadataMatcher())
        result = aligner.align(mini_graph, mini_catalog, new_source)
        assert result.strategy == "exhaustive"
        assert set(result.candidate_relations) == {
            "go.term",
            "interpro.interpro2go",
            "interpro.entry",
            "interpro.pub",
            "interpro.entry2pub",
        }
        # 3 new attributes x 10 existing attributes
        assert result.attribute_comparisons == 30
        assert result.relation_pairs_considered == 5
        assert result.elapsed_seconds >= 0.0

    def test_installs_association_edges(self, mini_catalog, mini_graph, new_source):
        register(mini_graph, mini_catalog, new_source)
        before = len(mini_graph.association_edges())
        result = ExhaustiveAligner(MetadataMatcher()).align(mini_graph, mini_catalog, new_source)
        assert len(result.edges_added) > 0
        assert len(mini_graph.association_edges()) > before
        # entry_ac should align by name.
        edge = mini_graph.association_between(
            "newdb.xref", "entry_ac", "interpro.entry", "entry_ac"
        )
        assert edge is not None

    def test_value_filter_reduces_comparisons(self, mini_catalog, mini_graph, new_source):
        register(mini_graph, mini_catalog, new_source)
        tables = mini_catalog.all_tables()
        overlap_filter = ValueOverlapFilter.from_tables(tables)
        unfiltered = ExhaustiveAligner(MetadataMatcher()).align(mini_graph, mini_catalog, new_source)
        filtered = ExhaustiveAligner(
            MetadataMatcher(), value_filter=overlap_filter
        ).align(mini_graph, mini_catalog, new_source)
        assert filtered.attribute_comparisons < unfiltered.attribute_comparisons

    def test_count_only_mode_adds_no_edges(self, mini_catalog, mini_graph, new_source):
        register(mini_graph, mini_catalog, new_source)
        before = len(mini_graph.association_edges())
        result = ExhaustiveAligner(MetadataMatcher(), count_only=True).align(
            mini_graph, mini_catalog, new_source
        )
        assert result.attribute_comparisons > 0
        assert result.edges_added == []
        assert len(mini_graph.association_edges()) == before


class TestViewBasedAligner:
    def _query_graph(self, mini_catalog, mini_graph, keywords):
        builder = QueryGraphBuilder(mini_catalog, CatalogProfileIndex.from_catalog(mini_catalog))
        return builder.expand(mini_graph, keywords)

    def test_restricts_to_alpha_neighborhood(self, mini_catalog, mini_graph, new_source):
        expanded = self._query_graph(mini_catalog, mini_graph, ["membrane"])
        register(expanded.graph, mini_catalog, new_source)
        aligner = ViewBasedAligner(
            MetadataMatcher(), keyword_nodes=expanded.terminals, alpha=0.5
        )
        result = aligner.align(expanded.graph, mini_catalog, new_source)
        # With a small alpha only go.term (where 'plasma membrane' lives) is reachable.
        assert result.candidate_relations == ["go.term"]
        assert result.attribute_comparisons <= 3 * 2

    def test_larger_alpha_reaches_more_relations(self, mini_catalog, mini_graph, new_source):
        expanded = self._query_graph(mini_catalog, mini_graph, ["membrane"])
        register(expanded.graph, mini_catalog, new_source)
        small = ViewBasedAligner(MetadataMatcher(), expanded.terminals, alpha=0.5).align(
            expanded.graph, mini_catalog, new_source
        )
        large = ViewBasedAligner(MetadataMatcher(), expanded.terminals, alpha=10.0).align(
            expanded.graph, mini_catalog, new_source
        )
        assert set(small.candidate_relations) <= set(large.candidate_relations)
        assert large.attribute_comparisons >= small.attribute_comparisons

    def test_never_more_comparisons_than_exhaustive(self, mini_catalog, mini_graph, new_source):
        expanded = self._query_graph(mini_catalog, mini_graph, ["membrane"])
        register(expanded.graph, mini_catalog, new_source)
        view_based = ViewBasedAligner(MetadataMatcher(), expanded.terminals, alpha=2.0).align(
            expanded.graph, mini_catalog, new_source
        )
        exhaustive = ExhaustiveAligner(MetadataMatcher()).align(
            expanded.graph, mini_catalog, new_source
        )
        assert view_based.attribute_comparisons <= exhaustive.attribute_comparisons

    def test_negative_alpha_rejected(self):
        with pytest.raises(AlignmentError):
            ViewBasedAligner(MetadataMatcher(), ["kw"], alpha=-1.0)

    def test_missing_keyword_nodes_raise(self, mini_catalog, mini_graph, new_source):
        register(mini_graph, mini_catalog, new_source)
        aligner = ViewBasedAligner(MetadataMatcher(), ["kw:not_there"], alpha=1.0)
        with pytest.raises(AlignmentError):
            aligner.align(mini_graph, mini_catalog, new_source)


class TestPreferentialAligner:
    def test_prior_ordering_and_budget(self, mini_catalog, mini_graph, new_source):
        register(mini_graph, mini_catalog, new_source)
        prior = {"interpro.pub": 10.0, "go.term": 5.0, "interpro.entry": 1.0}
        aligner = PreferentialAligner(MetadataMatcher(), prior=prior, max_relations=2)
        result = aligner.align(mini_graph, mini_catalog, new_source)
        assert result.candidate_relations == ["interpro.pub", "go.term"]

    def test_callable_prior(self, mini_catalog, mini_graph, new_source):
        register(mini_graph, mini_catalog, new_source)
        aligner = PreferentialAligner(
            MetadataMatcher(), prior=lambda rel: len(rel), max_relations=1
        )
        result = aligner.align(mini_graph, mini_catalog, new_source)
        assert result.candidate_relations == ["interpro.interpro2go"]

    def test_prior_from_weights(self, mini_graph):
        mini_graph.weights.set(relation_feature("go.term"), -2.0)
        mini_graph.weights.set(relation_feature("interpro.pub"), 1.0)
        prior = prior_from_weights(mini_graph)
        assert prior["go.term"] == pytest.approx(2.0)
        assert prior["interpro.pub"] == pytest.approx(-1.0)

    def test_invalid_budget(self):
        with pytest.raises(AlignmentError):
            PreferentialAligner(MetadataMatcher(), max_relations=0)

    def test_cheaper_than_view_based(self, mini_catalog, mini_graph, new_source):
        register(mini_graph, mini_catalog, new_source)
        preferential = PreferentialAligner(
            MetadataMatcher(), prior={}, max_relations=1
        ).align(mini_graph, mini_catalog, new_source)
        exhaustive = ExhaustiveAligner(MetadataMatcher()).align(
            mini_graph, mini_catalog, new_source
        )
        assert preferential.attribute_comparisons < exhaustive.attribute_comparisons


class TestInstallAssociations:
    def test_merges_matchers_on_one_edge(self, mini_graph):
        correspondences = [
            Correspondence(AttributeRef("go.term", "acc"), AttributeRef("interpro.entry", "entry_ac"), 0.7, "m1"),
            Correspondence(AttributeRef("interpro.entry", "entry_ac"), AttributeRef("go.term", "acc"), 0.4, "m2"),
        ]
        edges = install_associations(mini_graph, correspondences)
        assert len(edges) == 1
        assert edges[0].metadata["matchers"] == {"m1": 0.7, "m2": 0.4}

    def test_install_associations_accepts_a_generator(self, mini_graph):
        correspondences = [
            Correspondence(AttributeRef("go.term", "acc"), AttributeRef("interpro.entry", "entry_ac"), 0.7, "m1"),
            Correspondence(AttributeRef("go.term", "name"), AttributeRef("interpro.entry", "name"), 0.6, "m1"),
        ]
        edges = install_associations(mini_graph, (c for c in correspondences))
        assert [edge.metadata["matchers"] for edge in edges] == [{"m1": 0.7}, {"m1": 0.6}]

    def test_install_work_is_linear_in_edges_on_a_hub(self):
        """Every spoke hangs off one hub attribute: function calls, not seconds."""

        def calls_to_install(spokes):
            graph = SearchGraph()
            correspondences = [
                Correspondence(AttributeRef("hub.r", "a"), AttributeRef(f"s{i}.r", "a"), 0.5, "m")
                for i in range(spokes)
            ]
            calls = 0

            def count(frame, event, arg):
                nonlocal calls
                if event in ("call", "c_call"):
                    calls += 1

            # A collector pass inside the window would count the calls of
            # whatever gc.callbacks are registered (hypothesis adds one).
            gc.disable()
            sys.setprofile(count)
            try:
                edges = install_associations(graph, correspondences)
            finally:
                sys.setprofile(None)
                gc.enable()
            assert len(edges) == spokes
            return calls

        c50, c100, c200 = (calls_to_install(n) for n in (50, 100, 200))
        assert c200 - c100 == 2 * (c100 - c50)


def run_in_fresh_process(script, hash_seed, *args):
    """Run ``script`` in a process of its own under ``PYTHONHASHSEED=hash_seed``; its stdout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
    env.pop("REPRO_BACKEND", None)
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout


#: The registration lane end to end, in a process with a hash seed of its own:
#: correspondences and edge ids of 24 blocked registrations with 6 removals in
#: between, over 240 community relations.
_GOLDEN_LANE = """
import hashlib, random
from repro.api import QService, RegisterSourceRequest, ServiceConfig
from repro.datasets.synthetic import make_community_source

def source(prefix, number):
    return make_community_source(f"{prefix}_{number:04d}", community=number % 8, seed=7000 + number)

service = QService(
    [source("base", n) for n in range(240)],
    config=ServiceConfig(profile_shards=4, sketch_num_perm=48),
)
victims = random.Random(5).sample(range(240), 6)
log = []
for number in range(24):
    response = service.register_source(
        RegisterSourceRequest(
            source=source("new", 240 + number), strategy="profile_blocked", value_filter=True
        )
    )
    for c in response.alignment.correspondences:
        log.append((c.source.qualified, c.target.qualified, c.confidence, c.matcher))
    log.extend(edge.edge_id for edge in response.alignment.edges_added)
    if number % 4 == 3:
        service.remove_source(f"base_{victims.pop():04d}")
print(len(log), hashlib.sha256(repr(log).encode()).hexdigest()[:16])
"""


@pytest.mark.parametrize("hash_seed", ["0", "1", "random"])
def test_registration_lane_golden_digest(hash_seed):
    """Pinned at the commit before the endpoint-pair index (PR 13)."""
    assert run_in_fresh_process(_GOLDEN_LANE, hash_seed).split() == ["5904", "647c797ac082fdb5"]


class TestSourceRegistrar:
    def test_register_adds_and_aligns(self, mini_catalog, mini_graph, new_source):
        registrar = SourceRegistrar(mini_catalog, mini_graph)
        result = registrar.register(new_source, ExhaustiveAligner(MetadataMatcher()))
        assert isinstance(result, AlignmentResult)
        assert result.strategy == "exhaustive"
        assert mini_catalog.has_source("newdb")
        assert mini_graph.has_node("rel:newdb.xref")
        assert registrar.registered_sources() == ["newdb"]
        assert [record.strategy for record in registrar.history] == ["exhaustive"]

    def test_duplicate_registration_rejected(self, mini_catalog, mini_graph, new_source):
        registrar = SourceRegistrar(mini_catalog, mini_graph)
        registrar.register(new_source, ExhaustiveAligner(MetadataMatcher()))
        with pytest.raises(RegistrationError):
            registrar.register(new_source, ExhaustiveAligner(MetadataMatcher()))

    def test_failed_alignment_rolls_back_catalog(self, mini_catalog, mini_graph, new_source):
        class ExplodingAligner(ExhaustiveAligner):
            def candidate_relations(self, graph, catalog, source):
                raise RuntimeError("boom")

        registrar = SourceRegistrar(mini_catalog, mini_graph)
        with pytest.raises(RuntimeError):
            registrar.register(new_source, ExplodingAligner(MetadataMatcher()))
        assert not mini_catalog.has_source("newdb")
