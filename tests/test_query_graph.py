"""Unit tests for keyword query-graph expansion."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_expansion import reference_expand

from repro.datasets import build_gbco
from repro.datasets.synthetic import grow_catalog_and_graph
from repro.datastore import Catalog, DataSource
from repro.graph import (
    EdgeKind,
    NodeKind,
    QueryGraphBuilder,
    SearchGraph,
    keyword_node_id,
)
from repro.profiling import CatalogProfileIndex


def profiled_builder(catalog, **kwargs) -> QueryGraphBuilder:
    """A builder over ``catalog`` reading a fresh profile index of it."""
    return QueryGraphBuilder(catalog, CatalogProfileIndex.from_catalog(catalog), **kwargs)


@pytest.fixture()
def builder(mini_catalog) -> QueryGraphBuilder:
    return profiled_builder(mini_catalog)


class TestQueryGraphExpansion:
    def test_keyword_nodes_added(self, mini_graph, builder):
        expanded = builder.expand(mini_graph, ["membrane", "title"])
        assert set(expanded.keyword_nodes) == {"membrane", "title"}
        assert len(expanded.terminals) == 2
        for terminal in expanded.terminals:
            assert expanded.graph.node(terminal).kind is NodeKind.KEYWORD

    def test_base_graph_not_mutated(self, mini_graph, builder):
        nodes_before = mini_graph.node_count
        edges_before = mini_graph.edge_count
        builder.expand(mini_graph, ["membrane"])
        assert mini_graph.node_count == nodes_before
        assert mini_graph.edge_count == edges_before

    def test_schema_label_match(self, mini_graph, builder):
        expanded = builder.expand(mini_graph, ["title"])
        matches = expanded.matches_for("title")
        matched_kinds = {m.target_kind for m in matches}
        assert NodeKind.ATTRIBUTE in matched_kinds
        # pub.title should be a perfect match with mismatch cost 0.
        assert any(m.mismatch_cost == pytest.approx(0.0) for m in matches)

    def test_value_match_creates_value_nodes(self, mini_graph, builder):
        expanded = builder.expand(mini_graph, ["membrane"])
        value_nodes = expanded.graph.nodes(NodeKind.VALUE)
        assert any("plasma membrane" in n.label for n in value_nodes)
        # Value nodes hang off their attribute by a zero-cost edge.
        membership = expanded.graph.edges(EdgeKind.VALUE_MEMBERSHIP)
        assert membership and all(e.fixed_cost == 0.0 for e in membership)

    def test_keyword_match_edges_have_positive_cost(self, mini_graph, builder):
        expanded = builder.expand(mini_graph, ["membrane", "title"])
        for edge in expanded.graph.edges(EdgeKind.KEYWORD_MATCH):
            assert expanded.graph.edge_cost(edge) > 0.0

    def test_unmatched_keyword_still_gets_node(self, mini_graph, builder):
        expanded = builder.expand(mini_graph, ["zzz_unmatchable"])
        node_id = keyword_node_id("zzz_unmatchable")
        assert expanded.graph.has_node(node_id)
        assert expanded.matches_for("zzz_unmatchable") == []

    def test_exact_value_match_preferred(self, mini_graph, builder):
        expanded = builder.expand(mini_graph, ["GO:0001"])
        matches = expanded.matches_for("GO:0001")
        assert matches, "identifier keyword should match indexed values"
        assert any(m.target_kind is NodeKind.VALUE for m in matches)

    def test_max_value_matches_cap(self, mini_catalog, mini_graph):
        capped = profiled_builder(mini_catalog, max_value_matches=1)
        expanded = capped.expand(mini_graph, ["GO"])
        value_matches = [
            m for m in expanded.matches_for("GO") if m.target_kind is NodeKind.VALUE
        ]
        assert len(value_matches) <= 1

    def test_shared_weight_vector(self, mini_graph, builder):
        expanded = builder.expand(mini_graph, ["membrane"])
        assert expanded.graph.weights is mini_graph.weights


def _expansion_shape(query_graph):
    """Everything an expansion produced, in insertion order."""
    graph = query_graph.graph
    edges = [
        (e.edge_id, e.u, e.v, e.kind, dict(e.features), e.fixed_cost, dict(e.metadata))
        for e in graph.edges()
    ]
    return (
        [node.node_id for node in graph.nodes()], edges, query_graph.keyword_nodes,
        query_graph.matches, graph.weights.as_dict(),
    )


#: Query-log keywords, schema labels, a camelCase and a digit-boundary
#: keyword, one that only a value substring matches and one nothing matches.
PARITY_KEYWORDS = (
    "insulin", "pathway", "pancreas", "sample", "gene_id", "geneSymbol", "GO2gene", "the",
    "ins", "zzz_unmatchable",
)


@pytest.mark.parametrize("grown", [False, True], ids=["gbco", "grown"])
@pytest.mark.parametrize("threshold", [0.0, 0.3])
def test_expansion_equals_per_node_seed_scoring(grown, threshold):
    """One keyword vector per expansion gives the seed's graph to the bit:
    the same node and edge ids in the same order, the same features,
    metadata, weights and matches (``repr`` tells ``0.0`` from ``-0.0``)."""
    shapes = []
    for expand in (reference_expand, QueryGraphBuilder.expand):
        catalog = build_gbco(rows_per_relation=10).catalog
        graph = SearchGraph()
        graph.add_catalog(catalog)
        if grown:
            grow_catalog_and_graph(catalog, graph, target_source_count=60, seed=3)
        builder = profiled_builder(catalog, similarity_threshold=threshold)
        shapes.append(_expansion_shape(expand(builder, graph, PARITY_KEYWORDS)))
    assert shapes[0] == shapes[1]
    assert repr(shapes[0]) == repr(shapes[1])
    if threshold == 0.0:
        # A zero threshold links every schema node to every keyword.
        schema_nodes = sum(
            node.kind in (NodeKind.RELATION, NodeKind.ATTRIBUTE) for node in graph.nodes()
        )
        schema_matches = [m for m in shapes[1][3] if m.target_kind is not NodeKind.VALUE]
        assert len(schema_matches) == schema_nodes * len(PARITY_KEYWORDS)


#: Keywords whose values span several sources: ``mouse`` matches eleven exactly,
#: ``ins`` only as a substring of values in five, where a cap of one keeps
#: whichever value a catalog scan meets first.  ``phenotype`` names a held-out
#: source's relation: the label postings must see it arrive and leave.
GROWN_KEYWORDS = ("ins", "mouse", "insulin", "pathway", "phenotype", "zzz_unmatchable")


@pytest.mark.parametrize("max_value_matches", [1, 25])
def test_a_builder_kept_in_step_expands_like_a_fresh_one(max_value_matches):
    """Registration folds a source into the session's builder and removal
    takes it out again.  After either, an expansion equals a fresh builder's
    over the same catalog: the same ids in the same order, the same features,
    matches and weights — the fresh one writes no weight, since it names its
    edges as the kept one did.  Removing the first source puts values that it
    shared with later sources where a rebuild puts them."""
    catalog = build_gbco(rows_per_relation=10).catalog
    held_out = [catalog.remove_source(name) for name in ("protein", "phenotype")]
    graph = SearchGraph()
    graph.add_catalog(catalog)
    profiles = CatalogProfileIndex.from_catalog(catalog)
    kept = QueryGraphBuilder(catalog, profiles, max_value_matches=max_value_matches)
    kept.expand(graph, GROWN_KEYWORDS)  # builds the corpus structures it then maintains

    def assert_expands_like_a_fresh_builder():
        fresh = profiled_builder(catalog, max_value_matches=max_value_matches)
        shapes = [_expansion_shape(builder.expand(graph, GROWN_KEYWORDS)) for builder in (kept, fresh)]
        assert shapes[0] == shapes[1]
        assert repr(shapes[0]) == repr(shapes[1])

    for source in held_out:
        catalog.add_source(source)
        graph.add_source(source)
        profiles.index_source(source)
        kept.add_source(source)
    assert_expands_like_a_fresh_builder()
    first = catalog.remove_source("gene")
    graph.remove_source("gene")
    profiles.remove_source("gene")
    kept.remove_source(first)
    assert_expands_like_a_fresh_builder()
    catalog.add_source(first)
    graph.add_source(first)
    profiles.index_source(first)
    kept.add_source(first)
    assert_expands_like_a_fresh_builder()


#: Cell values of the differential's sources: shared between sources, in
#: mixed case, some inside others.
_CELL_VALUES = ("Alpha", "alpha beta", "BETA", "gamma", "Alphabet soup", "beta gamma", "delta", None)

#: An exact hit, a substring-only hit, no hit, mixed case, whitespace-padded
#: and blank (the empty keyword is in every value).
DIFFERENTIAL_KEYWORDS = ("gamma", "alph", "zzz_unmatchable", "bETA", "  delta  ", " ", "")


def _small_source(index, rows) -> DataSource:
    return DataSource.build(f"s{index}", {"t": ["a", "b"]}, data={"t": [list(row) for row in rows]})


@st.composite
def _registrations(draw):
    """Rows of four small sources, and a sequence of registering and removing
    them that starts from the first two.  Every sequence removes ``s0``, which
    holds a value first that ``s1`` holds too."""
    cells = st.sampled_from(_CELL_VALUES)
    rows = [draw(st.lists(st.tuples(cells, cells), min_size=1, max_size=4)) for _ in range(4)]
    rows[0].insert(0, ("Alphabet soup", "gamma"))
    rows[1].append(("gamma", "Alphabet soup"))
    steps = draw(st.lists(st.tuples(st.sampled_from(("add", "remove")), st.integers(0, 3)), max_size=6))
    steps.insert(draw(st.integers(0, len(steps))), ("remove", 0))
    return rows, steps


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scenario=_registrations(), max_value_matches=st.sampled_from((1, 3, 25)))
def test_kept_fresh_and_brute_force_expansions_agree(scenario, max_value_matches):
    """After every registration or removal, a builder kept in step, a fresh
    builder and the brute-force reference expand the same keywords alike:
    a lookup's cells come in catalog scan order, grouped by value, whatever
    the history that led to the catalog."""
    rows, steps = scenario
    catalog = Catalog([_small_source(0, rows[0]), _small_source(1, rows[1])])
    graph = SearchGraph()
    graph.add_catalog(catalog)
    profiles = CatalogProfileIndex.from_catalog(catalog)
    kept = QueryGraphBuilder(catalog, profiles, max_value_matches=max_value_matches)
    kept.expand(graph, DIFFERENTIAL_KEYWORDS)
    for action, index in steps:
        name = f"s{index}"
        if action == "add" and name not in catalog:
            source = _small_source(index, rows[index])
            catalog.add_source(source)
            graph.add_source(source)
            profiles.index_source(source)
            kept.add_source(source)
        elif action == "remove" and name in catalog:
            source = catalog.remove_source(name)
            graph.remove_source(name)
            profiles.remove_source(name)
            kept.remove_source(source)
        else:
            continue
        fresh = profiled_builder(catalog, max_value_matches=max_value_matches)
        shapes = [
            _expansion_shape(kept.expand(graph, DIFFERENTIAL_KEYWORDS)),
            _expansion_shape(fresh.expand(graph, DIFFERENTIAL_KEYWORDS)),
            _expansion_shape(reference_expand(fresh, graph, DIFFERENTIAL_KEYWORDS)),
        ]
        assert shapes[0] == shapes[1] == shapes[2]
        assert repr(shapes[0]) == repr(shapes[1]) == repr(shapes[2])


def test_a_repeated_keyword_is_one_terminal(mini_graph, builder):
    expanded = builder.expand(mini_graph, ["membrane", "Membrane", "title"])
    assert list(expanded.keyword_nodes) == ["membrane", "title"]
    assert expanded.terminals == (keyword_node_id("membrane"), keyword_node_id("title"))


def test_a_needle_read_after_admission_gains_the_source_once(mini_catalog):
    """Inside a batch registration a view may pull after the catalog and the
    profile index hold a source but before the builder is told of it: the
    needle it reads then already holds the source's cells, and the builder's
    ``add_source`` must not append them again."""
    profiles = CatalogProfileIndex.from_catalog(mini_catalog)
    builder = QueryGraphBuilder(mini_catalog, profiles)
    extra = DataSource.build("extra", {"notes": ["acc"]}, data={"notes": [{"acc": "GO:0001"}]})
    mini_catalog.add_source(extra)
    profiles.index_source(extra)
    read_early = builder._value_cells("GO:0001")
    builder.add_source(extra)
    assert ("extra.notes", "acc", 0, "GO:0001") in read_early
    assert builder._value_cells("GO:0001") == read_early == profiled_builder(mini_catalog)._value_cells("GO:0001")
