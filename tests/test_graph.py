"""Unit tests for the search graph, features, edges and neighborhoods."""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.exceptions import GraphError, UnknownNodeError
from repro.graph import (
    DEFAULT_FEATURE,
    Edge,
    EdgeKind,
    GraphConfig,
    NodeKind,
    SearchGraph,
    WeightVector,
    attribute_node_id,
    cost_neighborhood,
    edge_feature,
    keyword_node_id,
    make_attribute_node,
    make_keyword_node,
    make_relation_node,
    matcher_feature,
    neighborhood_relations,
    relation_feature,
    relation_node_id,
)


class TestFeatureVector:
    """An edge's feature vector is a plain dict the edge never writes into."""

    def test_get_default(self):
        weights = WeightVector({"a": 2.0, "unused": 7.0})
        assert weights.dot({"a": 1.0}) == 2.0  # a weight whose feature is absent adds nothing
        assert weights.dot({"missing": 3.0}) == 0.0  # a feature without a weight weighs 0

    def test_immutability_via_copies(self):
        graph = SearchGraph()
        first = graph.add_association("a.r", "x", "b.s", "y", {"m": 0.5})
        held = dict(first.features)
        second = graph.add_association("a.r", "x", "b.s", "y", {"n": 0.25})
        assert second is not first and second.features is not first.features
        assert first.features == held and matcher_feature("n") not in first.features
        assert second.features[matcher_feature("n")] == 0.25

    def test_merged(self):
        graph = SearchGraph()
        graph.add_association("a.r", "x", "b.s", "y", {"m": 0.5, "n": 0.1})
        merged = graph.add_association("a.r", "x", "b.s", "y", {"m": 0.75})
        assert merged.features[matcher_feature("m")] == 0.75  # the newer confidence wins
        assert merged.features[matcher_feature("n")] == 0.1

    def test_container_protocols(self):
        edge = SearchGraph().add_association("a.r", "x", "b.s", "y", {"m": 0.5})
        assert type(edge.features) is dict and not gc.is_tracked(edge.features)
        assert set(edge.features) == {
            DEFAULT_FEATURE, matcher_feature("m"), relation_feature("a.r"),
            relation_feature("b.s"), edge_feature(edge.edge_id),
        }
        membership = SearchGraph().new_edge("r", "a", EdgeKind.MEMBERSHIP)
        assert len(membership.features) == 0
        with pytest.raises(TypeError):
            membership.features["x"] = 1.0  # the shared empty vector is read-only


class TestWeightVector:
    def test_dot_product(self):
        weights = WeightVector({"a": 2.0, "b": -1.0})
        features = {"a": 1.0, "b": 0.5, "c": 10.0}
        assert weights.dot(features) == pytest.approx(1.5)

    def test_update_and_copy(self):
        weights = WeightVector({"a": 1.0})
        clone = weights.copy()
        weights.update({"a": 0.5, "b": 2.0})
        assert weights.get("a") == 1.5
        assert weights.get("b") == 2.0
        assert clone.get("a") == 1.0
        assert clone.get("b") == 0.0

    def test_distance(self):
        a = WeightVector({"x": 1.0})
        b = WeightVector({"x": 4.0, "y": 4.0})
        assert a.distance_to(b) == pytest.approx(5.0)

    @given(st.dictionaries(st.text(min_size=1, max_size=4), st.floats(-10, 10), max_size=6))
    def test_distance_to_self_is_zero_property(self, mapping):
        weights = WeightVector(mapping)
        assert weights.distance_to(weights.copy()) == pytest.approx(0.0)


class TestFeatureNames:
    def test_helpers(self):
        assert matcher_feature("mad") == "matcher::mad"
        assert relation_feature("go.term") == "relation::go.term"
        assert edge_feature("e1").startswith("edge::")


class TestEdge:
    def test_zero_cost_kinds(self):
        node_a = make_relation_node("go.term")
        node_b = make_attribute_node("go.term", "acc")
        edge = SearchGraph().new_edge(node_a.node_id, node_b.node_id, EdgeKind.MEMBERSHIP)
        assert edge.fixed_cost == 0.0
        assert not edge.is_learnable()
        assert edge.cost(WeightVector({DEFAULT_FEATURE: 5.0})) == 0.0

    def test_learnable_cost_clamped(self):
        edge = SearchGraph().new_edge(
            "a", "b", EdgeKind.ASSOCIATION, features={"x": 1.0}
        )
        weights = WeightVector({"x": -5.0})
        assert edge.cost(weights, minimum=1e-3) == pytest.approx(1e-3)

    def test_other(self):
        edge = SearchGraph().new_edge("a", "b", EdgeKind.ASSOCIATION)
        assert edge.other("a") == "b"
        assert edge.other("b") == "a"
        with pytest.raises(ValueError):
            edge.other("c")


class TestSearchGraphConstruction:
    def test_add_catalog(self, mini_catalog):
        graph = SearchGraph()
        graph.add_catalog(mini_catalog)
        assert len(graph.relation_nodes()) == 5
        assert len(graph.attribute_nodes()) == 10
        # membership edges: one per attribute; foreign keys: 3
        assert len(graph.edges(EdgeKind.MEMBERSHIP)) == 10
        assert len(graph.edges(EdgeKind.FOREIGN_KEY)) == 3

    def test_adding_source_twice_is_idempotent(self, mini_catalog):
        graph = SearchGraph()
        graph.add_catalog(mini_catalog)
        nodes_before = graph.node_count
        edges_before = graph.edge_count
        graph.add_source(mini_catalog.source("go"))
        assert graph.node_count == nodes_before
        assert graph.edge_count == edges_before

    def test_unknown_node_errors(self, mini_graph):
        with pytest.raises(UnknownNodeError):
            mini_graph.node("missing")
        with pytest.raises(UnknownNodeError):
            mini_graph.edges_of("missing")
        with pytest.raises(UnknownNodeError):
            mini_graph.add_edge(mini_graph.new_edge("missing", "also_missing", EdgeKind.ASSOCIATION))

    def test_duplicate_edge_id_rejected(self, mini_graph):
        rel = relation_node_id("go.term")
        attr = attribute_node_id("go.term", "acc")
        edge = Edge("fixed-id", rel, attr, EdgeKind.MEMBERSHIP)
        mini_graph.add_edge(edge)
        with pytest.raises(GraphError):
            mini_graph.add_edge(Edge("fixed-id", rel, attr, EdgeKind.MEMBERSHIP))

    def test_edge_ids_are_numbered_by_the_graph(self):
        def number(edge):
            return int(edge.edge_id.rsplit("#", 1)[1])

        graph = SearchGraph()
        first = graph.new_edge("a", "b", EdgeKind.ASSOCIATION)
        assert first.edge_id == "association:a|b#0"
        assert number(graph.new_edge("a", "b", EdgeKind.FOREIGN_KEY)) == 1
        # A copy continues the sequence and the original sees it.
        clone = graph.copy()
        assert number(clone.new_edge("a", "c", EdgeKind.KEYWORD_MATCH)) == 2
        assert graph.next_edge_number == clone.next_edge_number == 3
        assert number(graph.new_edge("a", "d", EdgeKind.ASSOCIATION)) == 3
        assert number(clone.copy(share_weights=False).new_edge("a", "e", EdgeKind.ASSOCIATION)) == 4
        # What persistence and registration rollback use: set the next number.
        graph.next_edge_number = 40
        assert number(clone.new_edge("a", "f", EdgeKind.ASSOCIATION)) == 40
        # Two fresh graphs are independent.
        assert number(SearchGraph().new_edge("a", "b", EdgeKind.ASSOCIATION)) == 0
        assert graph.next_edge_number == 41

    def test_remove_edge(self, mini_graph):
        edge = mini_graph.association_edges()[0]
        mini_graph.remove_edge(edge.edge_id)
        assert not mini_graph.has_edge(edge.edge_id)
        with pytest.raises(GraphError):
            mini_graph.remove_edge(edge.edge_id)

    def test_attribute_nodes_of(self, mini_graph):
        attrs = mini_graph.attribute_nodes_of("go.term")
        assert {n.attribute for n in attrs} == {"acc", "name"}


class TestAssociations:
    def test_association_edge_cost_reflects_confidence(self, mini_graph):
        config = mini_graph.config
        edge = mini_graph.association_between("go.term", "acc", "interpro.interpro2go", "go_id")
        assert edge is not None
        expected = config.default_cost + config.initial_matcher_weight * 0.9
        assert mini_graph.edge_cost(edge) == pytest.approx(expected)

    def test_merging_second_matcher_on_same_edge(self, mini_graph):
        before = len(mini_graph.association_edges())
        edge = mini_graph.add_association(
            "go.term", "acc", "interpro.interpro2go", "go_id", {"metadata": 0.8}
        )
        assert len(mini_graph.association_edges()) == before
        assert edge.metadata["matchers"] == {"mad": 0.9, "metadata": 0.8}
        assert edge.features.get(matcher_feature("metadata")) == pytest.approx(0.8)

    def test_association_creates_missing_attribute_nodes(self):
        graph = SearchGraph()
        graph.add_association("a.r", "x", "b.s", "y", {"mad": 0.5})
        assert graph.has_node(attribute_node_id("a.r", "x"))
        assert graph.has_node(attribute_node_id("b.s", "y"))

    def test_matcher_weight_initialized_once(self, mini_graph):
        initial = mini_graph.weights.get(matcher_feature("mad"))
        mini_graph.weights.set(matcher_feature("mad"), -0.9)
        mini_graph.add_association("go.term", "name", "interpro.entry", "name", {"mad": 0.4})
        assert mini_graph.weights.get(matcher_feature("mad")) == -0.9
        assert initial == mini_graph.config.initial_matcher_weight


class TestShortestPathsAndNeighborhood:
    def test_shortest_path_costs(self, mini_graph):
        start = relation_node_id("go.term")
        distances = mini_graph.shortest_path_costs([start])
        # membership edges are free, so attributes of go.term are at cost 0.
        assert distances[attribute_node_id("go.term", "acc")] == 0.0
        # interpro2go is reachable through the association edge.
        assert relation_node_id("interpro.interpro2go") in distances

    def test_max_cost_prunes(self, mini_graph):
        start = relation_node_id("go.term")
        near = mini_graph.shortest_path_costs([start], max_cost=0.0)
        assert relation_node_id("interpro.interpro2go") not in near
        assert attribute_node_id("go.term", "name") in near

    def test_cost_neighborhood_and_relations(self, mini_graph):
        start = attribute_node_id("go.term", "acc")
        relations_near = neighborhood_relations(mini_graph, [start], alpha=0.0)
        assert relations_near == {"go.term"}
        relations_far = neighborhood_relations(mini_graph, [start], alpha=10.0)
        assert "interpro.pub" in relations_far

    def test_cost_neighborhood_missing_start(self, mini_graph):
        assert cost_neighborhood(mini_graph, ["missing"], alpha=1.0) == {}

    def test_unknown_source_node_raises(self, mini_graph):
        with pytest.raises(UnknownNodeError):
            mini_graph.shortest_path_costs(["missing"])


class TestCopy:
    def test_copy_shares_weights_but_not_structure(self, mini_graph):
        clone = mini_graph.copy(share_weights=True)
        edge = clone.association_edges()[0]
        clone.remove_edge(edge.edge_id)
        assert mini_graph.has_edge(edge.edge_id)
        # Weight changes propagate (shared vector).
        mini_graph.weights.set(DEFAULT_FEATURE, 7.0)
        assert clone.weights.get(DEFAULT_FEATURE) == 7.0

    def test_copy_independent_weights(self, mini_graph):
        clone = mini_graph.copy(share_weights=False)
        mini_graph.weights.set(DEFAULT_FEATURE, 9.0)
        assert clone.weights.get(DEFAULT_FEATURE) != 9.0


# ----------------------------------------------------------------------
# Model-based oracle: every lookup against a brute-force scan over edges()
# ----------------------------------------------------------------------
_POOL = [(f"s{s}.r", attribute) for s in range(3) for attribute in ("a", "b")]
_POOL_IDS = [attribute_node_id(*ref) for ref in _POOL]
_KINDS = (EdgeKind.ASSOCIATION, EdgeKind.FOREIGN_KEY, EdgeKind.MEMBERSHIP)
_refs = st.sampled_from(_POOL)
_picks = st.integers(min_value=0, max_value=10**6)


def _state(graph):
    """Everything a reader can see of ``graph``, edge contents included."""
    return (
        tuple(node.node_id for node in graph.nodes()),
        tuple(
            (edge.edge_id, edge.u, edge.v, edge.kind, dict(edge.features), repr(edge.metadata))
            for edge in graph.edges()
        ),
        tuple(
            tuple(edge.edge_id for edge in graph.edges_of(node.node_id)) for node in graph.nodes()
        ),
        tuple(
            tuple(edge.edge_id for edge in graph.find_edges(a, b))
            for a in _POOL_IDS
            for b in _POOL_IDS
        ),
    )


class SearchGraphMachine(RuleBasedStateMachine):
    """Random mutation of a :class:`SearchGraph`; after each step the indexed
    lookups must equal a scan over ``edges()`` and earlier copies must not move."""

    def __init__(self):
        super().__init__()
        self.graph = SearchGraph()
        self.copies = []

    @rule(ref=_refs)
    def add_node(self, ref):
        self.graph.add_node(make_attribute_node(*ref))

    @rule(a=_refs, b=_refs, kind=st.sampled_from(_KINDS))
    def add_edge(self, a, b, kind):
        # a == b gives a self-loop; repeats give parallel edges of any kind.
        for ref in (a, b):
            self.graph.add_node(make_attribute_node(*ref))
        self.graph.add_edge(self.graph.new_edge(attribute_node_id(*a), attribute_node_id(*b), kind))

    @rule(a=_refs, b=_refs, matcher=st.sampled_from(["m1", "m2"]), confidence=st.floats(0, 1))
    def add_association(self, a, b, matcher, confidence):
        before = self.graph.association_between(*a, *b)
        edge = self.graph.add_association(*a, *b, {matcher: confidence})
        assert edge.metadata["matchers"][matcher] == confidence
        if before is not None:  # copy-on-write merge: same id, new object
            assert edge.edge_id == before.edge_id and edge is not before
            assert matcher_feature(matcher) in edge.features

    @precondition(lambda self: self.graph.edge_count)
    @rule(pick=_picks)
    def remove_edge(self, pick):
        edges = self.graph.edges()
        self.graph.remove_edge(edges[pick % len(edges)].edge_id)

    @precondition(lambda self: self.graph.node_count)
    @rule(pick=_picks)
    def remove_node(self, pick):
        nodes = self.graph.nodes()
        self.graph.remove_node(nodes[pick % len(nodes)].node_id)

    @rule(source=st.sampled_from(["s0", "s1", "s2"]))
    def remove_source(self, source):
        self.graph.remove_source(source)

    @rule(swap=st.booleans())
    def copy(self, swap):
        clone = self.graph.copy()
        assert _state(clone) == _state(self.graph)
        if swap:  # keep mutating the clone; the original becomes the frozen one
            clone, self.graph = self.graph, clone
        self.copies.append((clone, _state(clone)))

    @invariant()
    def lookups_equal_a_scan(self):
        graph = self.graph
        scan = graph.edges()
        for a in _POOL_IDS:
            if graph.has_node(a):
                incident = tuple(e for e in scan if a in (e.u, e.v))
                assert graph.edges_of(a) == incident
                assert graph.neighbors(a) == tuple(e.other(a) for e in incident)
            for b in _POOL_IDS:
                between = tuple(e for e in scan if {e.u, e.v} == {a, b})
                assert graph.find_edges(a, b) == between
                for kind in _KINDS:
                    assert graph.find_edges(a, b, kind) == tuple(
                        e for e in between if e.kind is kind
                    )
        for a in _POOL:
            for b in _POOL:
                expected = graph.find_edges(
                    attribute_node_id(*a), attribute_node_id(*b), EdgeKind.ASSOCIATION
                )
                assert graph.association_between(*a, *b) is (expected[0] if expected else None)

    @invariant()
    def copies_do_not_move(self):
        for clone, state in self.copies:
            assert _state(clone) == state


TestSearchGraphModel = SearchGraphMachine.TestCase
TestSearchGraphModel.settings = settings(
    max_examples=25, stateful_step_count=25, deadline=None, derandomize=True
)
