"""The batch install lane against the one-edge-at-a-time loop it replaced.

``SearchGraph.add_associations`` installs a registration's grouped rows in one
call: node ids, ``matcher::`` weights and ``relation::`` names resolved once,
the containers written inline, one structure stamp for the batch.  Whatever
the input — repeated pairs, both orientations of a pair, several matchers,
pairs that already have an edge, self-relation pairs — the graph must come
out exactly as ``tests/reference_install.py`` leaves it: edge ids and order,
endpoints, features in key order, metadata, the pair index, the structure
version, the edge sequence and bit-identical costs.  Top-Y selection is held
to its old stable sort the same way.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_install import reference_install, reference_top_y
from repro.alignment import install_associations
from repro.graph import SearchGraph, make_attribute_node
from repro.graph.edges import ALIGNER_ORIGIN
from repro.matching.base import AttributeRef, Correspondence, top_y_per_attribute

RELATIONS = ("a.r", "a.s", "b.r", "c.t")
ATTRIBUTES = ("x", "y", "z")
MATCHERS = ("m1", "m2", "m3")
CONFIDENCES = (0.25, 0.5, 0.5, 0.75, 1.0, 0.3333333333333333)


def correspondences(rng: random.Random, count: int):
    """Drawn from a small space, so pairs repeat, flip and share relations."""
    def ref():
        return AttributeRef(rng.choice(RELATIONS), rng.choice(ATTRIBUTES))

    made = []
    for _ in range(count):
        source = ref()
        # Every fifth a self-relation pair (sometimes the very same attribute).
        target = AttributeRef(source.relation, rng.choice(ATTRIBUTES)) if rng.random() < 0.2 else ref()
        made.append(Correspondence(source, target, rng.choice(CONFIDENCES), rng.choice(MATCHERS)))
    return made


def twin_graphs(rng: random.Random, existing):
    """Two equal graphs: some attribute nodes present, ``existing`` installed the old way."""
    graphs = []
    for _ in range(2):
        graph = SearchGraph()
        for relation in RELATIONS[:2]:
            for attribute in ATTRIBUTES[:2]:
                graph.add_node(make_attribute_node(relation, attribute))
        reference_install(graph, existing)
        graphs.append(graph)
    return graphs


def graph_state(graph: SearchGraph):
    edges = [
        (
            edge.edge_id, edge.u, edge.v, edge.kind, list(edge.features.items()),
            edge.stored_metadata, dict(edge.metadata), edge.cost(graph.weights).hex(),
        )
        for edge in graph.edges()
    ]
    return {
        "nodes": list(graph._nodes),
        "edges": edges,
        "adjacency": graph._adjacency,
        "pairs": list(graph._pairs.items()),
        "weights": list(graph.weights.items()),
        "structure_version": graph.structure_version,
        "next_edge_number": graph.next_edge_number,
    }


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**9), st.integers(0, 12), st.integers(1, 40))
def test_the_batch_installs_what_the_loop_did(seed, existing_count, count):
    rng = random.Random(seed)
    batch_graph, loop_graph = twin_graphs(rng, correspondences(rng, existing_count))
    incoming = correspondences(rng, count)
    batch = install_associations(batch_graph, incoming)
    loop = reference_install(loop_graph, incoming)
    assert [edge.edge_id for edge in batch] == [edge.edge_id for edge in loop]
    # Random weights on every feature: the costs must sum in the same order.
    for name in sorted({name for edge in loop_graph.edges() for name in edge.features}):
        weight = rng.uniform(-2.0, 2.0)
        batch_graph.weights.set(name, weight)
        loop_graph.weights.set(name, weight)
    assert graph_state(batch_graph) == graph_state(loop_graph)
    assert all(edge.stored_metadata is ALIGNER_ORIGIN for edge in batch)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**9), st.integers(0, 60), st.integers(1, 4))
def test_top_y_keeps_the_stable_sort(seed, count, y):
    incoming = correspondences(random.Random(seed), count)
    kept, reference = top_y_per_attribute(incoming, y), reference_top_y(incoming, y)
    assert len(kept) == len(reference) and all(a is b for a, b in zip(kept, reference))
    assert top_y_per_attribute(incoming, y, min_confidence=0.5) == reference_top_y(incoming, y, min_confidence=0.5)


def test_a_batch_takes_one_stamp():
    graph = SearchGraph()
    rows = [
        (AttributeRef("a.r", "x"), AttributeRef(f"b{i}.r", "y"), {"m": 0.5}) for i in range(20)
    ] + [(AttributeRef("a.r", "x"), AttributeRef("b0.r", "y"), {"n": 0.25})]  # a merge, and new nodes
    version = graph.structure_version
    before = SearchGraph().structure_stamp
    graph.add_associations(rows, ALIGNER_ORIGIN)
    after = SearchGraph().structure_stamp
    assert after - before == 2 and graph.structure_stamp == after - 1
    assert graph.structure_version - version == 21 + 21  # one per node, one per edge and merge
    assert graph.next_edge_number == 20


def test_a_batch_that_raises_midway_still_takes_a_stamp():
    graph = SearchGraph()
    graph.add_node(make_attribute_node("a.r", "x"))
    stamp, version = graph.structure_stamp, graph.structure_version

    def rows():
        yield AttributeRef("a.r", "x"), AttributeRef("b.r", "y"), {"m": 0.5}
        yield AttributeRef("a.r", "x"), AttributeRef("c.r", "y"), {"m": "not a confidence"}

    with pytest.raises(ValueError):
        graph.add_associations(rows(), ALIGNER_ORIGIN)
    assert graph.structure_stamp != stamp
    assert graph.edge_count == 1 and graph.structure_version == version + 3  # two nodes, one edge
    assert graph.next_edge_number == 2  # the failed row took its number, as add_association did


def test_an_empty_batch_changes_nothing():
    graph = SearchGraph()
    stamp, version = graph.structure_stamp, graph.structure_version
    assert graph.add_associations((), ALIGNER_ORIGIN) == []
    assert (graph.structure_stamp, graph.structure_version) == (stamp, version)
