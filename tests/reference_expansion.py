"""The seed keyword scoring and query-graph expansion, kept as an oracle.

``seed_similarity`` is ``TfIdfScorer.similarity`` as it was before the
scorer learned to take a keyword's vector once: both strings are vectorised
on every call.  ``reference_expand`` is ``QueryGraphBuilder.expand`` as it was
then, scoring every relation, attribute and value with ``seed_similarity``
(each keyword against every label, each cell's value on its own), reading
the matching cells by a brute-force scan of the catalog
(:func:`reference_values.reference_value_cells`), building each edge itself
and naming it by its kind and endpoints (``kind:u|v``), with a keyword
repeated up to case expanded once.  The live code must reproduce both bit
for bit.
"""

from __future__ import annotations

import math
from typing import Set, Tuple

from reference_values import reference_value_cells

from repro.graph import (
    Edge,
    EdgeKind,
    KeywordMatch,
    NodeKind,
    QueryGraph,
    QueryGraphBuilder,
    SearchGraph,
    edge_feature,
)
from repro.graph.nodes import attribute_node_id, make_keyword_node, make_value_node
from repro.graph.query_graph import KEYWORD_MISMATCH_FEATURE
from repro.similarity import TfIdfScorer


def seed_similarity(scorer: TfIdfScorer, a: str, b: str) -> float:
    """Cosine similarity of the tf-idf vectors of ``a`` and ``b``, in [0, 1]."""
    vec_a = scorer.vector(a)
    vec_b = scorer.vector(b)
    if not vec_a or not vec_b:
        return 0.0
    dot = sum(weight * vec_b.get(token, 0.0) for token, weight in vec_a.items())
    norm_a = math.sqrt(sum(w * w for w in vec_a.values()))
    norm_b = math.sqrt(sum(w * w for w in vec_b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def reference_expand(builder: QueryGraphBuilder, base_graph: SearchGraph, keywords) -> QueryGraph:
    """``builder.expand(base_graph, keywords)`` with every string scored per call."""
    graph = base_graph.copy(share_weights=True)
    result = QueryGraph(graph=graph)
    for keyword in keywords:
        keyword_node = make_keyword_node(keyword)
        if keyword_node.node_id in result.keyword_nodes.values():
            continue
        graph.add_node(keyword_node)
        result.keyword_nodes[keyword] = keyword_node.node_id
        _match_schema_elements(builder, graph, keyword, keyword_node, result)
        _match_data_values(builder, graph, keyword, keyword_node, result)
    return result


def _match_schema_elements(builder, graph, keyword, keyword_node, result) -> None:
    for node in graph.nodes():
        if node.kind not in (NodeKind.RELATION, NodeKind.ATTRIBUTE):
            continue
        similarity = seed_similarity(builder.scorer, keyword, node.label)
        if similarity < builder.similarity_threshold:
            continue
        mismatch = 1.0 - similarity
        _add_match_edge(builder, graph, keyword_node.node_id, node.node_id, mismatch)
        result.matches.append(
            KeywordMatch(keyword, node.node_id, similarity, mismatch, node.kind)
        )


def _match_data_values(builder, graph, keyword, keyword_node, result) -> None:
    seen_cells: Set[Tuple[str, str, int]] = set()
    added = 0
    for relation, attribute, row_id, value in reference_value_cells(
        builder.catalog, keyword, builder.max_value_matches
    ):
        if added >= builder.max_value_matches:
            break
        cell = (relation, attribute, row_id)
        if cell in seen_cells:
            continue
        seen_cells.add(cell)
        similarity = seed_similarity(builder.scorer, keyword, value)
        if similarity < builder.similarity_threshold:
            if keyword.lower() in value.lower():
                similarity = max(similarity, 0.5)
            else:
                continue
        mismatch = 1.0 - similarity
        value_node = make_value_node(relation, attribute, row_id, value)
        graph.add_node(value_node)
        attr_id = attribute_node_id(relation, attribute)
        if graph.has_node(attr_id) and not graph.find_edges(
            value_node.node_id, attr_id, EdgeKind.VALUE_MEMBERSHIP
        ):
            edge_id = f"{EdgeKind.VALUE_MEMBERSHIP.value}:{value_node.node_id}|{attr_id}"
            graph.add_edge(Edge(edge_id, value_node.node_id, attr_id, EdgeKind.VALUE_MEMBERSHIP, fixed_cost=0.0))
        _add_match_edge(builder, graph, keyword_node.node_id, value_node.node_id, mismatch)
        result.matches.append(
            KeywordMatch(keyword, value_node.node_id, similarity, mismatch, NodeKind.VALUE)
        )
        added += 1


def _add_match_edge(builder, graph, keyword_node_id, target_node_id, mismatch) -> None:
    edge_id = f"{EdgeKind.KEYWORD_MATCH.value}:{keyword_node_id}|{target_node_id}"
    identity = edge_feature(edge_id)
    if KEYWORD_MISMATCH_FEATURE not in graph.weights:
        graph.weights.set(KEYWORD_MISMATCH_FEATURE, builder.keyword_match_weight)
    if identity not in graph.weights:
        graph.weights.set(identity, 0.05)
    features = {KEYWORD_MISMATCH_FEATURE: mismatch, identity: 1.0}
    graph.add_edge(
        Edge(edge_id, keyword_node_id, target_node_id, EdgeKind.KEYWORD_MATCH, features, metadata={"mismatch": mismatch})
    )
