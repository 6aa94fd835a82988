"""Association install one edge at a time: the loop the batch lane replaced.

Before :meth:`~repro.graph.search_graph.SearchGraph.add_associations`,
``install_associations`` grouped its correspondences and called
``add_association`` once per attribute pair; each call formatted both node
ids, checked the matcher weights, looked the pair up, and either merged into
the pair's association (``replace_edge``) or built the standard feature
vector and added a new edge (``add_edge``), each step bumping the structure
version and taking a stamp.  Top-Y selection ranked ``((-confidence, pair),
correspondence)`` entries with a stable sort.  That path is kept here, on the
graph's public primitives, as the oracle the batch is compared against.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.graph.edges import ALIGNER_ORIGIN, Edge, EdgeKind
from repro.graph.features import DEFAULT_FEATURE, edge_feature, matcher_feature, relation_feature
from repro.graph.nodes import attribute_node_id, make_attribute_node
from repro.graph.search_graph import SearchGraph
from repro.matching.base import Correspondence


def reference_top_y(correspondences: Iterable[Correspondence], y: int, min_confidence: float = 0.0) -> List[Correspondence]:
    rank = itemgetter(0)
    by_attribute: Dict[str, List[tuple]] = defaultdict(list)
    for correspondence in correspondences:
        if correspondence.confidence < min_confidence:
            continue
        key = correspondence.key()
        ranked = ((-correspondence.confidence, key), correspondence)
        for attribute in key:
            by_attribute[attribute].append(ranked)
    kept: Dict[Tuple[Tuple[str, str], str], tuple] = {}
    for candidates in by_attribute.values():
        candidates.sort(key=rank)
        for ranked in candidates[:y]:
            (_, pair), correspondence = ranked
            existing = kept.get((pair, correspondence.matcher))
            if existing is None or correspondence.confidence > existing[1].confidence:
                kept[(pair, correspondence.matcher)] = ranked
    return [correspondence for _, correspondence in sorted(kept.values(), key=rank)]


def reference_group(correspondences: Iterable[Correspondence]) -> Dict[Tuple[str, str], tuple]:
    grouped: Dict[Tuple[str, str], Tuple[Correspondence, Dict[str, float]]] = {}
    for correspondence in correspondences:
        entry = grouped.setdefault(correspondence.key(), (correspondence, {}))
        existing = entry[1].get(correspondence.matcher)
        if existing is None or correspondence.confidence > existing:
            entry[1][correspondence.matcher] = correspondence.confidence
    return grouped


def reference_add_association(
    graph: SearchGraph,
    relation_a: str,
    attribute_a: str,
    relation_b: str,
    attribute_b: str,
    matcher_confidences: Optional[Mapping[str, float]] = None,
    metadata: Optional[Mapping[str, object]] = None,
) -> Edge:
    u = attribute_node_id(relation_a, attribute_a)
    v = attribute_node_id(relation_b, attribute_b)
    if not graph.has_node(u):
        graph.add_node(make_attribute_node(relation_a, attribute_a))
    if not graph.has_node(v):
        graph.add_node(make_attribute_node(relation_b, attribute_b))
    for name in matcher_confidences or ():
        if matcher_feature(name) not in graph.weights:
            graph.weights.set(matcher_feature(name), graph.config.initial_matcher_weight)
    existing = graph.find_edges(u, v, EdgeKind.ASSOCIATION)
    if existing:
        return graph.replace_edge(existing[0].with_matchers(matcher_confidences or {}, metadata or {}))
    edge_id = graph.new_edge_id(u, v, EdgeKind.ASSOCIATION)
    features = {DEFAULT_FEATURE: 1.0}
    for name, confidence in (matcher_confidences or {}).items():
        features[matcher_feature(name)] = float(confidence)
    for relation in (relation_a, relation_b):
        features[relation_feature(relation)] = 1.0
    features[edge_feature(edge_id)] = 1.0
    return graph.add_edge(Edge(edge_id, u, v, EdgeKind.ASSOCIATION, features, metadata=metadata))


def reference_install(graph: SearchGraph, correspondences: Iterable[Correspondence]) -> List[Edge]:
    return [
        reference_add_association(
            graph, c.source.relation, c.source.attribute, c.target.relation, c.target.attribute,
            confidences, ALIGNER_ORIGIN,
        )
        for c, confidences in reference_group(correspondences).values()
    ]
