"""Search graph, query graph, features and cost model.

Public API
----------
* :class:`SearchGraph`, :class:`GraphConfig` — the graph of relations,
  attributes and associations (paper Section 2.1).
* :class:`Node`, :class:`NodeKind`, :class:`Edge`, :class:`EdgeKind` — graph
  elements.
* :class:`WeightVector` and the feature-name helpers — the weighted-feature
  edge cost model (paper Section 3.4); an edge's features are a plain dict.
* :class:`QueryGraphBuilder`, :class:`QueryGraph` — keyword-query expansion
  (paper Section 2.2).
* :func:`cost_neighborhood`, :func:`neighborhood_relations` — α-cost
  neighborhoods used by the view-based aligner (paper Section 3.3).
"""

from .edges import Edge, EdgeKind
from .features import (
    DEFAULT_FEATURE,
    WeightVector,
    edge_feature,
    matcher_feature,
    relation_feature,
)
from .neighborhood import cost_neighborhood, neighborhood_relations
from .nodes import (
    Node,
    NodeKind,
    attribute_node_id,
    keyword_node_id,
    make_attribute_node,
    make_keyword_node,
    make_relation_node,
    make_value_node,
    relation_node_id,
    value_node_id,
)
from .query_graph import KEYWORD_MISMATCH_FEATURE, KeywordMatch, QueryGraph, QueryGraphBuilder
from .search_graph import GraphConfig, SearchGraph

__all__ = [
    "DEFAULT_FEATURE",
    "Edge",
    "EdgeKind",
    "GraphConfig",
    "KEYWORD_MISMATCH_FEATURE",
    "KeywordMatch",
    "Node",
    "NodeKind",
    "QueryGraph",
    "QueryGraphBuilder",
    "SearchGraph",
    "WeightVector",
    "attribute_node_id",
    "cost_neighborhood",
    "edge_feature",
    "keyword_node_id",
    "make_attribute_node",
    "make_keyword_node",
    "make_relation_node",
    "make_value_node",
    "matcher_feature",
    "neighborhood_relations",
    "relation_feature",
    "relation_node_id",
    "value_node_id",
]
