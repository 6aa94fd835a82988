"""Query-graph expansion from keyword queries (paper Section 2.2, Figure 3).

Given a keyword query ``Q = {K1, ..., Km}``, the search graph is expanded
into a *query graph*:

* a keyword node is added for each ``Ki``;
* each keyword is matched against schema labels (relation and attribute
  names) with a keyword-similarity metric (tf-idf by default); matching
  nodes get a ``KEYWORD_MATCH`` edge whose cost is ``w * s`` where ``s`` is
  the mismatch cost and ``w`` an adjustable weight;
* data values matching the keyword are materialized lazily: a value node is
  added per matching cell, linked to its attribute node by a zero-cost
  ``VALUE_MEMBERSHIP`` edge and to the keyword node by a similarity edge.

The expansion returns a :class:`QueryGraph` wrapping the expanded
:class:`~repro.graph.search_graph.SearchGraph` plus the keyword node ids —
exactly what the Steiner-tree machinery needs as terminals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..datastore.database import Catalog
from ..datastore.indexes import ValueIndex
from ..similarity.tfidf import TfIdfScorer
from ..similarity.tokenize import token_set
from .edges import Edge, EdgeKind, derived_edge_id
from .features import DEFAULT_FEATURE, edge_feature
from .nodes import (
    Node,
    NodeKind,
    attribute_node_id,
    make_keyword_node,
    make_value_node,
)
from .search_graph import SearchGraph

# Feature carrying the keyword mismatch cost ``s`` on keyword-match edges.
KEYWORD_MISMATCH_FEATURE = "keyword_mismatch"


@dataclass
class KeywordMatch:
    """One match of a keyword against a schema element or data value."""

    keyword: str
    node_id: str
    similarity: float
    mismatch_cost: float
    target_kind: NodeKind


@dataclass
class QueryGraph:
    """An expanded query graph: base graph + keyword terminals.

    Attributes
    ----------
    graph:
        The expanded :class:`SearchGraph` (a copy of the base search graph
        sharing its weight vector, plus keyword and value nodes).
    keyword_nodes:
        Mapping from keyword text to its node id.
    matches:
        All keyword matches that produced edges, useful for debugging and
        for the examples.
    """

    graph: SearchGraph
    keyword_nodes: Dict[str, str] = field(default_factory=dict)
    matches: List[KeywordMatch] = field(default_factory=list)

    @property
    def terminals(self) -> Tuple[str, ...]:
        """The keyword node ids (the Steiner tree terminals)."""
        return tuple(self.keyword_nodes.values())

    def matches_for(self, keyword: str) -> List[KeywordMatch]:
        """The matches recorded for one keyword."""
        return [m for m in self.matches if m.keyword == keyword]


class QueryGraphBuilder:
    """Expands a search graph into a query graph for a keyword query.

    Parameters
    ----------
    catalog:
        The catalog backing the search graph (used to find matching data
        values).
    value_index:
        Optional pre-built :class:`ValueIndex`; built lazily from the
        catalog when omitted.
    scorer:
        Optional :class:`TfIdfScorer`; built from the catalog's schema
        labels and values when omitted.
    similarity_threshold:
        Minimum keyword similarity for a match edge to be added.
    max_value_matches:
        Cap on the number of value nodes materialized per keyword (the
        "lazy" expansion of the paper).
    keyword_match_weight:
        The starting weight ``w`` that scales the mismatch cost ``s``.
    """

    def __init__(
        self,
        catalog: Catalog,
        value_index: Optional[ValueIndex] = None,
        scorer: Optional[TfIdfScorer] = None,
        similarity_threshold: float = 0.3,
        max_value_matches: int = 25,
        keyword_match_weight: float = 1.0,
    ) -> None:
        self.catalog = catalog
        # Both corpus structures build lazily on first use: a reopened
        # session's views are saved as their definitions, so its builder pays
        # the full catalog scan only when the first of them is pulled.
        self._value_index = value_index
        self._scorer = scorer
        #: (base graph, its structure version, label token postings): see _label_postings.
        self._labels: Optional[Tuple[SearchGraph, int, Dict[str, List[Tuple[int, Node]]]]] = None
        self.similarity_threshold = similarity_threshold
        self.max_value_matches = max_value_matches
        self.keyword_match_weight = keyword_match_weight

    @property
    def value_index(self) -> ValueIndex:
        """The keyword→cell occurrence index (built from the catalog on demand)."""
        if self._value_index is None:
            self._value_index = ValueIndex.from_catalog(self.catalog)
        return self._value_index

    @property
    def scorer(self) -> TfIdfScorer:
        """The schema-label tf-idf scorer (built from the catalog on demand)."""
        if self._scorer is None:
            self._scorer = self._build_scorer(self.catalog)
        return self._scorer

    @staticmethod
    def _build_scorer(catalog: Catalog) -> TfIdfScorer:
        scorer = TfIdfScorer()
        for source in catalog:
            for table in source:
                scorer.add_document(table.schema.name)
                for attr in table.schema:
                    scorer.add_document(attr.name)
        return scorer

    def add_source(self, source) -> None:
        """Fold a newly registered source into the builder's shared state.

        Incremental counterpart of rebuilding the builder from the grown
        catalog: the value index gains the source's cells and the tf-idf
        scorer gains its schema-label documents, ending in exactly the state
        a from-scratch build over the grown catalog would produce.  Views
        holding this builder see the new source on their next rebuild.
        Structures that have not been built yet are left alone — their
        eventual lazy build over the grown catalog includes the source.
        """
        if self._value_index is not None:
            self._value_index.index_source(source)
        if self._scorer is not None:
            for table in source:
                self._scorer.add_document(table.schema.name)
                for attr in table.schema:
                    self._scorer.add_document(attr.name)

    def remove_source(self, source) -> None:
        """Retract a source admitted via :meth:`add_source`.

        The tf-idf scorer's document frequencies are decremented per label so
        corpus statistics return to their pre-registration values.  The value
        index is dropped and rebuilt on demand: retraction would leave a value
        where the removed source first put it, ahead of where a rebuild puts
        it, and a capped substring lookup reads that order.
        """
        self._value_index = None
        if self._scorer is not None:
            for table in source:
                self._scorer.remove_document(table.schema.name)
                for attr in table.schema:
                    self._scorer.remove_document(attr.name)

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def expand(self, base_graph: SearchGraph, keywords: Sequence[str]) -> QueryGraph:
        """Expand ``base_graph`` for ``keywords`` and return the query graph.

        Every edge added is named by its endpoints (:func:`derived_edge_id`),
        so expanding the same keywords over the same graph and corpus gives
        the same ids, and finds the weights learned under them in place.  A
        keyword repeated up to case is one keyword node, expanded once.
        """
        graph = base_graph.copy(share_weights=True)
        result = QueryGraph(graph=graph)
        labels = self._label_postings(base_graph)
        for keyword in keywords:
            keyword_node = make_keyword_node(keyword)
            if graph.has_node(keyword_node.node_id):
                continue
            graph.add_node(keyword_node)
            result.keyword_nodes[keyword] = keyword_node.node_id
            # Vectorised once: both passes score it against many strings.
            vector = self.scorer.vector(keyword)
            self._match_schema_elements(graph, keyword, vector, keyword_node, result, labels)
            self._match_data_values(graph, keyword, vector, keyword_node, result)
        return result

    # ------------------------------------------------------------------
    # Schema-element matching
    # ------------------------------------------------------------------
    def _label_postings(self, base_graph: SearchGraph) -> Dict[str, List[Tuple[int, Node]]]:
        """Label token -> ``(position, node)`` of each relation and attribute node
        of ``base_graph`` whose label has it, in graph order.

        One pass per structure version of the graph, shared by every view's
        expansion: a keyword is scored only against the labels sharing a token
        with it, since the others score ``0.0``.
        """
        held = self._labels
        if held is None or held[0] is not base_graph or held[1] != base_graph.structure_version:
            postings: Dict[str, List[Tuple[int, Node]]] = {}
            for position, node in enumerate(base_graph.nodes()):
                if node.kind in (NodeKind.RELATION, NodeKind.ATTRIBUTE):
                    for token in token_set(node.label):
                        postings.setdefault(token, []).append((position, node))
            held = self._labels = (base_graph, base_graph.structure_version, postings)
        return held[2]

    def _match_schema_elements(
        self, graph: SearchGraph, keyword: str, vector: Dict[str, float], keyword_node: Node,
        result: QueryGraph, labels: Dict[str, List[Tuple[int, Node]]],
    ) -> None:
        cosine = self.scorer.cosine
        if self.similarity_threshold > 0:
            found = {position: node for token in vector for position, node in labels.get(token, ())}
            nodes = [found[position] for position in sorted(found)]
        else:  # a zero score matches too: every label
            nodes = [node for node in graph.nodes() if node.kind in (NodeKind.RELATION, NodeKind.ATTRIBUTE)]
        for node in nodes:
            similarity = cosine(vector, node.label)
            if similarity < self.similarity_threshold:
                continue
            mismatch = 1.0 - similarity
            self._add_match_edge(graph, keyword_node.node_id, node.node_id, mismatch)
            result.matches.append(
                KeywordMatch(
                    keyword=keyword,
                    node_id=node.node_id,
                    similarity=similarity,
                    mismatch_cost=mismatch,
                    target_kind=node.kind,
                )
            )

    # ------------------------------------------------------------------
    # Lazy value matching
    # ------------------------------------------------------------------
    def _match_data_values(
        self, graph: SearchGraph, keyword: str, vector: Dict[str, float], keyword_node: Node,
        result: QueryGraph,
    ) -> None:
        occurrences = self.value_index.lookup(keyword)
        if not occurrences:
            occurrences = self.value_index.lookup_substring(
                keyword, limit=self.max_value_matches
            )
        seen_cells: Set[Tuple[str, str, int]] = set()
        # A value repeated across cells is scored once.
        scores: Dict[str, float] = {}
        added = 0
        for occurrence in occurrences:
            if added >= self.max_value_matches:
                break
            cell = (occurrence.relation, occurrence.attribute, occurrence.row_id)
            if cell in seen_cells:
                continue
            seen_cells.add(cell)
            similarity = scores.get(occurrence.value)
            if similarity is None:
                similarity = scores[occurrence.value] = self.scorer.cosine(vector, occurrence.value)
            if similarity < self.similarity_threshold:
                # Exact-substring matches of very short keywords can still
                # score low under tf-idf; fall back to a containment bonus.
                if keyword.lower() in occurrence.value.lower():
                    similarity = max(similarity, 0.5)
                else:
                    continue
            mismatch = 1.0 - similarity
            value_node = make_value_node(
                occurrence.relation, occurrence.attribute, occurrence.row_id, occurrence.value
            )
            graph.add_node(value_node)
            attr_id = attribute_node_id(occurrence.relation, occurrence.attribute)
            if graph.has_node(attr_id) and not graph.find_edges(
                value_node.node_id, attr_id, EdgeKind.VALUE_MEMBERSHIP
            ):
                edge_id = derived_edge_id(EdgeKind.VALUE_MEMBERSHIP, value_node.node_id, attr_id)
                graph.add_edge(
                    Edge(edge_id, value_node.node_id, attr_id, EdgeKind.VALUE_MEMBERSHIP, fixed_cost=0.0)
                )
            self._add_match_edge(graph, keyword_node.node_id, value_node.node_id, mismatch)
            result.matches.append(
                KeywordMatch(
                    keyword=keyword,
                    node_id=value_node.node_id,
                    similarity=similarity,
                    mismatch_cost=mismatch,
                    target_kind=NodeKind.VALUE,
                )
            )
            added += 1

    # ------------------------------------------------------------------
    # Edge construction
    # ------------------------------------------------------------------
    def _add_match_edge(
        self, graph: SearchGraph, keyword_node_id: str, target_node_id: str, mismatch: float
    ) -> Edge:
        edge_id = derived_edge_id(EdgeKind.KEYWORD_MATCH, keyword_node_id, target_node_id)
        identity = edge_feature(edge_id)
        if KEYWORD_MISMATCH_FEATURE not in graph.weights:
            graph.weights.set(KEYWORD_MISMATCH_FEATURE, self.keyword_match_weight)
        # Ensure keyword-match edges always carry a small positive base cost
        # even for perfect matches, so that Steiner trees prefer fewer hops.
        if identity not in graph.weights:
            graph.weights.set(identity, 0.05)
        features = {KEYWORD_MISMATCH_FEATURE: mismatch, identity: 1.0}
        return graph.add_edge(
            Edge(edge_id, keyword_node_id, target_node_id, EdgeKind.KEYWORD_MATCH, features, metadata={"mismatch": mismatch})
        )
