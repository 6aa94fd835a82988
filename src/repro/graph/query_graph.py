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

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..datastore.database import Catalog, DataSource
from ..datastore.table import Table
from ..datastore.types import canonicalize
from ..profiling.index import CatalogProfileIndex
from ..profiling.profiles import AttributeProfile, RelationProfile
from ..similarity.tfidf import TfIdfScorer
from ..similarity.tokenize import token_set
from .edges import Edge, EdgeKind, derived_edge_id
from .features import edge_feature
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

#: Needles whose cells a builder remembers (the least recently read goes first).
_REMEMBERED_NEEDLES = 256


class _Cell(NamedTuple):
    """One catalog cell holding a value that a keyword matched."""

    relation: str  # qualified relation name
    attribute: str
    row_id: int
    value: str  # canonical value


#: A needle's cells by value: values as a catalog scan first meets them, cells in scan order.
_Groups = Dict[str, List[_Cell]]

#: Tables in scan order, each with its relation's profile and attribute profiles.
_Tables = List[Tuple[Table, RelationProfile, Tuple[AttributeProfile, ...]]]


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
        The catalog backing the search graph (its cells are the data values
        a keyword can match).
    profile_index:
        The :class:`~repro.profiling.index.CatalogProfileIndex` over
        ``catalog``.  It names the attributes holding a keyword's values, so
        a lookup reads only their columns.  Its owner keeps it in step with
        registrations and removals, and a table write marks the table stale
        in it; each expansion first re-profiles what is stale
        (:meth:`CatalogProfileIndex.reprofile_stale`).
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
        profile_index: CatalogProfileIndex,
        scorer: Optional[TfIdfScorer] = None,
        similarity_threshold: float = 0.3,
        max_value_matches: int = 25,
        keyword_match_weight: float = 1.0,
    ) -> None:
        self.catalog = catalog
        self.profile_index = profile_index
        # The scorer builds lazily on first use: a reopened session's views
        # are saved as their definitions, so its builder pays the catalog
        # scan only when the first of them is pulled.
        self._scorer = scorer
        #: (needle, cap) -> (names of the sources read, the needle's cells): see _groups.
        self._postings: "OrderedDict[Tuple[str, Optional[int]], Tuple[Set[str], _Groups]]" = OrderedDict()
        #: (profile index epoch, the catalog's tables as it profiles them): see _tables.
        self._layout: Optional[Tuple[int, _Tables]] = None
        #: (base graph, its structure version, label token postings): see _label_postings.
        self._labels: Optional[Tuple[SearchGraph, int, Dict[str, List[Tuple[int, Node]]]]] = None
        self.similarity_threshold = similarity_threshold
        self.max_value_matches = max_value_matches
        self.keyword_match_weight = keyword_match_weight

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

    def add_source(self, source: DataSource) -> None:
        """Fold a newly registered source into the builder's shared state,
        once the catalog and the profile index hold it.

        Each remembered needle's cells gain the source's, read from its
        matching columns: it is last in catalog order, so they go last, where
        a fresh read puts them (a needle first read since the catalog gained
        it, as inside a batch registration, holds them already).  The tf-idf
        scorer gains its schema-label documents unless it is still unbuilt.
        """
        self._tables()  # takes the source in: the cells read next come from it
        tables = self._profiled(source)
        for (needle, cap), (read, groups) in self._postings.items():
            if source.name not in read:
                read.add(source.name)
                self._read_cells(tables, needle, cap, groups)
        if self._scorer is not None:
            for table in source:
                self._scorer.add_document(table.schema.name)
                for attr in table.schema:
                    self._scorer.add_document(attr.name)

    def remove_source(self, source: DataSource) -> None:
        """Retract a source admitted via :meth:`add_source`.

        The tf-idf scorer's document frequencies are decremented per label so
        corpus statistics return to their pre-registration values.  The
        remembered cells are forgotten: a value the source held first moves
        to where the rest of the catalog first holds it, so each needle's
        next lookup reads its matching columns again.
        """
        self._postings.clear()
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
        self.profile_index.reprofile_stale()
        self._tables()  # forgets the remembered cells if a profile moved
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
        # A value repeated across cells is scored once.
        scores: Dict[str, float] = {}
        added = 0
        for relation, attribute, row_id, value in self._value_cells(keyword):
            if added >= self.max_value_matches:
                break
            similarity = scores.get(value)
            if similarity is None:
                similarity = scores[value] = self.scorer.cosine(vector, value)
            if similarity < self.similarity_threshold:
                # Exact-substring matches of very short keywords can still
                # score low under tf-idf; fall back to a containment bonus.
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

    def _value_cells(self, keyword: str) -> List[_Cell]:
        """Every cell holding ``keyword``'s canonical form; failing that, the
        first ``max_value_matches`` cells whose value contains the lowered
        keyword, value by value."""
        canon = canonicalize(keyword)
        if canon is not None:
            exact = self._groups(canon, None)
            if exact:
                return list(exact[canon])
        cap = self.max_value_matches
        cells: List[_Cell] = []
        for group in self._groups(keyword.lower(), cap).values():
            cells.extend(group)
            if len(cells) >= cap:
                return cells[:cap]
        return cells

    def _groups(self, needle: str, cap: Optional[int]) -> _Groups:
        """The cells whose value equals ``needle`` (``cap`` is ``None``), or the
        groups holding the first ``cap`` cells whose value contains it (and
        perhaps more), remembered (see :meth:`add_source`, :meth:`remove_source`)."""
        key = (needle, cap)
        held = self._postings.get(key)
        if held is not None:
            self._postings.move_to_end(key)
            return held[1]
        groups: _Groups = {}
        self._read_cells(self._tables(), needle, cap, groups)
        self._postings[key] = (set(self.catalog.source_names()), groups)
        if len(self._postings) > _REMEMBERED_NEEDLES:
            self._postings.popitem(last=False)
        return groups

    def _read_cells(self, tables: _Tables, needle: str, cap: Optional[int], groups: _Groups) -> None:
        """Append the cells of ``tables`` matching ``needle`` (see :meth:`_groups`)
        to ``groups`` in scan order: tables in the given order, rows in row-id
        order, attributes in schema order.  Only the columns whose profiled
        values match are read, and a substring read stops once its first
        ``cap`` cells are settled: no later table holds more of their values."""
        plan = []
        last: Dict[str, int] = {}  # matching value -> the last table in the plan holding it
        for table, relation_profile, profiles in tables:
            columns = []
            for position, profile in enumerate(profiles):
                if cap is None:
                    wanted = {needle} if needle in profile.distinct_values else None
                elif needle in profile.lowered_values:
                    wanted = {value for value in profile.distinct_values if needle in value.lower()}
                else:
                    continue
                if wanted:
                    columns.append((position, profile.attribute, wanted))
                    for value in wanted:
                        last[value] = len(plan)
            if columns:
                plan.append((table, relation_profile.relation, columns))
        for number, (table, relation, columns) in enumerate(plan):
            for row in table.scan():
                for position, attribute, wanted in columns:
                    value = canonicalize(row.values[position])
                    if value in wanted:
                        groups.setdefault(value, []).append(_Cell(relation, attribute, row.row_id, value))
            if cap is not None and self._settled(groups, last, number, cap):
                return

    @staticmethod
    def _settled(groups: _Groups, last: Dict[str, int], number: int, cap: int) -> bool:
        """Whether the first ``cap`` cells of ``groups`` stay as they are once
        table ``number`` of a read is in: a later cell of a value goes after
        its group's, and a later value after every group."""
        count = 0
        for value, cells in groups.items():
            count += len(cells)
            if count >= cap:
                return True
            if last.get(value, -1) > number:
                return False
        return False

    def _tables(self) -> _Tables:
        """The catalog's profiled tables in scan order, one pass per profile
        index epoch.  A new pass forgets every remembered cell if a profile of
        the last one moved: its table was appended to and re-profiled, or its
        source left (as a failed batch registration's do)."""
        index = self.profile_index
        held = self._layout
        if held is not None and held[0] == index.epoch:
            return held[1]
        if held is not None and any(index.relation_profile(rp.relation) is not rp for _, rp, _ in held[1]):
            self._postings.clear()
        tables = [entry for source in self.catalog for entry in self._profiled(source)]
        self._layout = (index.epoch, tables)
        return tables

    def _profiled(self, source: DataSource) -> _Tables:
        index = self.profile_index
        tables = []
        for table in source:
            relation_profile = index.relation_profile(table.schema.qualified_name)
            if relation_profile is not None:
                tables.append((table, relation_profile, index.profiles_of(relation_profile.relation)))
        return tables

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
