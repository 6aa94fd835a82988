"""The search graph (paper Section 2.1).

The search graph is the data model queried by Q.  It contains relation and
attribute nodes connected by zero-cost membership edges, foreign-key edges
with a default cost, and association (alignment) edges whose cost is a
weighted sum of features.  Data-value nodes are materialized lazily at query
time (see :mod:`repro.graph.query_graph`).

The graph numbers the edges it is built from (:meth:`SearchGraph.new_edge_id`):
a fresh graph starts at 0 and every :meth:`SearchGraph.copy` continues the
sequence, so edge ids — which name per-edge features and break cost ties —
depend on how the session was built and on nothing else in the process.  A
query-graph expansion takes no number: the edges it derives are named by their
endpoints (:func:`~repro.graph.edges.derived_edge_id`).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

from ..datastore.database import Catalog, DataSource
from ..datastore.schema import AttributeRef, ForeignKey
from ..exceptions import GraphError, UnknownNodeError
from .edges import Edge, EdgeKind
from .features import (
    DEFAULT_FEATURE,
    NO_FEATURES,
    WeightVector,
    edge_feature,
    matcher_feature,
    relation_feature,
)
from .nodes import (
    Node,
    NodeKind,
    attribute_node_id,
    make_attribute_node,
    make_relation_node,
    relation_node_id,
)


@dataclass
class GraphConfig:
    """Tunable defaults for search-graph construction.

    Attributes
    ----------
    default_cost:
        Initial weight of the shared default feature — the uniform cost
        offset added to every learnable edge.
    foreign_key_cost:
        The paper's default foreign-key cost ``cd``; foreign-key edges start
        with this cost (expressed through their edge-identity feature).
    initial_matcher_weight:
        Initial weight given to each matcher's confidence feature.  Negative
        so that *higher* confidence yields *lower* cost.
    association_threshold:
        Association edges whose confidence is below this value are not added
        to the graph at all (keeps the graph from being flooded by noise).
    minimum_edge_cost:
        Numerical floor applied to learnable edge costs.
    """

    default_cost: float = 1.0
    foreign_key_cost: float = 0.5
    initial_matcher_weight: float = -0.5
    association_threshold: float = 0.0
    minimum_edge_cost: float = 1e-6


#: Structure stamps: unique in the process, handed out at every structural move.
_STAMPS = itertools.count(1)


def _pair(a: str, b: str) -> Tuple[str, str]:
    """Order-independent key of the node pair ``{a, b}``."""
    return (a, b) if a <= b else (b, a)


def _ids(held: Union[None, str, Tuple[str, ...]]) -> Tuple[str, ...]:
    """The edge ids an endpoint-pair index entry holds, in insertion order."""
    return () if held is None else (held,) if isinstance(held, str) else held


def _joined(held: Union[None, str, Tuple[str, ...]], edge_id: str) -> Union[str, Tuple[str, ...]]:
    """The endpoint-pair index entry ``held`` with ``edge_id`` added last."""
    return edge_id if held is None else (held, edge_id) if isinstance(held, str) else held + (edge_id,)


class SearchGraph:
    """Undirected multigraph of relations, attributes, values and keywords."""

    def __init__(self, config: Optional[GraphConfig] = None, weights: Optional[WeightVector] = None) -> None:
        self.config = config or GraphConfig()
        self.weights = weights if weights is not None else WeightVector({DEFAULT_FEATURE: self.config.default_cost})
        if DEFAULT_FEATURE not in self.weights:
            self.weights.set(DEFAULT_FEATURE, self.config.default_cost)
        self._nodes: Dict[str, Node] = {}
        self._edges: Dict[str, Edge] = {}
        self._adjacency: Dict[str, List[str]] = {}
        #: Endpoint-pair index: ``(u, v)`` with ``u <= v`` -> the id of the edge
        #: between them, or a tuple of ids in insertion order for parallel
        #: edges.  Values are immutable, so :meth:`copy` can share them.
        self._pairs: Dict[Tuple[str, str], Union[str, Tuple[str, ...]]] = {}
        #: The number the next new edge's id ends in, in a one-slot list that
        #: :meth:`copy` shares the way it shares ``weights``: no numbered id —
        #: and no ``edge::<id>`` feature of it — repeats within a session.  An
        #: expansion takes no number.  Mutated only by the single writer.
        self._edge_sequence: List[int] = [0]
        #: Bumped on every node/edge addition or removal; used together with
        #: ``weights.version`` to detect that Steiner-tree computations over
        #: this graph are still valid.
        self.structure_version = 0
        #: Names this graph's topology: a number no other structure in the
        #: process has, taken afresh at every ``structure_version`` bump and
        #: shared by :meth:`copy`.  Graphs with equal stamps hold the same node
        #: and edge objects, whatever their weight vectors, so the Steiner
        #: network cache indexes a topology once for all of them.  Taken here,
        #: not on first read, so concurrent readers of one graph see one stamp.
        self.structure_stamp = next(_STAMPS)

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Add ``node`` if not already present; returns the stored node."""
        existing = self._nodes.get(node.node_id)
        if existing is not None:
            return existing
        self._nodes[node.node_id] = node
        self._adjacency[node.node_id] = []
        self.structure_version += 1
        self.structure_stamp = next(_STAMPS)
        return node

    def node(self, node_id: str) -> Node:
        """Return the node with id ``node_id``."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def remove_node(self, node_id: str) -> Node:
        """Remove a node together with every incident edge."""
        try:
            node = self._nodes.pop(node_id)
        except KeyError:
            raise UnknownNodeError(node_id) from None
        # The node's own list goes at once; each incident edge only has to
        # leave the far endpoint's list.
        for edge_id in self._adjacency.pop(node_id):
            self._remove_edge(edge_id, gone=node_id)
        self.structure_version += 1
        self.structure_stamp = next(_STAMPS)
        return node

    def has_node(self, node_id: str) -> bool:
        """Whether ``node_id`` is present."""
        return node_id in self._nodes

    def nodes(self, kind: Optional[NodeKind] = None) -> Tuple[Node, ...]:
        """All nodes, optionally filtered by kind."""
        if kind is None:
            return tuple(self._nodes.values())
        return tuple(n for n in self._nodes.values() if n.kind is kind)

    def relation_nodes(self) -> Tuple[Node, ...]:
        """All relation nodes."""
        return self.nodes(NodeKind.RELATION)

    def attribute_nodes(self) -> Tuple[Node, ...]:
        """All attribute nodes."""
        return self.nodes(NodeKind.ATTRIBUTE)

    def attribute_nodes_of(self, qualified_relation: str) -> Tuple[Node, ...]:
        """Attribute nodes belonging to ``qualified_relation``."""
        return tuple(
            n
            for n in self._nodes.values()
            if n.kind is NodeKind.ATTRIBUTE and n.relation == qualified_relation
        )

    # ------------------------------------------------------------------
    # Edge management
    # ------------------------------------------------------------------
    def add_edge(self, edge: Edge) -> Edge:
        """Add ``edge``; both endpoints must already be nodes.

        The edge's ``u`` / ``v`` become the stored nodes' own id strings (equal
        to what it held), so an edge keeps no copy of either.
        """
        try:
            u, v = self._nodes[edge.u].node_id, self._nodes[edge.v].node_id
        except KeyError as missing:
            raise UnknownNodeError(missing.args[0]) from None
        if edge.edge_id in self._edges:
            raise GraphError(f"duplicate edge id {edge.edge_id!r}")
        edge.u, edge.v = u, v
        self._edges[edge.edge_id] = edge
        self._adjacency[edge.u].append(edge.edge_id)
        if edge.v != edge.u:
            self._adjacency[edge.v].append(edge.edge_id)
        pair = _pair(edge.u, edge.v)
        self._pairs[pair] = _joined(self._pairs.get(pair), edge.edge_id)
        self.structure_version += 1
        self.structure_stamp = next(_STAMPS)
        return edge

    def new_edge_id(self, u: str, v: str, kind: EdgeKind) -> str:
        """Take the graph's next number; the id of the edge about to be built with it."""
        number = self._edge_sequence[0]
        self._edge_sequence[0] = number + 1
        return f"{kind.value}:{u}|{v}#{number}"

    def new_edge(
        self,
        u: str,
        v: str,
        kind: EdgeKind,
        features: Mapping[str, float] = NO_FEATURES,
        fixed_cost: Optional[float] = None,
        metadata: Optional[Mapping[str, object]] = None,
    ) -> Edge:
        """Create (without adding) an edge whose id takes the graph's next number.

        An edge whose features name its id takes :meth:`new_edge_id` first and
        is built complete.  The edge keeps ``metadata`` itself, not a copy.
        """
        if kind.is_zero_cost() and fixed_cost is None:
            fixed_cost = 0.0
        return Edge(self.new_edge_id(u, v, kind), u, v, kind, features, fixed_cost, metadata)

    def replace_edge(self, edge: Edge) -> Edge:
        """Swap ``edge`` in for the edge that has its id and endpoints now.

        Copy-on-write, the one way an edge changes: graph copies made before
        (e.g. published read-snapshots of the serving layer) keep the old Edge
        in their own containers, so concurrent readers never see a
        half-changed edge.  The cost may move without the weight vector
        moving, so the structure version is bumped for version-based
        staleness checks (incremental refresh, lazy pull-based views).
        """
        old = self.edge(edge.edge_id)
        if _pair(old.u, old.v) != _pair(edge.u, edge.v):
            raise GraphError(f"edge {edge.edge_id!r} cannot move to other endpoints")
        self._edges[edge.edge_id] = edge
        self.structure_version += 1
        self.structure_stamp = next(_STAMPS)
        return edge

    @property
    def next_edge_number(self) -> int:
        """The number :meth:`new_edge` hands out next, on this graph or any copy.

        Settable for persistence (a reopened session goes on where the saved
        one stopped) and registration rollback (a failed attempt consumes none).
        """
        return self._edge_sequence[0]

    @next_edge_number.setter
    def next_edge_number(self, value: int) -> None:
        self._edge_sequence[0] = value

    def remove_edge(self, edge_id: str) -> Edge:
        """Remove and return the edge with id ``edge_id``."""
        return self._remove_edge(edge_id)

    def _remove_edge(self, edge_id: str, gone: Optional[str] = None) -> Edge:
        """Remove one edge; ``gone`` names an endpoint whose list is already dropped."""
        try:
            edge = self._edges.pop(edge_id)
        except KeyError:
            raise GraphError(f"unknown edge id {edge_id!r}") from None
        for endpoint in {edge.u, edge.v}:
            if endpoint != gone:
                self._adjacency[endpoint].remove(edge_id)
        pair = _pair(edge.u, edge.v)
        held = self._pairs[pair]
        if isinstance(held, str):
            del self._pairs[pair]
        else:
            rest = tuple(e for e in held if e != edge_id)
            self._pairs[pair] = rest[0] if len(rest) == 1 else rest
        self.structure_version += 1
        self.structure_stamp = next(_STAMPS)
        return edge

    def edge(self, edge_id: str) -> Edge:
        """Return the edge with id ``edge_id``."""
        try:
            return self._edges[edge_id]
        except KeyError:
            raise GraphError(f"unknown edge id {edge_id!r}") from None

    def has_edge(self, edge_id: str) -> bool:
        """Whether the edge id is present."""
        return edge_id in self._edges

    def edges(self, kind: Optional[EdgeKind] = None) -> Tuple[Edge, ...]:
        """All edges, optionally filtered by kind."""
        if kind is None:
            return tuple(self._edges.values())
        return tuple(e for e in self._edges.values() if e.kind is kind)

    def association_edges(self) -> Tuple[Edge, ...]:
        """All association (alignment) edges."""
        return self.edges(EdgeKind.ASSOCIATION)

    def learnable_edges(self) -> Tuple[Edge, ...]:
        """Edges whose cost the learner may change."""
        return tuple(e for e in self._edges.values() if e.is_learnable())

    def edges_of(self, node_id: str) -> Tuple[Edge, ...]:
        """Edges incident to ``node_id``."""
        if node_id not in self._adjacency:
            raise UnknownNodeError(node_id)
        return tuple(self._edges[eid] for eid in self._adjacency[node_id])

    def neighbors(self, node_id: str) -> Tuple[str, ...]:
        """Node ids adjacent to ``node_id``."""
        return tuple(edge.other(node_id) for edge in self.edges_of(node_id))

    def find_edges(self, a: str, b: str, kind: Optional[EdgeKind] = None) -> Tuple[Edge, ...]:
        """All edges between ``a`` and ``b`` (optionally of one kind), in the order added."""
        found = map(self._edges.__getitem__, _ids(self._pairs.get(_pair(a, b))))
        return tuple(edge for edge in found if kind is None or edge.kind is kind)

    # ------------------------------------------------------------------
    # Cost
    # ------------------------------------------------------------------
    def edge_cost(self, edge: Edge) -> float:
        """Cost of ``edge`` under the graph's current weights."""
        return edge.cost(self.weights, minimum=self.config.minimum_edge_cost)

    def edge_cost_by_id(self, edge_id: str) -> float:
        """Cost of the edge with id ``edge_id``."""
        return self.edge_cost(self.edge(edge_id))

    # ------------------------------------------------------------------
    # Construction from catalogs / sources
    # ------------------------------------------------------------------
    def add_source(self, source: DataSource) -> List[Node]:
        """Add relation/attribute nodes and membership + FK edges for ``source``.

        Returns the list of newly created relation and attribute nodes.
        """
        created: List[Node] = []
        for table in source:
            relation = table.schema.qualified_name
            rel_node = make_relation_node(relation)
            if not self.has_node(rel_node.node_id):
                created.append(self.add_node(rel_node))
            else:
                self.add_node(rel_node)
            for attr in table.schema:
                attr_node = make_attribute_node(relation, attr.name)
                if not self.has_node(attr_node.node_id):
                    created.append(self.add_node(attr_node))
                    self.add_edge(
                        self.new_edge(
                            rel_node.node_id,
                            attr_node.node_id,
                            EdgeKind.MEMBERSHIP,
                        )
                    )
        for fk in source.schema.foreign_keys:
            self.add_foreign_key(source.name, fk)
        return created

    def add_catalog(self, catalog: Catalog) -> None:
        """Add every source of ``catalog`` to the graph."""
        for source in catalog:
            self.add_source(source)

    def remove_source(self, source_name: str) -> List[Node]:
        """Remove every node (and incident edge) belonging to ``source_name``.

        The inverse of :meth:`add_source`, used by the registration
        service's failure-rollback path so an aborted registration leaves
        the graph exactly as it was.  Returns the removed nodes.
        """
        prefix = f"{source_name}."
        doomed = [
            node_id
            for node_id, node in self._nodes.items()
            if node.relation is not None and node.relation.startswith(prefix)
        ]
        removed: List[Node] = []
        for node_id in doomed:
            if node_id in self._nodes:
                removed.append(self.remove_node(node_id))
        return removed

    def add_foreign_key(self, source_name: str, fk: ForeignKey) -> Edge:
        """Add a foreign-key edge between the two relation nodes of ``fk``.

        The edge's initial cost is the configured ``foreign_key_cost``,
        realized through its edge-identity feature so that learning can
        later adjust it per edge.
        """
        src_rel = f"{source_name}.{fk.source_relation}" if "." not in fk.source_relation else fk.source_relation
        dst_rel = f"{source_name}.{fk.target_relation}" if "." not in fk.target_relation else fk.target_relation
        u = relation_node_id(src_rel)
        v = relation_node_id(dst_rel)
        for node_id, relation in ((u, src_rel), (v, dst_rel)):
            if not self.has_node(node_id):
                self.add_node(make_relation_node(relation))
        existing = self.find_edges(u, v, EdgeKind.FOREIGN_KEY)
        if existing:
            return existing[0]
        edge_id = self.new_edge_id(u, v, EdgeKind.FOREIGN_KEY)
        feature = edge_feature(edge_id)
        if feature not in self.weights:
            self.weights.set(feature, self.config.foreign_key_cost)
        features = {feature: 1.0}
        metadata = {"foreign_key": fk.as_tuple()}
        return self.add_edge(Edge(edge_id, u, v, EdgeKind.FOREIGN_KEY, features, metadata=metadata))

    # ------------------------------------------------------------------
    # Associations (alignments)
    # ------------------------------------------------------------------
    def add_association(
        self,
        relation_a: str,
        attribute_a: str,
        relation_b: str,
        attribute_b: str,
        matcher_confidences: Optional[Mapping[str, float]] = None,
        metadata: Optional[Mapping[str, object]] = None,
    ) -> Edge:
        """Add (or update) an association edge between two attributes.

        A one-row :meth:`add_associations`: a new edge, or the merge of
        ``matcher_confidences`` into the edge the pair already has.
        """
        row = (AttributeRef(relation_a, attribute_a), AttributeRef(relation_b, attribute_b), matcher_confidences or {})
        return self.add_associations((row,), metadata)[0]

    def add_associations(
        self,
        grouped: Iterable[Tuple[AttributeRef, AttributeRef, Mapping[str, float]]],
        metadata: Optional[Mapping[str, object]] = None,
    ) -> List[Edge]:
        """Install one batch of ``(source, target, {matcher: confidence})`` rows.

        A row adds an association edge from ``source`` to ``target``, adding
        either attribute node if missing, with the features of paper Section
        3.4 in this order: default, one ``matcher::`` confidence per matcher,
        the touched ``relation::`` features, the edge's own ``edge::``.  If the
        pair has an association already, the confidences merge into it and the
        merged edge replaces it (Section 3.2.3, :meth:`replace_edge`).  Every
        edge keeps ``metadata`` itself, not a copy: pass one shared record.
        Names are resolved once per batch; ``structure_version`` advances per
        node and edge, and the batch takes one structure stamp, on the way out
        even if a row raises.  Returns each row's edge.
        """
        nodes, edges, adjacency, pairs = self._nodes, self._edges, self._adjacency, self._pairs
        node_ids: Dict[str, str] = {}
        matcher_names: Dict[str, str] = {}
        relation_names: Dict[str, str] = {}

        def node_id_of(ref: AttributeRef) -> str:
            node = nodes.get(attribute_node_id(ref.relation, ref.attribute))
            if node is None:
                node = make_attribute_node(ref.relation, ref.attribute)
                nodes[node.node_id], adjacency[node.node_id] = node, []
                self.structure_version += 1
            node_ids[ref.qualified] = node.node_id
            return node.node_id

        installed: List[Edge] = []
        version = self.structure_version
        try:
            for source, target, confidences in grouped:
                u = node_ids.get(source.qualified) or node_id_of(source)
                v = node_ids.get(target.qualified) or node_id_of(target)
                for name in confidences:
                    if name not in matcher_names:
                        feature = matcher_names[name] = matcher_feature(name)
                        if feature not in self.weights:
                            self.weights.set(feature, self.config.initial_matcher_weight)
                pair = _pair(u, v)
                held = pairs.get(pair)
                existing = None
                for held_id in _ids(held):
                    if edges[held_id].kind is EdgeKind.ASSOCIATION:
                        existing = edges[held_id]
                        break
                if existing is not None:
                    edge = edges[existing.edge_id] = existing.with_matchers(confidences, metadata or {})
                    self.structure_version += 1
                    installed.append(edge)
                    continue
                edge_id = self.new_edge_id(u, v, EdgeKind.ASSOCIATION)
                if edge_id in edges:
                    raise GraphError(f"duplicate edge id {edge_id!r}")
                features = {DEFAULT_FEATURE: 1.0}
                for name, confidence in confidences.items():
                    features[matcher_names[name]] = float(confidence)
                for relation in (source.relation, target.relation):
                    feature = relation_names.get(relation)
                    if feature is None:
                        feature = relation_names[relation] = relation_feature(relation)
                    features[feature] = 1.0
                features[edge_feature(edge_id)] = 1.0
                edge = edges[edge_id] = Edge(edge_id, u, v, EdgeKind.ASSOCIATION, features, metadata=metadata)
                adjacency[u].append(edge_id)
                if v != u:
                    adjacency[v].append(edge_id)
                pairs[pair] = _joined(held, edge_id)
                self.structure_version += 1
                installed.append(edge)
        finally:
            if self.structure_version != version:
                self.structure_stamp = next(_STAMPS)
        return installed

    def association_between(
        self, relation_a: str, attribute_a: str, relation_b: str, attribute_b: str
    ) -> Optional[Edge]:
        """The association edge between two attributes, if present."""
        u = attribute_node_id(relation_a, attribute_a)
        v = attribute_node_id(relation_b, attribute_b)
        edges = self.find_edges(u, v, EdgeKind.ASSOCIATION)
        return edges[0] if edges else None

    # ------------------------------------------------------------------
    # Shortest paths
    # ------------------------------------------------------------------
    def shortest_path_costs(
        self,
        sources: Iterable[str],
        max_cost: Optional[float] = None,
        allowed_nodes: Optional[Set[str]] = None,
    ) -> Dict[str, float]:
        """Multi-source Dijkstra over edge costs.

        Parameters
        ----------
        sources:
            Node ids to start from (all at distance 0).
        max_cost:
            If given, nodes farther than this cost are not expanded or
            reported (used for the α-cost neighborhood).
        allowed_nodes:
            If given, the search is restricted to this node set.
        """
        distances: Dict[str, float] = {}
        heap: List[Tuple[float, str]] = []
        for source in sources:
            if source not in self._nodes:
                raise UnknownNodeError(source)
            distances[source] = 0.0
            heapq.heappush(heap, (0.0, source))
        while heap:
            dist, node_id = heapq.heappop(heap)
            if dist > distances.get(node_id, float("inf")):
                continue
            for edge in self.edges_of(node_id):
                neighbor = edge.other(node_id)
                if allowed_nodes is not None and neighbor not in allowed_nodes:
                    continue
                candidate = dist + self.edge_cost(edge)
                if max_cost is not None and candidate > max_cost:
                    continue
                if candidate < distances.get(neighbor, float("inf")):
                    distances[neighbor] = candidate
                    heapq.heappush(heap, (candidate, neighbor))
        if max_cost is not None:
            distances = {n: d for n, d in distances.items() if d <= max_cost}
        return distances

    # ------------------------------------------------------------------
    # Copying / stats
    # ------------------------------------------------------------------
    def copy(self, share_weights: bool = True) -> "SearchGraph":
        """A structural copy of the graph.

        Node and edge objects are shared (they are treated as immutable once
        added); the node/edge/adjacency containers are new, and numbered
        edges of either graph draw from the one shared sequence.  If
        ``share_weights`` is ``True``, the copy uses the *same*
        :class:`WeightVector` object so that learning updates affect both
        graphs — this is what the query-graph expansion wants.
        """
        clone = SearchGraph(
            config=self.config,
            weights=self.weights if share_weights else self.weights.copy(),
        )
        clone._nodes = dict(self._nodes)
        clone._edges = dict(self._edges)
        clone._adjacency = {node: list(edges) for node, edges in self._adjacency.items()}
        clone._pairs = dict(self._pairs)
        clone._edge_sequence = self._edge_sequence
        clone.structure_version = self.structure_version
        clone.structure_stamp = self.structure_stamp
        return clone

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return len(self._edges)

    def __contains__(self, node_id: object) -> bool:
        return isinstance(node_id, str) and node_id in self._nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SearchGraph(nodes={self.node_count}, edges={self.edge_count})"
