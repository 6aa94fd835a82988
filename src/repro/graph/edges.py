"""Search-graph and query-graph edges.

Edge kinds mirror the paper's Figure 2 and Figure 3:

* ``MEMBERSHIP`` — attribute ↔ its relation (zero cost, never learned).
* ``FOREIGN_KEY`` — relation ↔ relation along a key/foreign-key link
  (default cost ``cd``, learnable).
* ``ASSOCIATION`` — attribute ↔ attribute alignment produced by hand coding
  or by a schema matcher (cost from weighted features, learnable).
* ``VALUE_MEMBERSHIP`` — value node ↔ its attribute node (zero cost).
* ``KEYWORD_MATCH`` — keyword node ↔ schema/value node with a mismatch cost
  (query-graph only).

Edges are *undirected*: an edge between ``u`` and ``v`` can be traversed in
either direction and is stored once.
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Mapping, Optional, Tuple

from .features import NO_FEATURES, WeightVector, matcher_feature, matchers_of

_NO_METADATA: Mapping[str, object] = MappingProxyType({})
#: The metadata of every edge an aligner installs: one read-only record the
#: edges share (an edge keeps the mapping it is given, not a copy).
ALIGNER_ORIGIN: Mapping[str, object] = MappingProxyType({"origin": "aligner"})


class EdgeKind(enum.Enum):
    """The kind of a graph edge."""

    MEMBERSHIP = "membership"
    FOREIGN_KEY = "foreign_key"
    ASSOCIATION = "association"
    VALUE_MEMBERSHIP = "value_membership"
    KEYWORD_MATCH = "keyword_match"

    def is_zero_cost(self) -> bool:
        """Whether edges of this kind are constrained to zero cost."""
        return self in (EdgeKind.MEMBERSHIP, EdgeKind.VALUE_MEMBERSHIP)


class Edge:
    """An undirected, weighted-feature edge of the graph.

    One slotted object, built complete and immutable once added to a graph:
    graph copies share it, so a change swaps a new edge in under the same id
    (:meth:`~repro.graph.search_graph.SearchGraph.replace_edge`).  Its
    endpoint strings are the graph's own node ids and its features a dict of
    atoms, which the collector does not track: a stored association is one
    tracked object.

    Attributes
    ----------
    edge_id:
        Unique identifier of the edge (also used as a per-edge feature name).
        A search-graph edge's is ``kind:u|v#n``, ``n`` from the sequence of
        the graph that made it (:meth:`~repro.graph.search_graph.SearchGraph.new_edge_id`).
        A query-graph edge's is ``kind:u|v`` (:func:`derived_edge_id`), so
        every expansion reproduces it, and the weight learned under it.
    u, v:
        Node ids of the two endpoints (order is not semantically relevant).
    kind:
        The :class:`EdgeKind`.
    features:
        The feature vector whose weighted sum is the edge cost: a plain
        ``{feature name: value}`` dict, read-only by contract — no code
        writes into an edge's features; a change builds a new dict and a new
        edge (:meth:`changed`).
    fixed_cost:
        If not ``None``, the edge cost is this constant and the edge is
        excluded from learning (the set ``A`` of zero-cost constraints in
        Algorithm 4 — used for membership edges).
    metadata:
        Read-only extra information: ``foreign_key`` columns, a keyword
        ``mismatch``, the ``origin`` of an alignment and its ``matchers``
        (raw confidence per matcher).  The edge keeps the mapping its
        constructor was given — ``None``, or a record many edges share — and
        an association whose mapping names no ``matchers`` reads them off its
        ``matcher::`` features, so it holds nothing twice.  Writing into the
        returned mapping raises.
    """

    __slots__ = ("edge_id", "u", "v", "kind", "features", "fixed_cost", "_metadata")

    def __init__(
        self, edge_id: str, u: str, v: str, kind: EdgeKind, features: Mapping[str, float] = NO_FEATURES,
        fixed_cost: Optional[float] = None, metadata: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.edge_id, self.u, self.v, self.kind = edge_id, u, v, kind
        self.features, self.fixed_cost, self._metadata = features, fixed_cost, metadata or None

    @property
    def metadata(self) -> Mapping[str, object]:
        stored = self._metadata or _NO_METADATA
        if self.kind is EdgeKind.ASSOCIATION and "matchers" not in stored:
            stored = {**stored, "matchers": matchers_of(self.features)}
        return MappingProxyType(stored)

    @property
    def stored_metadata(self) -> Optional[Mapping[str, object]]:
        """The mapping the edge was given, without what :attr:`metadata` derives."""
        return self._metadata

    def changed(self, features: Mapping[str, float], metadata: Optional[Mapping[str, object]]) -> "Edge":
        """A new edge with this one's id, endpoints, kind and fixed cost (see ``replace_edge``)."""
        return Edge(self.edge_id, self.u, self.v, self.kind, features, self.fixed_cost, metadata)

    def with_matchers(self, confidences: Mapping[str, float], metadata: Mapping[str, object]) -> "Edge":
        """A new association like this one with ``confidences`` and ``metadata`` merged in.

        Each matcher contributes its own ``matcher::`` feature (paper Section
        3.2.3); a repeated matcher's newer confidence wins.
        """
        merged = {name: float(confidence) for name, confidence in confidences.items()}
        values = dict(self.features)
        values.update((matcher_feature(name), confidence) for name, confidence in merged.items())
        stored = self._metadata or _NO_METADATA
        if "matchers" in stored or not metadata.items() <= stored.items():
            # The edge now says something of its own: spell the record out,
            # keys in the order they arrived.
            stored = dict(self.metadata)
            stored["matchers"] = {**stored["matchers"], **merged}
            stored.update(metadata)
        return self.changed(values, stored)

    # ------------------------------------------------------------------
    # Cost
    # ------------------------------------------------------------------
    def cost(self, weights: WeightVector, minimum: float = 1e-6) -> float:
        """The edge's cost under ``weights``.

        Fixed-cost edges return their constant.  Learnable edges return the
        dot product ``w · f`` clamped below by ``minimum`` so that Steiner
        tree computations stay meaningful even if the learner briefly drives
        a cost negative (Algorithm 4 constrains costs to be positive; the
        clamp is a numerical guard).
        """
        if self.fixed_cost is not None:
            return self.fixed_cost
        return max(weights.dot(self.features), minimum)

    def is_learnable(self) -> bool:
        """Whether the learner may change this edge's cost."""
        return self.fixed_cost is None

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def other(self, node_id: str) -> str:
        """The endpoint opposite to ``node_id``."""
        if node_id == self.u:
            return self.v
        if node_id == self.v:
            return self.u
        raise ValueError(f"node {node_id!r} is not an endpoint of edge {self.edge_id!r}")

    def endpoints(self) -> Tuple[str, str]:
        """The two endpoint node ids."""
        return (self.u, self.v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Edge({self.kind.value}, {self.u!r} -- {self.v!r})"


def derived_edge_id(kind: EdgeKind, u: str, v: str) -> str:
    """The id of a query-graph edge: its kind and endpoints, unique per expansion."""
    return f"{kind.value}:{u}|{v}"
