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
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .features import DEFAULT_FEATURE, FeatureVector, WeightVector, edge_feature, matcher_feature, relation_feature


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


@dataclass
class Edge:
    """An undirected, weighted-feature edge of the graph.

    Attributes
    ----------
    edge_id:
        Unique identifier of the edge (also used as a per-edge feature name):
        ``kind:u|v#n``, with ``n`` from the sequence of the graph that made
        the edge (:meth:`~repro.graph.search_graph.SearchGraph.new_edge`).
    u, v:
        Node ids of the two endpoints (order is not semantically relevant).
    kind:
        The :class:`EdgeKind`.
    features:
        The feature vector whose weighted sum is the edge cost.
    fixed_cost:
        If not ``None``, the edge cost is this constant and the edge is
        excluded from learning (the set ``A`` of zero-cost constraints in
        Algorithm 4 — used for membership edges).
    metadata:
        Free-form extra information: matcher name(s), raw confidences,
        mismatch scores, provenance of the alignment.
    """

    edge_id: str
    u: str
    v: str
    kind: EdgeKind
    features: FeatureVector = field(default_factory=FeatureVector)
    fixed_cost: Optional[float] = None
    metadata: Dict[str, object] = field(default_factory=dict)

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

    def connects(self, a: str, b: str) -> bool:
        """Whether this edge connects nodes ``a`` and ``b`` (in either order)."""
        return (self.u, self.v) in ((a, b), (b, a))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Edge({self.kind.value}, {self.u!r} -- {self.v!r})"


def default_association_features(
    edge_id: str,
    relations: Tuple[str, ...],
    matcher_confidences: Optional[Dict[str, float]] = None,
) -> FeatureVector:
    """Build the standard feature vector of an association edge (Section 3.4).

    Parameters
    ----------
    edge_id:
        The id of the edge being created (for the per-edge feature).
    relations:
        The qualified names of the relations the association connects.
    matcher_confidences:
        Mapping from matcher name to its confidence in ``[0, 1]``.
    """
    values: Dict[str, float] = {DEFAULT_FEATURE: 1.0}
    for matcher_name, confidence in (matcher_confidences or {}).items():
        values[matcher_feature(matcher_name)] = float(confidence)
    for relation in relations:
        values[relation_feature(relation)] = 1.0
    values[edge_feature(edge_id)] = 1.0
    return FeatureVector(values)
