"""Column–value graph construction for the MAD matcher (paper Section 3.2.2).

The label-propagation graph has one node per relation attribute (labelled
with its canonical attribute name) and one node per *unique data value*,
with an edge between a value node and every attribute node whose column
contains that value.  The values are read off the attributes' profiles
(:class:`~repro.profiling.profiles.AttributeProfile`), never off the tables.
Following the paper's experimental setup (Section 5.2.1):

* nodes of degree one are pruned (they cannot contribute to propagation),
* purely numeric values are removed (they induce spurious associations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

from ..datastore.types import infer_value_type
from ..profiling.profiles import AttributeProfile


def attribute_graph_node(relation: str, attribute: str) -> str:
    """Node id of an attribute node in the MAD graph."""
    return f"col::{relation}.{attribute}"


def value_graph_node(value: str) -> str:
    """Node id of a value node in the MAD graph."""
    return f"val::{value}"


@dataclass
class PropagationGraph:
    """A weighted undirected graph used for label propagation.

    Attributes
    ----------
    weights:
        ``weights[u][v]`` is the edge weight between ``u`` and ``v``;
        symmetric by construction.
    attribute_nodes:
        Mapping from attribute node id to its ``(relation, attribute)``.
    value_nodes:
        The value node ids.
    """

    weights: Dict[str, Dict[str, float]] = field(default_factory=dict)
    attribute_nodes: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    value_nodes: Set[str] = field(default_factory=set)

    def add_edge(self, u: str, v: str, weight: float = 1.0) -> None:
        """Add (or overwrite) the undirected edge ``u -- v``."""
        self.weights.setdefault(u, {})[v] = weight
        self.weights.setdefault(v, {})[u] = weight

    def neighbors(self, node: str) -> Mapping[str, float]:
        """Neighbors of ``node`` with their edge weights."""
        return self.weights.get(node, {})

    def degree(self, node: str) -> int:
        """Number of neighbors of ``node``."""
        return len(self.weights.get(node, {}))

    def nodes(self) -> Tuple[str, ...]:
        """All node ids present in the graph."""
        return tuple(self.weights.keys())

    @property
    def node_count(self) -> int:
        """Total number of nodes."""
        return len(self.weights)

    @property
    def edge_count(self) -> int:
        """Total number of undirected edges."""
        return sum(len(neighbors) for neighbors in self.weights.values()) // 2

    def remove_node(self, node: str) -> None:
        """Remove ``node`` and its incident edges."""
        for neighbor in list(self.weights.get(node, {})):
            self.weights[neighbor].pop(node, None)
        self.weights.pop(node, None)
        self.attribute_nodes.pop(node, None)
        self.value_nodes.discard(node)


@dataclass
class MadGraphConfig:
    """Options controlling column–value graph construction."""

    prune_degree_one: bool = True
    drop_numeric_values: bool = True
    max_values_per_attribute: Optional[int] = None
    edge_weight: float = 1.0


def build_column_value_graph(
    profiles: Iterable[AttributeProfile], config: Optional[MadGraphConfig] = None
) -> PropagationGraph:
    """Build the MAD column–value graph over the attributes ``profiles`` describe.

    Parameters
    ----------
    profiles:
        One :class:`~repro.profiling.profiles.AttributeProfile` per attribute
        to include (typically every attribute of the catalog plus the newly
        registered source's), in the order their nodes are added; each
        attribute's value nodes are its profile's distinct values.
    config:
        Construction options; see :class:`MadGraphConfig`.
    """
    config = config or MadGraphConfig()
    graph = PropagationGraph()

    for profile in profiles:
        attr_node = attribute_graph_node(profile.relation, profile.attribute)
        graph.attribute_nodes[attr_node] = profile.attr_id
        graph.weights.setdefault(attr_node, {})
        values = profile.distinct_values
        if config.max_values_per_attribute is not None:
            values = set(sorted(values)[: config.max_values_per_attribute])
        for value in values:
            if config.drop_numeric_values and _is_numeric_value(value):
                continue
            value_node = value_graph_node(value)
            graph.value_nodes.add(value_node)
            graph.add_edge(attr_node, value_node, config.edge_weight)

    if config.prune_degree_one:
        _prune_degree_one_values(graph)
    return graph


def _is_numeric_value(value: str) -> bool:
    vtype = infer_value_type(value)
    return vtype.is_numeric()


def _prune_degree_one_values(graph: PropagationGraph) -> None:
    """Remove value nodes that occur in only one column.

    Such nodes cannot carry a label from one attribute to another, so they
    only slow propagation down (paper Section 5.2.1).  Attribute nodes are
    never pruned, even if isolated, so that every attribute still receives a
    label distribution.
    """
    to_remove = [
        node
        for node in graph.value_nodes
        if graph.degree(node) <= 1
    ]
    for node in to_remove:
        graph.remove_node(node)
