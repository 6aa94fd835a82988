"""Search-graph and query-graph nodes.

The search graph (paper Section 2.1, Figure 2) contains *relation* nodes and
*attribute* nodes; data values are *virtual* nodes materialized lazily at
query time; keyword queries add *keyword* nodes (Figure 3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class NodeKind(enum.Enum):
    """The kind of a graph node."""

    RELATION = "relation"
    ATTRIBUTE = "attribute"
    VALUE = "value"
    KEYWORD = "keyword"


@dataclass(frozen=True)
class Node:
    """A node of the search/query graph.

    Attributes
    ----------
    node_id:
        Globally unique identifier (also the dictionary key inside the
        graph).  The helpers below produce canonical ids so that the same
        schema element always maps to the same node id.
    kind:
        The :class:`NodeKind`.
    label:
        Human-readable label: the relation name, attribute name, data value
        or keyword text.
    relation:
        For attribute and value nodes, the qualified relation name they
        belong to.
    attribute:
        For value nodes, the local attribute name the value appears in.
    """

    node_id: str
    kind: NodeKind
    label: str
    relation: Optional[str] = None
    attribute: Optional[str] = None


def relation_node_id(qualified_relation: str) -> str:
    """Canonical node id for a relation node."""
    return f"rel:{qualified_relation}"


def attribute_node_id(qualified_relation: str, attribute: str) -> str:
    """Canonical node id for an attribute node."""
    return f"attr:{qualified_relation}.{attribute}"


def value_node_id(qualified_relation: str, attribute: str, row_id: int, value: str) -> str:
    """Canonical node id for a value node (one per cell occurrence)."""
    return f"val:{qualified_relation}.{attribute}#{row_id}={value}"


def keyword_node_id(keyword: str) -> str:
    """Canonical node id for a keyword node."""
    return f"kw:{keyword.lower()}"


def make_relation_node(qualified_relation: str) -> Node:
    """Construct a relation node for ``qualified_relation``."""
    local_name = qualified_relation.split(".")[-1]
    return Node(
        node_id=relation_node_id(qualified_relation),
        kind=NodeKind.RELATION,
        label=local_name,
        relation=qualified_relation,
    )


def make_attribute_node(qualified_relation: str, attribute: str) -> Node:
    """Construct an attribute node for ``qualified_relation.attribute``."""
    return Node(
        node_id=attribute_node_id(qualified_relation, attribute),
        kind=NodeKind.ATTRIBUTE,
        label=attribute,
        relation=qualified_relation,
        attribute=attribute,
    )


def make_value_node(qualified_relation: str, attribute: str, row_id: int, value: str) -> Node:
    """Construct a value node for one cell occurrence."""
    return Node(
        node_id=value_node_id(qualified_relation, attribute, row_id, value),
        kind=NodeKind.VALUE,
        label=value,
        relation=qualified_relation,
        attribute=attribute,
    )


def make_keyword_node(keyword: str) -> Node:
    """Construct a keyword node for ``keyword``."""
    return Node(node_id=keyword_node_id(keyword), kind=NodeKind.KEYWORD, label=keyword)
