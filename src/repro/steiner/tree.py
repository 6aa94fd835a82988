"""Steiner tree representation.

A Steiner tree for a keyword query is a tree in the query graph whose leaves
include all keyword (terminal) nodes; its cost is the sum of its edge costs
under the current weight vector.  Each tree is later translated into one
conjunctive query (paper Section 2.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Sequence, Set, Tuple

from ..exceptions import SteinerError
from ..graph.search_graph import SearchGraph


@dataclass(frozen=True)
class SteinerTree:
    """An (edge-set, terminal-set) pair with its cost.

    Trees are value objects: two trees with the same edge set are equal
    regardless of the order edges were discovered in.
    """

    edge_ids: FrozenSet[str]
    terminals: FrozenSet[str]
    cost: float

    @classmethod
    def from_edges(
        cls, graph: SearchGraph, edge_ids: Iterable[str], terminals: Iterable[str]
    ) -> "SteinerTree":
        """Build a tree from edge ids, computing its cost from ``graph``."""
        edge_ids = frozenset(edge_ids)
        # fsum is exactly rounded, hence independent of the set's iteration
        # order: equal edge sets get equal costs however they were built.
        cost = math.fsum(graph.edge_cost_by_id(edge_id) for edge_id in edge_ids)
        return cls(edge_ids=edge_ids, terminals=frozenset(terminals), cost=cost)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def nodes(self, graph: SearchGraph) -> List[str]:
        """All node ids covered by the tree's edges (plus isolated terminals), sorted."""
        nodes: Set[str] = set(self.terminals)
        for edge_id in self.edge_ids:
            edge = graph.edge(edge_id)
            nodes.add(edge.u)
            nodes.add(edge.v)
        return sorted(nodes)

    def edges(self, graph: SearchGraph):
        """The tree's :class:`~repro.graph.edges.Edge` objects, in edge-id order.

        This and :meth:`nodes` are the walks query generation and the learner
        build on: ordering them here is what makes a tree's joins, output
        columns, labels and feature sums independent of set iteration order.
        """
        return [graph.edge(edge_id) for edge_id in sorted(self.edge_ids)]

    def recost(self, graph: SearchGraph) -> "SteinerTree":
        """Return the same tree re-costed under the graph's current weights."""
        return SteinerTree.from_edges(graph, self.edge_ids, self.terminals)

    def __lt__(self, other: "SteinerTree") -> bool:
        return (self.cost, sorted(self.edge_ids)) < (other.cost, sorted(other.edge_ids))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SteinerTree(cost={self.cost:.3f}, edges={len(self.edge_ids)})"


def validate_terminals(graph: SearchGraph, terminals: Sequence[str]) -> Tuple[str, ...]:
    """Check every terminal exists in the graph; returns the deduplicated tuple."""
    unique: List[str] = []
    seen: Set[str] = set()
    for terminal in terminals:
        if not graph.has_node(terminal):
            raise SteinerError(f"terminal {terminal!r} is not a node of the graph")
        if terminal not in seen:
            seen.add(terminal)
            unique.append(terminal)
    if not unique:
        raise SteinerError("at least one terminal is required")
    return tuple(unique)
