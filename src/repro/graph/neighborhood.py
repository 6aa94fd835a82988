"""α-cost neighborhoods (paper Section 3.3, Figure 5).

``GETCOSTNEIGHBORHOOD(G, C, α, k)`` — all nodes reachable from keyword node
``k`` at cost at most α — is the pruning primitive used by
``VIEWBASEDALIGNER``: a new source can only affect a view's top-k answers if
one of its relations can participate in a Steiner tree of cost ≤ α, and
because edge costs are non-negative any such relation must lie within the α
neighborhood of some keyword node.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, Set, Tuple

from .nodes import NodeKind
from .search_graph import SearchGraph

#: Per-graph memo of computed relation neighborhoods.  The view-based
#: aligner asks for the same ``(start nodes, α)`` neighborhood once per
#: introduced source while the underlying view graph is unchanged; the memo
#: is keyed on the graph's ``(weights.version, structure_version)`` so any
#: cost or structure movement invalidates it naturally.  Weak keys let the
#: memo die with its graph.
_RELATION_NEIGHBORHOOD_MEMO: "weakref.WeakKeyDictionary[SearchGraph, Dict[Tuple, Set[str]]]" = (
    weakref.WeakKeyDictionary()
)


def cost_neighborhood(
    graph: SearchGraph,
    start_nodes: Iterable[str],
    alpha: float,
) -> Dict[str, float]:
    """All nodes within cost ``alpha`` of any node in ``start_nodes``.

    Returns a mapping from node id to its distance from the nearest start
    node.  Start nodes themselves are included with distance 0.
    """
    start_list = [n for n in start_nodes if graph.has_node(n)]
    if not start_list:
        return {}
    return graph.shortest_path_costs(start_list, max_cost=alpha)


def neighborhood_relations(
    graph: SearchGraph,
    start_nodes: Iterable[str],
    alpha: float,
) -> Set[str]:
    """Qualified relation names whose nodes fall inside the α neighborhood.

    A relation is in the neighborhood if its relation node *or any of its
    attribute nodes* is within cost α of a start node (an alignment against
    any of those attributes could contribute a tree of cost ≤ α).

    Results are memoized per graph, keyed on the start set, α and the
    graph's version counters, so repeated registrations against an
    unchanged view graph pay the Dijkstra once.
    """
    key = (
        tuple(sorted(set(start_nodes))),
        alpha,
        graph.weights.version,
        graph.structure_version,
    )
    memo = _RELATION_NEIGHBORHOOD_MEMO.get(graph)
    if memo is None:
        memo = {}
        _RELATION_NEIGHBORHOOD_MEMO[graph] = memo
    cached = memo.get(key)
    if cached is not None:
        return set(cached)
    distances = cost_neighborhood(graph, key[0], alpha)
    relations: Set[str] = set()
    for node_id in distances:
        node = graph.node(node_id)
        if node.kind in (NodeKind.RELATION, NodeKind.ATTRIBUTE) and node.relation:
            relations.add(node.relation)
    # Evict stale versions for this graph (only the current key is useful).
    for stale in [k for k in memo if k[2:] != key[2:]]:
        del memo[stale]
    memo[key] = frozenset(relations)
    return relations

