"""The brute-force oracle for two-terminal top-k: every simple path, by depth-first search.

A two-terminal Steiner tree is a simple path between the terminals, so the k
cheapest trees are the k cheapest simple paths.  This walks every one of them
— over edges, not nodes: parallel edges make different paths — and totals
each with ``math.fsum``, as a :class:`~repro.steiner.tree.SteinerTree` is
totalled.  It shares no code with the solver.  The walk is exponential in the
graph: it is meant for graphs of a dozen nodes, or for a ``max_cost`` that
keeps it near the cheapest paths.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, FrozenSet, List, Tuple

from repro.graph.search_graph import SearchGraph

Adjacency = Dict[str, List[Tuple[str, str, float]]]


def _distances_to(target: str, adjacency: Adjacency) -> Dict[str, float]:
    """Plain Dijkstra: every node's shortest distance to ``target``."""
    distances = {target: 0.0}
    heap = [(0.0, target)]
    while heap:
        dist, node = heapq.heappop(heap)
        if dist > distances[node]:
            continue
        for neighbor, _, cost in adjacency.get(node, ()):
            if dist + cost < distances.get(neighbor, math.inf):
                distances[neighbor] = dist + cost
                heapq.heappush(heap, (dist + cost, neighbor))
    return distances


def simple_paths(
    graph: SearchGraph, source: str, target: str, max_cost: float = math.inf
) -> List[Tuple[float, FrozenSet[str]]]:
    """Every simple path from ``source`` to ``target`` as ``(cost, edge ids)``, cheapest first.

    With ``max_cost``, a prefix is abandoned once its cost plus its end's
    shortest distance to ``target`` exceeds ``max_cost`` by more than
    rounding: every path costing at most ``max_cost`` is still returned,
    and some a few ulps above it may be.  Equal costs are ordered by their
    sorted edge ids.
    """
    adjacency: Adjacency = {}
    for edge in graph.edges():
        cost = graph.edge_cost(edge)
        adjacency.setdefault(edge.u, []).append((edge.v, edge.edge_id, cost))
        adjacency.setdefault(edge.v, []).append((edge.u, edge.edge_id, cost))
    remaining = _distances_to(target, adjacency)
    limit = max_cost * (1.0 + 1e-9)
    found: List[Tuple[float, FrozenSet[str]]] = []
    visited = {source}
    edge_ids: List[str] = []

    def extend(node: str, spent: float) -> None:
        if node == target:
            found.append((math.fsum(graph.edge_cost_by_id(e) for e in edge_ids), frozenset(edge_ids)))
            return
        for neighbor, edge_id, cost in adjacency.get(node, ()):
            if neighbor in visited or spent + cost + remaining.get(neighbor, math.inf) > limit:
                continue
            visited.add(neighbor)
            edge_ids.append(edge_id)
            extend(neighbor, spent + cost)
            edge_ids.pop()
            visited.discard(neighbor)

    extend(source, 0.0)
    found.sort(key=lambda path: (path[0], sorted(path[1])))
    return found
