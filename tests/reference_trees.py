"""Brute-force oracle for top-k Steiner trees: every minimal Steiner tree, by enumeration.

A minimal Steiner tree for ``terminals`` is a set of edges that forms a tree,
touches every terminal and has only terminals as leaves (removing a
non-terminal leaf would give a cheaper or equal tree).  Every such tree holds
the first terminal, so the oracle grows every subtree that holds it — each
exactly once, by branching on its first undecided boundary edge: leave it out
for good, or take it in along with its new endpoint — and keeps the minimal
Steiner trees among them.  Exponential, which is the point: it shares no idea
with the enumeration it checks.  Graphs up to about 16 edges.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.graph.search_graph import SearchGraph
from repro.steiner.tree import SteinerTree


def steiner_trees(graph: SearchGraph, terminals: Sequence[str]) -> List[SteinerTree]:
    """Every minimal Steiner tree over ``terminals``, sorted by (cost, sorted edge ids)."""
    ends = {edge.edge_id: (edge.u, edge.v) for edge in graph.edges() if edge.u != edge.v}
    around = {}
    for edge_id, (u, v) in sorted(ends.items()):
        around.setdefault(u, []).append(edge_id)
        around.setdefault(v, []).append(edge_id)
    wanted = set(terminals)
    found: List[SteinerTree] = []

    def record(nodes: Set[str], edges: Tuple[str, ...]) -> None:
        if not wanted <= nodes:
            return
        degree = {node: 0 for node in nodes}
        for edge_id in edges:
            for node in ends[edge_id]:
                degree[node] += 1
        if all(count > 1 or node in wanted for node, count in degree.items()):
            found.append(SteinerTree.from_edges(graph, edges, terminals))

    def grow(nodes: Set[str], edges: Tuple[str, ...], boundary: Tuple[str, ...]) -> None:
        # ``boundary``: undecided edges with exactly one endpoint in ``nodes``.
        # An edge left out never returns: once its outer end joins, both ends are in.
        if not boundary:
            record(nodes, edges)
            return
        edge_id, rest = boundary[0], boundary[1:]
        grow(nodes, edges, rest)
        u, v = ends[edge_id]
        inside = nodes | {u, v}
        new = v if u in nodes else u
        grow(inside, edges + (edge_id,), tuple(
            e for e in rest + tuple(around[new]) if not set(ends[e]) <= inside
        ))

    grow({terminals[0]}, (), tuple(around.get(terminals[0], ())))
    found.sort(key=lambda tree: (tree.cost, sorted(tree.edge_ids)))
    return found


def is_minimal_steiner_tree(graph: SearchGraph, tree: SteinerTree, terminals: Sequence[str]) -> bool:
    """Whether ``tree``'s edges form a tree touching every terminal whose leaves are all terminals."""
    nodes = {node for edge_id in tree.edge_ids for node in (graph.edge(edge_id).u, graph.edge(edge_id).v)}
    nodes |= set(terminals)
    if len(tree.edge_ids) != len(nodes) - 1:
        return False
    parent = {node: node for node in nodes}

    def find(node: str) -> str:
        while parent[node] != node:
            node = parent[node]
        return node

    degree = {node: 0 for node in nodes}
    for edge_id in tree.edge_ids:
        edge = graph.edge(edge_id)
        a, b = find(edge.u), find(edge.v)
        if a == b:
            return False
        parent[a] = b
        degree[edge.u] += 1
        degree[edge.v] += 1
    return all(count > 1 or node in terminals for node, count in degree.items())
