"""The reference oracle: the dict/frozenset Dreyfus–Wagner solver, kept for parity tests.

This is the exact solver :mod:`repro.steiner.network` ran before the
array-indexed kernel replaced it, moved here verbatim: three hand-written
Dijkstra loops over ``dict`` labels with the node-id *string* as heap
tie-breaker, and a ``frozenset`` of path edges materialised per node per
terminal subset.  It is slow and obviously faithful to the seed, which is
what an oracle is for: the kernel must return the same edge set and the same
(``math.fsum``) cost for every solve.  :func:`is_connected_tree`
is the structural check the solver tests assert on every tree they get.
Both live in ``tests/`` because nothing in ``src/`` runs them.
"""

from __future__ import annotations

import heapq
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.exceptions import DisconnectedTerminalsError, SteinerError
from repro.graph.search_graph import SearchGraph
from repro.steiner.tree import SteinerTree, validate_terminals

_EMPTY: FrozenSet[int] = frozenset()


class ReferenceSteinerNetwork:
    """Integer-indexed snapshot of a graph, solved with dict/frozenset tables."""

    def __init__(self, graph: SearchGraph) -> None:
        self.graph = graph
        self.node_ids: List[str] = [node.node_id for node in graph.nodes()]
        self.node_index: Dict[str, int] = {nid: i for i, nid in enumerate(self.node_ids)}
        edges = graph.edges()
        self.edge_ids: List[str] = [edge.edge_id for edge in edges]
        self.edge_index: Dict[str, int] = {eid: i for i, eid in enumerate(self.edge_ids)}
        self.edge_costs: List[float] = [graph.edge_cost(edge) for edge in edges]
        # node index -> [(neighbor index, edge index, cost)]
        self.adjacency: List[List[Tuple[int, int, float]]] = [[] for _ in self.node_ids]
        for idx, edge in enumerate(edges):
            u = self.node_index[edge.u]
            v = self.node_index[edge.v]
            cost = self.edge_costs[idx]
            self.adjacency[u].append((v, idx, cost))
            self.adjacency[v].append((u, idx, cost))

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def _tree_from_indexes(self, edge_idxs: Iterable[int], terminals: Sequence[str]) -> SteinerTree:
        # Recost through the graph (as the seed solvers did) so tree costs
        # stay bit-identical with trees built elsewhere.
        return SteinerTree.from_edges(
            self.graph, (self.edge_ids[i] for i in edge_idxs), terminals
        )

    # ------------------------------------------------------------------
    # Dijkstra over the snapshot
    # ------------------------------------------------------------------
    def _dijkstra(
        self,
        source: int,
        excluded: AbstractSet[int],
        budget=None,
    ) -> Tuple[Dict[int, float], Dict[int, Tuple[int, int]]]:
        """Distances and predecessor ``(node, edge)`` pairs from ``source``."""
        INF = float("inf")
        node_ids = self.node_ids
        adjacency = self.adjacency
        distances: Dict[int, float] = {source: 0.0}
        predecessors: Dict[int, Tuple[int, int]] = {}
        heap: List[Tuple[float, str, int]] = [(0.0, node_ids[source], source)]
        while heap:
            if budget is not None:
                budget.tick("dijkstra")
            dist, _, node = heapq.heappop(heap)
            if dist > distances.get(node, INF):
                continue
            for neighbor, edge_idx, cost in adjacency[node]:
                if edge_idx in excluded:
                    continue
                candidate = dist + cost
                if candidate < distances.get(neighbor, INF):
                    distances[neighbor] = candidate
                    predecessors[neighbor] = (node, edge_idx)
                    heapq.heappush(heap, (candidate, node_ids[neighbor], neighbor))
        return distances, predecessors

    @staticmethod
    def _path_edges(predecessors: Dict[int, Tuple[int, int]], target: int) -> Set[int]:
        edges: Set[int] = set()
        node = target
        while node in predecessors:
            previous, edge_idx = predecessors[node]
            edges.add(edge_idx)
            node = previous
        return edges

    @staticmethod
    def _all_path_edge_sets(
        predecessors: Dict[int, Tuple[int, int]]
    ) -> Dict[int, FrozenSet[int]]:
        """Path edge set for *every* node of a shortest-path tree.

        Equivalent to calling :meth:`_path_edges` per node, but each node's
        set is derived from its predecessor's set with a single union, so
        shared path prefixes are never re-walked.
        """
        memo: Dict[int, FrozenSet[int]] = {}
        for target in predecessors:
            if target in memo:
                continue
            stack = [target]
            node = predecessors[target][0]
            while node in predecessors and node not in memo:
                stack.append(node)
                node = predecessors[node][0]
            base = memo.get(node, _EMPTY)
            for pending in reversed(stack):
                base = base | frozenset((predecessors[pending][1],))
                memo[pending] = base
        return memo

    def _shortest_path_tree(
        self,
        terminals: Sequence[str],
        excluded: AbstractSet[int],
        budget=None,
    ) -> SteinerTree:
        """Two-terminal special case: the tree is a minimum-cost path.

        Runs one Dijkstra with early termination instead of the full
        Dreyfus–Wagner DP (which would compute distances and path sets for
        *every* node).  The search is rooted at the *second* terminal with
        the first as target because that is the equal-cost witness the DP
        produces (its two-terminal answer is read off the singleton-mask
        entry of the second terminal's shortest-path tree at the first
        terminal) — keeping tie-breaks bit-identical to the seed solver.
        """
        source = self.node_index[terminals[1]]
        target = self.node_index[terminals[0]]
        INF = float("inf")
        node_ids = self.node_ids
        adjacency = self.adjacency
        distances: Dict[int, float] = {source: 0.0}
        predecessors: Dict[int, Tuple[int, int]] = {}
        heap: List[Tuple[float, str, int]] = [(0.0, node_ids[source], source)]
        while heap:
            if budget is not None:
                budget.tick("shortest-path")
            dist, _, node = heapq.heappop(heap)
            if dist > distances.get(node, INF):
                continue
            if node == target:
                return self._tree_from_indexes(
                    self._path_edges(predecessors, target), terminals
                )
            for neighbor, edge_idx, cost in adjacency[node]:
                if edge_idx in excluded:
                    continue
                candidate = dist + cost
                if candidate < distances.get(neighbor, INF):
                    distances[neighbor] = candidate
                    predecessors[neighbor] = (node, edge_idx)
                    heapq.heappush(heap, (candidate, node_ids[neighbor], neighbor))
        raise DisconnectedTerminalsError(
            f"terminals {terminals[0]!r} and {terminals[1]!r} are not connected"
        )

    # ------------------------------------------------------------------
    # Exact solver (Dreyfus–Wagner DP)
    # ------------------------------------------------------------------
    def exact_tree(
        self,
        terminals: Sequence[str],
        excluded: AbstractSet[int] = _EMPTY,
        max_terminals: int = 8,
        budget=None,
    ) -> SteinerTree:
        """Minimum-cost Steiner tree over ``terminals``, skipping ``excluded`` edges.

        Same algorithm (and the same tie-breaking) as the seed
        ``exact_steiner_tree``, minus the per-call graph copies and cost
        recomputation.  Two-terminal queries — the dominant case for keyword
        pairs — short-circuit to a single early-exit shortest-path search.
        With a ``budget``, the inner loops poll it and abort the solve with
        :class:`~repro.exceptions.DeadlineExceededError` once it expires —
        a partially run DP yields no usable tree, so there is no partial
        return at this level.
        """
        terminals = validate_terminals(self.graph, terminals)
        if len(terminals) > max_terminals:
            raise SteinerError(
                f"exact Steiner tree limited to {max_terminals} terminals; got {len(terminals)}"
            )
        if len(terminals) == 1:
            return SteinerTree(frozenset(), frozenset(terminals), 0.0)
        if len(terminals) == 2:
            return self._shortest_path_tree(terminals, excluded, budget=budget)

        node_ids = self.node_ids
        node_count = len(node_ids)
        adjacency = self.adjacency
        INF = float("inf")

        terminal_list = [self.node_index[t] for t in terminals]
        full_mask = (1 << len(terminal_list)) - 1

        # dp[mask] maps node -> (cost, edge index set) of the cheapest tree
        # spanning the terminal subset ``mask`` plus that node.
        dp_cost: List[Dict[int, float]] = [dict() for _ in range(full_mask + 1)]
        dp_edges: List[Dict[int, FrozenSet[int]]] = [dict() for _ in range(full_mask + 1)]

        # Base cases: singleton subsets = shortest path from the terminal.
        for position, terminal in enumerate(terminal_list):
            mask = 1 << position
            distances, predecessors = self._dijkstra(terminal, excluded, budget=budget)
            paths = self._all_path_edge_sets(predecessors)
            costs = dp_cost[mask]
            edges = dp_edges[mask]
            for v, dist in distances.items():
                costs[v] = dist
                edges[v] = paths.get(v, _EMPTY)

        subsets = sorted(range(1, full_mask + 1), key=lambda m: bin(m).count("1"))
        for subset in subsets:
            if bin(subset).count("1") < 2:
                continue
            if budget is not None:
                budget.check("dreyfus-wagner")
            costs = dp_cost[subset]
            edges = dp_edges[subset]
            # Merge step: combine two disjoint terminal subsets at a node.
            for v in range(node_count):
                best_cost = costs.get(v, INF)
                best_edges = edges.get(v)
                sub = (subset - 1) & subset
                while sub > 0:
                    other = subset ^ sub
                    if sub < other:  # consider each unordered split once
                        cost_a = dp_cost[sub].get(v, INF)
                        cost_b = dp_cost[other].get(v, INF)
                        if cost_a + cost_b < best_cost:
                            best_cost = cost_a + cost_b
                            best_edges = dp_edges[sub][v] | dp_edges[other][v]
                    sub = (sub - 1) & subset
                if best_edges is not None and best_cost < INF:
                    costs[v] = best_cost
                    edges[v] = frozenset(best_edges)

            # Grow step: extend the merged trees along shortest paths, as a
            # Dijkstra seeded with the current dp values.
            heap: List[Tuple[float, str, int]] = []
            current: Dict[int, float] = {}
            origin: Dict[int, int] = {}
            for v in range(node_count):
                cost = costs.get(v, INF)
                if cost < INF:
                    current[v] = cost
                    origin[v] = v
                    heapq.heappush(heap, (cost, node_ids[v], v))
            predecessors: Dict[int, Tuple[int, int]] = {}
            while heap:
                if budget is not None:
                    budget.tick("dreyfus-wagner-grow")
                dist, _, node = heapq.heappop(heap)
                if dist > current.get(node, INF):
                    continue
                for neighbor, edge_idx, cost in adjacency[node]:
                    if edge_idx in excluded:
                        continue
                    candidate = dist + cost
                    if candidate < current.get(neighbor, INF):
                        current[neighbor] = candidate
                        origin[neighbor] = origin[node]
                        predecessors[neighbor] = (node, edge_idx)
                        heapq.heappush(heap, (candidate, node_ids[neighbor], neighbor))
            paths = self._all_path_edge_sets(predecessors)
            for node, cost in current.items():
                if cost < costs.get(node, INF):
                    root = origin[node]
                    costs[node] = cost
                    edges[node] = edges[root] | paths.get(node, _EMPTY)

        root = terminal_list[0]
        if root not in dp_cost[full_mask]:
            raise DisconnectedTerminalsError()
        return self._tree_from_indexes(dp_edges[full_mask][root], terminals)


def reference_solver(graph: SearchGraph, terminals: Sequence[str]) -> SteinerTree:
    """The oracle as a one-shot solver: a graph in, its exact tree out."""
    return ReferenceSteinerNetwork(graph).exact_tree(terminals)


def is_connected_tree(tree: SteinerTree, graph: SearchGraph) -> bool:
    """Check the tree's edge set forms a connected acyclic subgraph spanning its terminals."""
    if not tree.edge_ids:
        return len(tree.terminals) <= 1
    nodes = set(tree.nodes(graph))
    # |E| == |V| - 1 is the acyclicity condition for a connected graph.
    if len(tree.edge_ids) != len(nodes) - 1:
        return False
    adjacency: Dict[str, List[str]] = {node: [] for node in nodes}
    for edge_id in tree.edge_ids:
        edge = graph.edge(edge_id)
        adjacency[edge.u].append(edge.v)
        adjacency[edge.v].append(edge.u)
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        current = stack.pop()
        for neighbor in adjacency[current]:
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    if seen != nodes:
        return False
    return tree.terminals <= nodes
