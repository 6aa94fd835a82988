"""The graph-copy top-k protocol: exclusion-only branching over any single-tree solver.

Before the enumeration ran on a shared :class:`~repro.steiner.network.SteinerNetwork`,
``KBestSteiner`` re-solved every branch with a pluggable solver on a copy of
the graph with the branch's excluded edges removed.  That protocol is kept
here, unbounded, because it is how a test plugs in another solver — the
reference oracle of ``reference_steiner.py``, or one whose budget polls are
exactly countable.  It branches the way ``KBestSteiner`` still does for three
or more terminals: each popped tree forbids its edges one at a time, and a
candidate already found is dropped.  For two terminals the library enumerates
simple paths instead (``reference_paths.py`` is that oracle).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, FrozenSet, List, Optional, Sequence, Set

from repro.exceptions import SteinerError
from repro.graph.search_graph import SearchGraph
from repro.steiner.tree import SteinerTree, validate_terminals

SolverFn = Callable[[SearchGraph, Sequence[str]], SteinerTree]


def graph_without(graph: SearchGraph, excluded_edges: FrozenSet[str]) -> SearchGraph:
    reduced = graph.copy(share_weights=True)
    for edge_id in excluded_edges:
        if reduced.has_edge(edge_id):
            reduced.remove_edge(edge_id)
    return reduced


def reference_k_best(
    graph: SearchGraph,
    terminals: Sequence[str],
    k: int,
    solver: SolverFn,
    max_expansions: int = 200,
    budget=None,
) -> List[SteinerTree]:
    """Up to ``k`` distinct trees, cheapest first, each branch solved by ``solver`` on a graph copy.

    The budget is polled only here: checked once before the first solve, and
    ``expired()`` before every branch (expiry stops branching and drains the
    heap, marking the budget truncated).
    """
    terminals = validate_terminals(graph, terminals)
    if budget is not None:
        budget.check("k-best-steiner")

    def base_solve(excluded: FrozenSet[str]) -> SteinerTree:
        tree = solver(graph_without(graph, excluded), terminals)
        # Re-cost against the original graph: the tree references its edge ids.
        return SteinerTree.from_edges(graph, tree.edge_ids, terminals)

    try:
        best = base_solve(frozenset())
    except SteinerError:
        return []
    results: List[SteinerTree] = []
    seen_trees: Set[FrozenSet[str]] = set()
    candidate_edge_sets: Set[FrozenSet[str]] = {best.edge_ids}
    counter = itertools.count()
    heap = [(best.cost, next(counter), best, frozenset())]
    expansions = 0
    while heap and len(results) < k:
        _, _, tree, excluded = heapq.heappop(heap)
        if tree.edge_ids in seen_trees:
            continue
        seen_trees.add(tree.edge_ids)
        results.append(tree)
        if len(results) >= k:
            break
        for edge_id in sorted(tree.edge_ids):
            if expansions >= max_expansions:
                break
            if budget is not None and budget.expired():
                budget.mark_truncated("k-best-steiner")
                break
            expansions += 1
            new_excluded = excluded | {edge_id}
            try:
                candidate = base_solve(new_excluded)
            except SteinerError:
                continue
            if candidate.edge_ids in seen_trees or candidate.edge_ids in candidate_edge_sets:
                continue
            candidate_edge_sets.add(candidate.edge_ids)
            heapq.heappush(heap, (candidate.cost, next(counter), candidate, new_excluded))
    # The list contract: ascending cost, ties in the order found.
    return sorted(results, key=lambda tree: tree.cost)
