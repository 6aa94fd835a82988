"""Top-k Steiner tree enumeration (``KBESTSTEINER`` in Algorithm 4).

The learner and the view maintenance logic both need the ``k`` lowest-cost
Steiner trees for a set of keyword terminals.  We enumerate candidates with
a Lawler-style branching scheme over *edge exclusions*: starting from the
optimal tree, each expansion step forbids one tree edge and re-solves,
yielding alternative trees; candidates are emitted in nondecreasing cost
order and deduplicated by edge set.

The base solver is chosen automatically: the exact Dreyfus–Wagner DP for
small terminal sets, the distance-network approximation otherwise — matching
the paper's "exact algorithm at small scales, approximation at larger
scales".  All re-solves run over one shared
:class:`~repro.steiner.network.SteinerNetwork` snapshot of the graph, so the
branching loop never copies the graph or re-derives edge costs.  Every
branch is solved under what the enumeration already knows: nothing above the
k-th best candidate cost found so far can be emitted (the paper's α), a known
tree the branch's exclusions leave intact is still feasible there, and one
exclusion-free distance table per terminal bounds every branch from below.
The bounds only remove work — trees and tie order are the unbounded
enumeration's (``tests/test_steiner_differential.py``).

Note: with exclusion-only branching the enumeration is exact for ``k = 1``
and a high-quality heuristic for ``k > 1`` (it can, in adversarial graphs,
miss an alternative tree).  This matches the role the top-k list plays in
the paper: a pool of good alternative interpretations for learning and
re-ranking, not an exhaustively verified enumeration.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Sequence, Set, Tuple

from typing import TYPE_CHECKING

from ..exceptions import DeadlineExceededError, DisconnectedTerminalsError, SteinerError
from ..graph.search_graph import SearchGraph
from .network import DistanceBounds, SolverCounters, SteinerNetwork
from .tree import SteinerTree, validate_terminals

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.budget import Budget

SolverFn = Callable[[SearchGraph, Sequence[str]], SteinerTree]


def default_solver(graph: SearchGraph, terminals: Sequence[str], exact_terminal_limit: int = 5) -> SteinerTree:
    """Pick the exact DP for few terminals, the approximation otherwise."""
    return SteinerNetwork(graph).default_tree(
        terminals, exact_terminal_limit=exact_terminal_limit
    )


@dataclass
class KBestSteiner:
    """Enumerates the k lowest-cost Steiner trees for a terminal set.

    Parameters
    ----------
    solver:
        Base single-tree solver; when omitted, the default exact/approximate
        dispatch runs directly on a shared graph snapshot (fast path).  A
        custom solver is honoured through the legacy graph-copy protocol,
        unbounded: it is how the tests plug in the reference oracle.
    max_expansions:
        Upper bound on branching expansions, guarding against blow-up on
        dense graphs.
    network_cache:
        Optional session cache (duck-typed: ``network(graph)``, ``recall(key)``
        / ``remember(key, trees)`` and ``record_solve(counters)``, i.e. the
        engine's :class:`~repro.engine.context.SteinerNetworkCache`).  With a
        cache and no custom ``solver``, solves over an unchanged graph reuse
        one snapshot, and an enumeration whose priced network, terminals,
        ``k`` and cap equal an earlier complete one's — under whatever graph
        object or version counter — returns that one's trees in its order
        instead of running.  The cache also totals every solve's
        :class:`SolverCounters`.  There is no switch: code that needs an
        enumeration to run builds a cache-less ``KBestSteiner()``.
    """

    solver: Optional[SolverFn] = None
    max_expansions: int = 200
    network_cache: Optional[object] = None

    def solve(
        self,
        graph: SearchGraph,
        terminals: Sequence[str],
        k: int,
        budget: "Optional[Budget]" = None,
    ) -> List[SteinerTree]:
        """Return up to ``k`` distinct Steiner trees in nondecreasing cost order.

        With a ``budget``, the enumeration is deadline-aware: the budget is
        polled before/inside every base solve and at each branching
        expansion.  Expiry before the *first* tree exists raises
        :class:`~repro.exceptions.DeadlineExceededError`; expiry after that
        stops branching, drains already-solved candidates off the heap (they
        are complete, valid trees), marks the budget truncated, and returns
        the partial list — possibly fewer than ``k`` trees.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        terminals = validate_terminals(graph, terminals)
        cache = self.network_cache
        counters = SolverCounters()
        try:
            if self.solver is not None:
                return self._enumerate(graph, None, terminals, k, budget, counters)
            if cache is None:
                return self._enumerate(graph, SteinerNetwork(graph), terminals, k, budget, counters)
            network = cache.network(graph)  # type: ignore[attr-defined]
            # The cap is part of the key because it changes the list.
            key = (*network.priced_key(), terminals, k, self.max_expansions)
            recalled = cache.recall(key)  # type: ignore[attr-defined]
            if recalled is not None:
                # The full list, whatever the budget: nothing ran to tick it.
                counters.recalls = 1
                return list(recalled)
            trees = self._enumerate(graph, network, terminals, k, budget, counters)
            # Only an enumeration that ran to its own end is worth recalling:
            # a deadline must never shorten a later reader's ranking.
            if budget is None or not budget.truncated:
                cache.remember(key, trees)  # type: ignore[attr-defined]
            return trees
        finally:
            if cache is not None:
                cache.record_solve(counters)  # type: ignore[attr-defined]

    def _enumerate(
        self, graph: SearchGraph, network: Optional[SteinerNetwork], terminals: Sequence[str],
        k: int, budget: "Optional[Budget]", counters: SolverCounters,
    ) -> List[SteinerTree]:
        """The enumeration itself, on ``network`` (``None``: the ``solver=`` protocol)."""
        # An exclusion set holds edge *indexes* of the shared snapshot on the
        # network path, edge ids under the legacy graph-copy protocol.
        exclusion_key = network.edge_index.__getitem__ if network is not None else str

        tables: Optional[DistanceBounds] = None
        # Every distinct tree found so far, cheapest first, as (cost, exclusion
        # keys of its edges): what bounds the branches still to solve.
        known: List[Tuple[float, FrozenSet]] = []
        candidate_edge_sets: Set[FrozenSet[str]] = set()

        def remember(tree: SteinerTree) -> None:
            candidate_edge_sets.add(tree.edge_ids)
            bisect.insort(known, (tree.cost, frozenset(map(exclusion_key, tree.edge_ids))))

        def base_solve(excluded: FrozenSet) -> SteinerTree:
            nonlocal tables
            counters.base_solves += 1
            if network is None:
                tree = self.solver(self._graph_without(graph, excluded), terminals)  # type: ignore[misc]
                # Re-cost against the original graph (costs are identical, but
                # the tree object should reference original edge ids).
                return SteinerTree.from_edges(graph, tree.edge_ids, terminals)
            if excluded and tables is None:
                tables = network.terminal_distances(terminals, budget, counters)
            # A branch's optimum is of no use above the k-th best candidate
            # cost (the paper's alpha: k cheaper trees pop first), and it
            # cannot exceed the cost of a known tree the exclusions leave intact.
            upper_bound = known[k - 1][0] if len(known) >= k else math.inf
            for cost, edges in known:
                if cost >= upper_bound:
                    break
                if edges.isdisjoint(excluded):
                    upper_bound = cost
                    break
            return network.default_tree(
                terminals, excluded=excluded, budget=budget, counters=counters,
                lower_bounds=tables, upper_bound=upper_bound,
            )

        if budget is not None:
            budget.check("k-best-steiner")
        try:
            best = base_solve(frozenset())
        except SteinerError:  # including DisconnectedTerminalsError
            return []

        results: List[SteinerTree] = []
        seen_trees: Set[FrozenSet[str]] = set()
        counter = itertools.count()
        # Heap entries: (cost, tiebreak, tree, exclusion set)
        heap: List[Tuple[float, int, SteinerTree, FrozenSet]] = [
            (best.cost, next(counter), best, frozenset())
        ]
        remember(best)
        expansions = 0

        while heap and len(results) < k:
            cost, _, tree, excluded = heapq.heappop(heap)
            if tree.edge_ids in seen_trees:
                continue
            seen_trees.add(tree.edge_ids)
            results.append(tree)
            if len(results) >= k:
                break

            # Branch: forbid each edge of the newly accepted tree in turn.
            for edge_id in sorted(tree.edge_ids):
                if expansions >= self.max_expansions:
                    counters.expansion_cap_hits = 1  # per solve, however many loops it cuts
                    break
                if budget is not None and budget.expired():
                    # Stop branching; the outer loop keeps draining fully
                    # solved candidates already on the heap.
                    budget.mark_truncated("k-best-steiner")
                    break
                expansions += 1
                new_excluded = excluded | {exclusion_key(edge_id)}
                try:
                    candidate = base_solve(new_excluded)
                except DeadlineExceededError:
                    # Expired mid-re-solve: at least one tree exists, so the
                    # enumeration degrades to a partial result.
                    budget.mark_truncated("k-best-steiner")  # type: ignore[union-attr]
                    break
                except DisconnectedTerminalsError:
                    counters.disconnected_branches += 1
                    continue
                except SteinerError:  # BoundExceededError: the solver counted it
                    continue
                if candidate.edge_ids in seen_trees or candidate.edge_ids in candidate_edge_sets:
                    counters.duplicate_candidates += 1
                    continue
                remember(candidate)
                heapq.heappush(
                    heap, (candidate.cost, next(counter), candidate, new_excluded)
                )
        return results

    @staticmethod
    def _graph_without(graph: SearchGraph, excluded_edges: FrozenSet[str]) -> SearchGraph:
        reduced = graph.copy(share_weights=True)
        for edge_id in excluded_edges:
            if reduced.has_edge(edge_id):
                reduced.remove_edge(edge_id)
        return reduced


def k_best_steiner_trees(
    graph: SearchGraph, terminals: Sequence[str], k: int, solver: Optional[SolverFn] = None
) -> List[SteinerTree]:
    """Convenience wrapper around :class:`KBestSteiner`."""
    return KBestSteiner(solver=solver).solve(graph, terminals, k)
