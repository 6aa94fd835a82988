"""Top-k Steiner tree enumeration (``KBESTSTEINER`` in Algorithm 4).

The learner and the view maintenance logic both need the ``k`` lowest-cost
Steiner trees for a set of keyword terminals.  Every solve runs on one shared
:class:`~repro.steiner.network.SteinerNetwork` snapshot of the graph, so the
enumeration never copies the graph or re-derives edge costs, and the base
solver is chosen automatically: the exact Dreyfus–Wagner DP for small
terminal sets, the distance-network approximation otherwise — matching the
paper's "exact algorithm at small scales, approximation at larger scales".
The returned list ascends in :attr:`SteinerTree.cost`, equal costs in the
order they were found.

**Two terminals: exact.**  A two-terminal Steiner tree is a simple path, and
the enumeration is Yen's k shortest simple paths with Lawler's deviation
rule.  A candidate path walks from the second terminal to the first; the
partition it is the cheapest path of fixes its first ``d`` edges and
forbids some edges at node ``d``.  Emitting it splits the rest of that
partition into one child per node ``i >= d`` of the path: the first ``i``
edges fixed, edge ``i`` (and at ``i = d`` the parent's forbidden edges)
forbidden, the fixed prefix's nodes blocked.  The partitions are disjoint, so
no path is found twice, and each child is one shortest-path search from its
spur node through :meth:`SteinerNetwork.default_tree`.

**Three or more terminals: a heuristic.**  Each popped tree branches by
forbidding one of its edges at a time and re-solving; candidates are
deduplicated by edge set.  This is exact for ``k = 1`` and a high-quality
heuristic for ``k > 1``: a duplicate is dropped together with its branch, so
in adversarial graphs an alternative tree can be missed.  That matches the
role the top-k list plays in the paper, a pool of good alternative
interpretations for learning and re-ranking.

Both solve every child under what they already know: nothing above the k-th
cheapest candidate cost held so far can be emitted (the paper's α; a spur
search gets α minus its prefix), and exclusion-free distance tables bound
every child from below.  With three or more terminals, a known tree a
branch's exclusions leave intact is also still feasible there.  With two, a
re-solve starts warm: the session cache's latest list for the same terminals,
re-priced on this network, is k distinct simple paths wherever its paths
still walk between the terminals, so its k-th cost is an α before anything
is emitted; its distance table from the first terminal stops at that α.  And
a child whose spur node has no edge its search could relax
(each one forbidden, a self-loop, or past the bound by the distance tables)
is screened: it fails as its search would at the first pop, so the search
does not run.  The bounds only remove work
(``tests/test_steiner_differential.py``).
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Collection, FrozenSet, List, Optional, Sequence, Set, Tuple

from typing import TYPE_CHECKING

from ..exceptions import DeadlineExceededError, DisconnectedTerminalsError, SteinerError
from ..graph.search_graph import SearchGraph
from .network import _BOUND_SLACK, DistanceBounds, SolverCounters, SteinerNetwork
from .tree import SteinerTree, validate_terminals

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.budget import Budget


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
    max_expansions:
        Upper bound on children tried (searched or screened), guarding
        against blow-up on dense graphs.  Past it the candidates already held
        are drained, so with two terminals a capped list's tail is complete
        paths, cheapest first, but not provably the next ones.  A warm start
        may have cut some of those, so a warm enumeration that reaches the cap
        starts over cold: a capped list is the same whatever the cache held.
    network_cache:
        Optional session cache, duck-typed: ``network(graph)`` (the snapshot
        to solve on), ``recall(key)`` / ``remember(key, trees)`` (the ranking
        memo), ``latest(terminal_set)`` (the trees last remembered for that
        frozenset of terminals) and ``record_solve(counters)`` (the totals) —
        the engine's :class:`~repro.engine.context.SteinerNetworkCache`.  With
        a cache, solves over an unchanged graph reuse one snapshot, and an
        enumeration whose priced network, terminals, ``k`` and cap equal an
        earlier complete one's — under whatever graph object or version
        counter — returns that one's trees in its order instead of running.
        Any other two-terminal enumeration starts warm from ``latest``.  The
        cache also totals every solve's :class:`SolverCounters`.  There is no
        switch: code that needs an enumeration to run cold builds a
        cache-less ``KBestSteiner()``, and gets the same list.
    """

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
        polled before/inside every base solve and before every child solve.
        Expiry before the *first* tree exists raises
        :class:`~repro.exceptions.DeadlineExceededError`; expiry after that
        stops branching, marks the budget truncated, and returns a partial
        list — possibly fewer than ``k`` trees.  With two terminals it is the
        paths emitted so far, a prefix of the full list; with more, the
        already-solved candidates are drained off the heap as well (they are
        complete, valid trees).
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        terminals = validate_terminals(graph, terminals)
        cache = self.network_cache
        counters = SolverCounters()
        try:
            if cache is None:
                return self._enumerate(SteinerNetwork(graph), terminals, k, budget, counters)
            network = cache.network(graph)  # type: ignore[attr-defined]
            # The cap is part of the key because it changes the list.
            key = (*network.priced_key(), terminals, k, self.max_expansions)
            recalled = cache.recall(key)  # type: ignore[attr-defined]
            if recalled is not None:
                # The full list, whatever the budget: nothing ran to tick it.
                counters.recalls = 1
                return list(recalled)
            previous = cache.latest(frozenset(terminals)) if len(terminals) == 2 else ()  # type: ignore[attr-defined]
            warm = self._warm_alpha(network, terminals, k, previous)
            trees = self._enumerate(network, terminals, k, budget, counters, warm)
            # Only an enumeration that ran to its own end is worth recalling:
            # a deadline must never shorten a later reader's ranking.
            if budget is None or not budget.truncated:
                cache.remember(key, trees)  # type: ignore[attr-defined]
            return trees
        finally:
            if cache is not None:
                cache.record_solve(counters)  # type: ignore[attr-defined]

    def _enumerate(
        self, network: SteinerNetwork, terminals: Sequence[str], k: int,
        budget: "Optional[Budget]", counters: SolverCounters, warm: float = math.inf,
    ) -> List[SteinerTree]:
        """The first solve, then the enumeration for the terminal count, sorted by
        cost; ``warm`` bounds the k-th path's cost from above (two terminals)."""
        if budget is not None:
            budget.check("k-best-steiner")
        counters.base_solves += 1
        try:
            best = network.default_tree(terminals, budget=budget, counters=counters)
        except SteinerError:  # including DisconnectedTerminalsError
            return []
        if len(terminals) == 2:
            trees = self._paths(network, terminals, k, budget, counters, best, warm)
        else:
            trees = self._trees(network, terminals, k, budget, counters, best)
        # A child totals its edges with fsum, its parent was chosen by a search
        # that sums them in order: the child can undercut the parent by a
        # rounding.  The sort is stable, so ties keep the order they were found.
        trees.sort(key=lambda tree: tree.cost)
        return trees

    def _child_allowed(self, expansions: int, budget: "Optional[Budget]", counters: SolverCounters) -> bool:
        """Whether the cap allows one more child; past the deadline, raises
        :class:`~repro.exceptions.DeadlineExceededError` as a search would."""
        if expansions >= self.max_expansions:
            counters.expansion_cap_hits = 1  # per solve, however many loops it cuts
            return False
        if budget is not None:
            budget.check("k-best-steiner")
        return True

    def _paths(
        self, network: SteinerNetwork, terminals: Sequence[str], k: int,
        budget: "Optional[Budget]", counters: SolverCounters, best: SteinerTree,
        warm: float = math.inf,
    ) -> List[SteinerTree]:
        """Lawler–Yen k shortest simple paths from ``terminals[1]`` to ``terminals[0]``;
        reaching the cap, a ``warm`` one starts over cold (see ``max_expansions``)."""
        edge_costs, node_ids, adjacency = network.edge_costs, network.node_ids, network.adjacency
        tables: Optional[DistanceBounds] = None
        if warm < math.inf:
            counters.warm_starts += 1
        # The costs of every path held (emitted or on the heap), cheapest
        # first and at most k of them: the k-th is the paper's alpha.
        held: List[float] = [best.cost]
        counter = itertools.count()
        # Heap entries: (cost, tiebreak, tree, nodes, edges, deviation index,
        # edges forbidden at the deviation node)
        heap = [(best.cost, next(counter), best, *self._walk(network, terminals[1], best.edge_ids), 0, frozenset())]
        results: List[SteinerTree] = []
        expansions = 0

        while heap and len(results) < k:
            _, _, tree, nodes, edges, deviation, forbidden = heapq.heappop(heap)
            results.append(tree)
            if len(results) >= k:
                break
            # Child i fixes the first i edges and blocks their nodes but the
            # last (the spur node): every edge at a blocked node is excluded.
            blocked: Set[int] = set()
            for node in nodes[:deviation]:
                blocked.update(edge_idx for _, edge_idx, _ in adjacency[node])
            prefix_cost = sum(edge_costs[edge_idx] for edge_idx in edges[:deviation])
            for i in range(deviation, len(edges)):
                if i > deviation:
                    blocked.update(edge_idx for _, edge_idx, _ in adjacency[nodes[i - 1]])
                    prefix_cost += edge_costs[edges[i - 1]]
                spur_forbidden = forbidden | {edges[i]} if i == deviation else frozenset((edges[i],))
                excluded = blocked | spur_forbidden
                alpha = min(warm, held[k - 1] if len(held) >= k else math.inf)
                spur = nodes[i]
                try:
                    if not self._child_allowed(expansions, budget, counters):
                        if warm < math.inf:
                            return self._paths(network, terminals, k, budget, counters, best)
                        break  # the heap is drained: see max_expansions
                    expansions += 1
                    if alpha < math.inf and tables is None:
                        # Distances from terminals[0], the end every spur search heads
                        # for, out to the first α: no later bound reaches past it.
                        tables = network.terminal_distances(terminals, budget, counters, alpha * _BOUND_SLACK)
                    # Screen out a search whose first pop would relax nothing: each
                    # edge excluded, a self-loop, or past the search's own limit test.
                    bound, far = (alpha - prefix_cost) * _BOUND_SLACK, tables.tables[0] if tables else None
                    if all(
                        edge_idx in excluded or neighbor == spur or (far is not None and cost > bound - far[neighbor])
                        for neighbor, edge_idx, cost in adjacency[spur]
                    ):
                        counters.screened_children += 1
                        if far is None:
                            counters.disconnected_branches += 1
                        else:
                            counters.bounded_branches += 1
                            counters.bounded_out_branches += 1
                        continue
                    counters.base_solves += 1
                    found = network.default_tree(
                        (terminals[0], node_ids[spur]), excluded=excluded,
                        budget=budget, counters=counters, lower_bounds=tables,
                        upper_bound=alpha - prefix_cost,
                    )
                except DeadlineExceededError:
                    # A partial result, no drain: an unsolved sibling partition
                    # may hold a path cheaper than any on the heap, so only
                    # what was emitted is a prefix of the ranking.
                    budget.mark_truncated("k-best-steiner")  # type: ignore[union-attr]
                    return results
                except DisconnectedTerminalsError:
                    counters.disconnected_branches += 1
                    continue
                except SteinerError:  # BoundExceededError: the solver counted it
                    continue
                spur_nodes, spur_edges = self._walk(network, node_ids[spur], found.edge_ids)
                path_nodes, path_edges = nodes[:i] + spur_nodes, edges[:i] + spur_edges
                candidate = network._tree_from_indexes(path_edges, terminals)
                bisect.insort(held, candidate.cost)
                del held[k:]
                heapq.heappush(heap, (
                    candidate.cost, next(counter), candidate, path_nodes, path_edges, i, spur_forbidden
                ))
        return results

    @staticmethod
    def _walk(network: SteinerNetwork, start: str, edge_ids: Collection[str]) -> Optional[Tuple[List[int], List[int]]]:
        """The node and edge indexes of the simple path ``edge_ids``, in order from ``start``;
        ``None`` unless the ids are edges of ``network`` that form one."""
        remaining = {network.edge_index.get(edge_id) for edge_id in edge_ids}
        nodes, edges = [network.node_index[start]], []
        while remaining:
            # A simple path leaves each node by the one edge not yet walked, to a new node.
            step = next(((v, e) for v, e, _ in network.adjacency[nodes[-1]] if e in remaining), None)
            if step is None or step[0] in nodes:
                return None
            remaining.discard(step[1])
            nodes.append(step[0])
            edges.append(step[1])
        return nodes, edges

    @classmethod
    def _warm_alpha(
        cls, network: SteinerNetwork, terminals: Sequence[str], k: int, previous: Sequence[SteinerTree]
    ) -> float:
        """The k-th cheapest of the ``previous`` paths that still walk from
        ``terminals[1]`` to ``terminals[0]`` on ``network`` (an edge may be
        gone, a hand-built id may join other nodes), priced as a candidate is;
        infinity if fewer than k do.  They are distinct simple paths, so the
        k-th shortest costs no more."""
        target = network.node_index[terminals[0]]
        walks = (cls._walk(network, terminals[1], tree.edge_ids) for tree in previous)
        costs = sorted(
            math.fsum(network.edge_costs[edge_idx] for edge_idx in walk[1])
            for walk in walks
            if walk is not None and walk[0][-1] == target
        )
        return costs[k - 1] if len(costs) >= k else math.inf

    def _trees(
        self, network: SteinerNetwork, terminals: Sequence[str], k: int,
        budget: "Optional[Budget]", counters: SolverCounters, best: SteinerTree,
    ) -> List[SteinerTree]:
        """Exclusion-only branching: each popped tree forbids its edges one at a time."""
        tables: Optional[DistanceBounds] = None
        # Every distinct tree found so far, cheapest first, as (cost, edge
        # indexes): what bounds the branches still to solve.
        known: List[Tuple[float, FrozenSet[int]]] = []
        candidate_edge_sets: Set[FrozenSet[str]] = set()

        def remember(tree: SteinerTree) -> None:
            candidate_edge_sets.add(tree.edge_ids)
            bisect.insort(known, (tree.cost, frozenset(map(network.edge_index.__getitem__, tree.edge_ids))))

        def branch_solve(excluded: FrozenSet[int]) -> SteinerTree:
            nonlocal tables
            counters.base_solves += 1
            if tables is None:
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

        results: List[SteinerTree] = []
        counter = itertools.count()
        # Heap entries: (cost, tiebreak, tree, exclusion set); an edge set is
        # pushed at most once, so every pop is a new tree.
        heap: List[Tuple[float, int, SteinerTree, FrozenSet[int]]] = [
            (best.cost, next(counter), best, frozenset())
        ]
        remember(best)
        expansions = 0

        while heap and len(results) < k:
            _, _, tree, excluded = heapq.heappop(heap)
            results.append(tree)
            if len(results) >= k:
                break

            # Branch: forbid each edge of the newly accepted tree in turn.
            for edge_id in sorted(tree.edge_ids):
                new_excluded = excluded | {network.edge_index[edge_id]}
                try:
                    if not self._child_allowed(expansions, budget, counters):
                        break
                    expansions += 1
                    candidate = branch_solve(new_excluded)
                except DeadlineExceededError:
                    # Stop branching; the outer loop drains the candidates
                    # already on the heap (complete, valid trees).
                    budget.mark_truncated("k-best-steiner")  # type: ignore[union-attr]
                    break
                except DisconnectedTerminalsError:
                    counters.disconnected_branches += 1
                    continue
                except SteinerError:  # BoundExceededError: the solver counted it
                    continue
                if candidate.edge_ids in candidate_edge_sets:
                    counters.duplicate_candidates += 1
                    continue
                remember(candidate)
                heapq.heappush(
                    heap, (candidate.cost, next(counter), candidate, new_excluded)
                )
        return results


def k_best_steiner_trees(graph: SearchGraph, terminals: Sequence[str], k: int) -> List[SteinerTree]:
    """Convenience wrapper around :class:`KBestSteiner`."""
    return KBestSteiner().solve(graph, terminals, k)
