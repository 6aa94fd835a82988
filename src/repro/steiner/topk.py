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

The enumeration is Lawler's: the heap holds the cheapest tree of each open
partition (an included edge set, an excluded one), and popping a tree
splits the rest of its partition into one child per edge past the included
prefix: child ``i`` includes the tree's first ``i`` edges and excludes edge
``i``.  The partitions are disjoint, so no tree is found twice, and the list
is exact wherever the base solve is (up to five terminals).  A cap
(``max_expansions``) or a deadline ends it alike: the list is the trees
emitted so far, a prefix of the full one.

**Two terminals.**  A Steiner tree is a simple path, and the enumeration is
Yen's k shortest simple paths.  A path walks from the second terminal to the
first; child ``i`` also forbids the parent's forbidden edges at ``i = d``
(its deviation node) and blocks the included prefix's nodes, and is one
shortest-path search from its spur node.

**Three or more terminals.**  A tree's edges are ordered depth-first from the
first terminal, ties by edge index, after the prefix its partition included,
so an included set is a subtree holding that terminal.  A child is one solve
on a view of the network with the included edges priced at zero, over the
first terminal and the terminals the subtree misses, every other edge
between two of its nodes excluded; the included edges are added back, and
an edge closing a cycle (a zero-cost detour) is left out.  An optimum that
keeps a non-terminal leaf is branched, but neither emitted nor counted
toward α.

Every child is solved under what the enumeration knows: nothing above the
k-th cheapest candidate cost held can be emitted (the paper's α; a child
gets α minus its included cost).  With two terminals an exclusion-free
distance table from the first terminal bounds every search from below, and
a re-solve starts warm: the session cache's latest list for the same
terminals, re-priced, is k distinct simple paths wherever its paths still
walk between the terminals, so its k-th cost is an α before anything is
emitted, and the table stops at it.  A child whose spur node has no edge its
search could relax (each one forbidden, a self-loop, or past the bound by
the table) is screened: it fails as its search would at the first pop.  The
bounds only remove work (``tests/test_steiner_differential.py``).
"""

from __future__ import annotations

import bisect
import collections
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Collection, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from typing import TYPE_CHECKING

from ..exceptions import DeadlineExceededError, DisconnectedTerminalsError, SteinerError
from ..graph.search_graph import SearchGraph
from .network import _BOUND_SLACK, SolverCounters, SteinerNetwork
from .tree import SteinerTree, validate_terminals

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.budget import Budget


@dataclass
class KBestSteiner:
    """Enumerates the k lowest-cost Steiner trees for a terminal set.

    Parameters
    ----------
    max_expansions:
        Upper bound on children tried (searched or screened), guarding
        against blow-up on dense graphs.  Reaching it ends the enumeration:
        the list is the trees emitted so far, a prefix of the uncapped list,
        possibly fewer than ``k``.  A warm enumeration tries the same children
        in the same order as a cold one (its α only screens some), so a
        capped list is the same whatever the cache held.
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
        list — the trees emitted so far, a prefix of the full list, possibly
        fewer than ``k``.
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
        """Lawler–Yen k shortest simple paths from ``terminals[1]`` to ``terminals[0]``.

        Why two terminals do not run :meth:`_trees`: routed through it, the
        seed-2958 graph at k = 20 returns 19 of its 20 simple paths at the
        default cap of 200 (all 20 at a cap of 10 000), because the tree rule
        spends expansions on non-minimal optima; ``test_steiner.GOLDEN_GRID``'s tie
        order for t = 2, k = 20 moves at index 14; the mixed-traffic
        scenario's ``answers_total`` goes from 909 to 911; and 12 tier-1
        tests fail.
        """
        edge_costs, node_ids, adjacency = network.edge_costs, network.node_ids, network.adjacency
        tables: Optional[List[float]] = None
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
                        return results  # a prefix: see max_expansions
                    expansions += 1
                    if alpha < math.inf and tables is None:
                        # Distances from terminals[0], the end every spur search heads
                        # for, out to the first α: no later bound reaches past it.
                        tables = network.terminal_distances(terminals[0], budget, counters, alpha * _BOUND_SLACK)
                    # Screen out a search whose first pop would relax nothing: each
                    # edge excluded, a self-loop, or past the search's own limit test.
                    bound, far = alpha * _BOUND_SLACK - prefix_cost, tables
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
                        upper_bound=alpha * _BOUND_SLACK - prefix_cost,
                    )
                except DeadlineExceededError:
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
        """Lawler's partitions over trees: child i of a popped tree includes its first
        i edges (depth-first from ``terminals[0]``) and excludes edge i."""
        node_index, edge_index, edge_costs, adjacency = (
            network.node_index, network.edge_index, network.edge_costs, network.adjacency
        )
        terminal_nodes = {node_index[terminal] for terminal in terminals}
        # The costs of every minimal tree held (emitted or on the heap),
        # cheapest first and at most k of them: the k-th is the paper's alpha.
        held: List[float] = []
        counter = itertools.count()
        # Heap entries: (cost, tiebreak, tree, nodes and edges in branching
        # order, included prefix length, excluded edges, minimal)
        heap: List[tuple] = []

        def push(nodes: List[int], included: List[int], edges: Set[int], excluded: FrozenSet[int]) -> None:
            nodes, order = self._grow(network, nodes, included, edges)
            tree = network._tree_from_indexes(order, terminals)
            degree = collections.Counter(network.endpoints[2 * edge + side] for edge in order for side in (0, 1))
            minimal = all(count > 1 or node in terminal_nodes for node, count in degree.items())
            if minimal:
                bisect.insort(held, tree.cost)
                del held[k:]
            heapq.heappush(heap, (tree.cost, next(counter), tree, nodes, order, len(included), excluded, minimal))

        push([node_index[terminals[0]]], [], {edge_index[edge_id] for edge_id in best.edge_ids}, frozenset())
        results: List[SteinerTree] = []
        expansions = 0
        while heap:
            _, _, tree, nodes, order, fixed, excluded, minimal = heapq.heappop(heap)
            if not minimal:
                # An optimum with a non-terminal leaf: its partition may still
                # hold minimal trees, so it branches, but it is not an answer.
                counters.nonminimal_optima += 1
            else:
                results.append(tree)
                if len(results) >= k:
                    break
            # Child i solves for the root and the terminals order[:i] misses,
            # those edges free, every other edge between their nodes excluded.
            inside, internal, prefix_cost = {nodes[0]}, set(), 0.0
            for i, edge in enumerate(order):
                if i:  # order[i - 1] joined nodes[i] to the included subtree
                    internal.update(e for v, e, _ in adjacency[nodes[i]] if v in inside and e != order[i - 1])
                    inside.add(nodes[i])
                    prefix_cost += edge_costs[order[i - 1]]
                if i < fixed:
                    continue
                child_excluded = excluded | {edge}
                alpha = held[k - 1] if len(held) >= k else math.inf
                try:
                    if not self._child_allowed(expansions, budget, counters):
                        return results  # a prefix: see max_expansions
                    expansions += 1
                    counters.base_solves += 1
                    found = network.repriced(network.graph, dict.fromkeys(order[:i], 0.0)).default_tree(
                        (terminals[0], *(t for t in terminals[1:] if node_index[t] not in inside)),
                        excluded=child_excluded | internal, budget=budget, counters=counters,
                        upper_bound=alpha * _BOUND_SLACK - prefix_cost,
                    )
                except DeadlineExceededError:
                    budget.mark_truncated("k-best-steiner")  # type: ignore[union-attr]
                    return results
                except DisconnectedTerminalsError:
                    counters.disconnected_branches += 1
                    continue
                except SteinerError:  # BoundExceededError: the solver counted it
                    continue
                push(nodes[: i + 1], order[:i], {edge_index[edge_id] for edge_id in found.edge_ids}, child_excluded)
        return results

    @staticmethod
    def _grow(
        network: SteinerNetwork, nodes: List[int], included: List[int], edges: Set[int]
    ) -> Tuple[List[int], List[int]]:
        """Every node and edge of ``edges`` plus ``included`` in branching order.

        ``included`` is a subtree that joins ``nodes`` in that order (the root
        first); the rest follows depth-first from those nodes in turn, ties by
        edge index.  An edge that would close a cycle (a zero-cost detour
        beside a free included edge) is left out.
        """
        around: Dict[int, List[Tuple[int, int]]] = collections.defaultdict(list)
        for edge in sorted(edges):
            u, v = network.endpoints[2 * edge], network.endpoints[2 * edge + 1]
            around[u].append((v, edge))
            around[v].append((u, edge))
        nodes, order, reached = list(nodes), list(included), set(nodes)
        for start in nodes[: len(included) + 1]:
            stack = [iter(around[start])]
            while stack:
                for node, edge in stack[-1]:
                    if node not in reached:
                        reached.add(node)
                        nodes.append(node)
                        order.append(edge)
                        stack.append(iter(around[node]))
                        break
                else:
                    stack.pop()
        return nodes, order


def k_best_steiner_trees(graph: SearchGraph, terminals: Sequence[str], k: int) -> List[SteinerTree]:
    """Convenience wrapper around :class:`KBestSteiner`."""
    return KBestSteiner().solve(graph, terminals, k)
