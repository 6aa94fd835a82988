"""A reusable, integer-indexed snapshot of a graph for Steiner solving.

The k-best enumerator (:mod:`repro.steiner.topk`) re-solves the Steiner
problem dozens of times per call on graphs that differ only by a handful of
*excluded* edges (and, with three or more terminals, a few edges priced at
zero).  :class:`SteinerNetwork` lifts everything those solves share out of
the loop: it snapshots the graph once — nodes and edges mapped to dense
integer indexes, every edge cost evaluated once — and the solvers take the
exclusion set as an argument instead of a mutated graph copy; a re-priced
view (:meth:`SteinerNetwork.repriced`) shares all of it but the costs.

Every solver is built on **one** label-setting search
(:meth:`SteinerNetwork._search`) over per-call flat lists indexed by node: a
cost label and a back-pointer per ``(terminal subset, node)``.  The exact DP
is rooted at the first terminal: it solves the others' subsets and reads the
tree at its node.  A tree's edge set is read off the back-pointers once, at
the end; nothing is materialised per node.  Two cuts keep the work near the
terminals instead of growing with the catalog.  The optimum is bounded from
above — by the caller's ``upper_bound`` (the k-best enumerator knows one for
most branches) and by the tree that the first terminal's shortest paths to
the others form — and a label is dropped when its cost plus a lower bound on
the distance its tree still has to cover (the caller's exclusion-free
distances to the root, the distances settled under the exclusions) exceeds
that; and the last grow pass stops when the root terminal settles.  Neither
changes an answer — a dropped label cannot be part of a tree within the
bound, and every label that can settles at the same cost, in the same order,
with the same back-pointer.  A search is handed its limit as the bound and
one per-node distance table, and subtracts only at the nodes it pops or
relaxes: a solve costs the labels it touches, not a pass over every node per
terminal subset.

Parity note: nodes are indexed in sorted node-id order, so a heap entry
``(dist, node index)`` pops in the seed implementation's ``(dist, node-id
string)`` order and every equal-cost tie-break is bit-identical to it
(``tests/reference_steiner.py`` keeps the seed solver as the oracle).
"""

from __future__ import annotations

import hashlib
import heapq
import math
from array import array
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Collection,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..exceptions import BoundExceededError, DisconnectedTerminalsError, SteinerError
from ..graph.features import WeightVector
from ..graph.search_graph import SearchGraph
from .tree import SteinerTree, validate_terminals

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.budget import Budget

_EMPTY: FrozenSet[int] = frozenset()
_INF = float("inf")
#: ``via_edge`` codes below zero.  ``_ROOT`` ends a back-pointer chain; a value
#: ``-1 - sub`` (<= -2) says the label merges the trees of the terminal
#: subsets ``sub`` and ``mask ^ sub`` at that node.
_ROOT = -1
#: The upper bound and the DP total the same tree in different orders; the
#: slack keeps rounding from pruning a label that ties with the bound.
_BOUND_SLACK = 1.0 + 1e-9
#: A search's limit at node ``v`` is ``bound - far[v]``: ``(bound, far)``.
Limit = Tuple[float, List[float]]


@dataclass
class SolverCounters:
    """What top-k enumerations did (one solve's worth, or a running total)."""

    #: single-tree searches that ran (the first, and one per Lawler branch not screened)
    base_solves: int = 0
    #: optima of three-or-more-terminal branches that have a non-terminal leaf:
    #: branched when popped, never emitted
    nonminimal_optima: int = 0
    #: branches, searched or screened without a known upper bound, that found no tree
    disconnected_branches: int = 0
    #: branches searched or screened under an upper bound the enumeration already held
    bounded_branches: int = 0
    #: of those, the ones abandoned: no tree within the bound (or none at all)
    bounded_out_branches: int = 0
    #: two-terminal branches not searched because the search would fail at its
    #: first pop (each is also a disconnected or bounded-out branch)
    screened_children: int = 0
    #: two-terminal enumerations that began with a finite α: a re-priced earlier list
    warm_starts: int = 0
    #: DP labels dropped because they cannot be completed within the upper bound
    pruned_labels: int = 0
    #: labels settled, over every search of every base solve and distance table
    settled_labels: int = 0
    #: enumerations that stopped branching at ``max_expansions``
    expansion_cap_hits: int = 0
    #: enumerations that ran nothing: the complete ranking of the same priced
    #: network, terminals, ``k`` and cap was recalled (every other count is 0)
    recalls: int = 0


def _digest(parts: Sequence[bytes]) -> bytes:
    """SHA-256 of ``parts``, fed in pieces below hashlib's 2 KiB threshold for releasing the GIL.

    A network is built beside the serving layer's reader threads and waits to get the
    interpreter back after every release (serving benchmark: 1.9 ms per
    build fed whole, 1.2 ms fed like this).
    """
    digest = hashlib.sha256()
    for part in parts:
        for start in range(0, len(part), 2047):
            digest.update(part[start : start + 2047])
    return digest.digest()


class _Labels:
    """One solve's DP tables: per terminal-subset mask, flat lists over nodes.

    ``cost[mask][v]`` is the cheapest known tree spanning the terminals in
    ``mask`` plus node ``v``; ``via_edge[mask][v]`` / ``via_node[mask][v]``
    say how it got there (an edge from a neighbour's label, or a ``_ROOT`` /
    merge code).  Built per call and dropped on return: concurrent readers
    share one :class:`SteinerNetwork`.
    """

    __slots__ = ("size", "cost", "via_node", "via_edge", "settled", "no_limit", "counters")

    def __init__(self, size: int, counters: Optional[SolverCounters] = None) -> None:
        self.size = size
        self.cost: Dict[int, List[float]] = {}
        self.via_node: Dict[int, List[int]] = {}
        self.via_edge: Dict[int, List[int]] = {}
        #: per mask, the nodes whose label is final, in settling order
        self.settled: Dict[int, List[int]] = {}
        #: the ``limit`` of a search that keeps every label; its table is
        #: also the zero lower bound of a solve handed none
        self.no_limit: Limit = (_INF, [0.0] * size)
        #: where the search counts the labels it drops for exceeding their limit
        self.counters = counters if counters is not None else SolverCounters()

    def open(self, mask: int) -> Tuple[List[float], List[int]]:
        cost = self.cost[mask] = [_INF] * self.size
        self.via_node[mask] = [0] * self.size
        via_edge = self.via_edge[mask] = [_ROOT] * self.size
        self.settled[mask] = []
        return cost, via_edge

    def seed(self, mask: int, root: int) -> List[Tuple[float, int]]:
        """Open ``mask`` with ``root`` at cost zero; the heap a search starts from."""
        self.open(mask)[0][root] = 0.0
        return [(0.0, root)]


class SteinerNetwork:
    """Immutable solving substrate built once from a :class:`SearchGraph`.

    The snapshot reflects the graph's structure and edge costs at
    construction time, and nothing of it changes afterwards: a graph whose
    weights or structure moved needs another snapshot.  A cache-less solve
    builds one per call; the session's
    :class:`~repro.engine.context.SteinerNetworkCache` builds one per
    topology and derives the rest (:meth:`rescored`).
    """

    __slots__ = (
        "graph", "node_ids", "node_index", "edge_ids", "edge_index", "edge_costs", "adjacency",
        "endpoints", "topology_key", "__weakref__",
    )

    def __init__(self, graph: SearchGraph) -> None:
        self.graph = graph
        # Sorted, so that a node's index is also its tie-break rank.
        self.node_ids: List[str] = sorted(node.node_id for node in graph.nodes())
        self.node_index: Dict[str, int] = {nid: i for i, nid in enumerate(self.node_ids)}
        edges = graph.edges()
        self.edge_ids: List[str] = [edge.edge_id for edge in edges]
        self.edge_index: Dict[str, int] = {eid: i for i, eid in enumerate(self.edge_ids)}
        self.edge_costs: List[float] = [graph.edge_cost(edge) for edge in edges]
        # node index -> [(neighbor index, edge index, cost)]
        self.adjacency: List[List[Tuple[int, int, float]]] = [[] for _ in self.node_ids]
        endpoints: List[int] = []
        for idx, edge in enumerate(edges):
            u = self.node_index[edge.u]
            v = self.node_index[edge.v]
            cost = self.edge_costs[idx]
            self.adjacency[u].append((v, idx, cost))
            self.adjacency[v].append((u, idx, cost))
            endpoints += (u, v)
        #: Edge ``i`` joins node indexes ``endpoints[2i]`` and ``endpoints[2i + 1]``.
        self.endpoints = array("q", endpoints)
        #: Digest of everything above but the costs — node ids in index order
        #: and, per edge in snapshot order, its id and endpoints: two snapshots
        #: with equal keys index, order and tie-break identically, whatever
        #: graph objects they were built from.  Endpoints count: ``new_edge``
        #: ids embed them, hand-built ids need not.  The counts and lengths
        #: make the separator-free concatenations unambiguous.
        parts = [array("q", (len(self.node_ids), len(self.edge_ids))).tobytes(), self.endpoints.tobytes()]
        for ids in (self.node_ids, self.edge_ids):
            parts.append(array("q", list(map(len, ids))).tobytes())
            parts.append("".join(ids).encode("utf-8", "surrogatepass"))
        self.topology_key: bytes = _digest(parts)

    # ------------------------------------------------------------------
    # Topology-sharing derivation
    # ------------------------------------------------------------------
    def rescored(
        self, graph: Optional[SearchGraph], moved: Collection[int], weights: WeightVector
    ) -> "SteinerNetwork":
        """A snapshot of ``graph`` sharing this one's topology, the edges ``moved`` re-priced.

        ``graph`` must hold this snapshot's nodes and edge objects (the session
        cache derives only between graphs of one
        :attr:`~repro.graph.search_graph.SearchGraph.structure_stamp`), and
        every edge not in ``moved`` must cost under ``graph``'s weights what it
        costs here.  A moved edge is priced by :meth:`Edge.cost` under
        ``weights``, which must weigh each of its features as ``graph``'s
        vector does (``graph.weights`` itself, or a flat copy of the features
        that matter), so every cost is the one a from-scratch build derives,
        bit for bit.  With nothing moved the costs are shared too, and with
        ``graph`` ``None`` as well the copy is a template for the session
        cache: this snapshot's index and prices, holding no graph.
        """
        return self.repriced(graph, {
            idx: graph.edge(self.edge_ids[idx]).cost(weights, graph.config.minimum_edge_cost)
            for idx in moved
        })

    def repriced(self, graph: Optional[SearchGraph], prices: Dict[int, float]) -> "SteinerNetwork":
        """A snapshot of ``graph`` sharing this one's topology, edge ``i`` costing ``prices[i]``:
        only the cost vector and the re-priced edges' endpoints' adjacency lists are new."""
        clone = object.__new__(SteinerNetwork)
        clone.graph, clone.node_ids, clone.node_index = graph, self.node_ids, self.node_index
        clone.edge_ids, clone.edge_index, clone.endpoints = self.edge_ids, self.edge_index, self.endpoints
        clone.topology_key, clone.edge_costs, clone.adjacency = self.topology_key, self.edge_costs, self.adjacency
        if prices:
            clone.edge_costs = costs = list(self.edge_costs)
            clone.adjacency = adjacency = list(self.adjacency)
            touched: Set[int] = set()
            for idx, cost in prices.items():
                costs[idx] = cost
                touched.update(self.endpoints[2 * idx : 2 * idx + 2])
            for node in touched:
                adjacency[node] = [(neighbor, idx, costs[idx]) for neighbor, idx, _ in adjacency[node]]
        return clone

    def priced_key(self) -> Tuple[bytes, bytes]:
        """What every solve on this snapshot reads: its topology and its exact cost vector.

        Packed doubles: two keys are equal only when every edge costs the same
        to the bit, the condition a version counter merely approximates.
        References neither the graph nor the snapshot's id lists.
        """
        return self.topology_key, array("d", self.edge_costs).tobytes()

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def _tree_from_indexes(self, edge_idxs: Collection[int], terminals: Sequence[str]) -> SteinerTree:
        # Costed from the snapshot: ``edge_costs`` holds exactly what the
        # graph evaluates per edge, and fsum makes the total independent of
        # summation order, so it equals ``SteinerTree.from_edges`` bit for bit.
        return SteinerTree(
            frozenset(self.edge_ids[i] for i in edge_idxs),
            frozenset(terminals),
            math.fsum(self.edge_costs[i] for i in edge_idxs),
        )

    # ------------------------------------------------------------------
    # The label-setting search every solver shares
    # ------------------------------------------------------------------
    def _search(
        self,
        labels: _Labels,
        mask: int,
        heap: List[Tuple[float, int]],
        excluded: AbstractSet[int],
        limit: Limit,
        targets: Collection[int],
        budget: "Optional[Budget]",
        where: str,
    ) -> bool:
        """Settle ``mask``'s labels in ``(cost, node)`` order from the seeded ``heap``.

        Relaxes along non-``excluded`` edges, never keeps a label at node
        ``v`` above ``bound - far[v]`` (``limit`` is ``(bound, far)``: the
        subtraction is made per node popped or relaxed, never for the whole
        table), and returns ``True`` as soon as every node of ``targets``
        has settled, or ``False`` once the heap runs dry.  The budget is
        ticked per pop.
        """
        bound, far = limit
        cost = labels.cost[mask]
        via_node = labels.via_node[mask]
        via_edge = labels.via_edge[mask]
        settled = labels.settled[mask]
        adjacency = self.adjacency
        pop, push = heapq.heappop, heapq.heappush
        remaining = len(targets)
        pruned = 0
        while heap:
            if budget is not None:
                budget.tick(where)
            dist, node = pop(heap)
            if dist > cost[node] or dist > bound - far[node]:
                continue
            settled.append(node)
            for neighbor, edge_idx, edge_cost in adjacency[node]:
                if edge_idx in excluded:
                    continue
                candidate = dist + edge_cost
                if candidate < cost[neighbor]:
                    if candidate > bound - far[neighbor]:
                        pruned += 1
                        continue
                    cost[neighbor] = candidate
                    via_node[neighbor] = node
                    via_edge[neighbor] = edge_idx
                    push(heap, (candidate, neighbor))
            if node in targets:
                remaining -= 1
                if not remaining:
                    break
        labels.counters.pruned_labels += pruned
        labels.counters.settled_labels += len(settled)
        return not remaining

    @staticmethod
    def _edges_of(labels: _Labels, mask: int, node: int) -> Set[int]:
        """The edge set the back-pointers at ``(mask, node)`` describe."""
        edges: Set[int] = set()
        pending = [(mask, node)]
        while pending:
            mask, node = pending.pop()
            via_node, via_edge = labels.via_node[mask], labels.via_edge[mask]
            while (edge := via_edge[node]) != _ROOT:
                if edge >= 0:
                    edges.add(edge)
                    node = via_node[node]
                else:  # a merge: one half now, the other half later
                    sub = -1 - edge
                    pending.append((mask ^ sub, node))
                    mask = sub
                    via_node, via_edge = labels.via_node[mask], labels.via_edge[mask]
        return edges

    # ------------------------------------------------------------------
    # Exact solver (Dreyfus–Wagner DP)
    # ------------------------------------------------------------------
    def terminal_distances(
        self,
        terminal: str,
        budget: "Optional[Budget]" = None,
        counters: Optional[SolverCounters] = None,
        radius: float = _INF,
    ) -> List[float]:
        """``terminal``'s shortest-path distance to every node, with no edge excluded.

        Excluding edges only lengthens paths, so the table bounds the
        distances to ``terminal`` from below under *every* exclusion set: the
        two-terminal enumeration takes it once, from the end every spur search
        heads for, and hands it to each search as ``lower_bounds``.

        A ``radius`` stops the search past it: a node farther away keeps
        infinity.  Under any bound up to ``radius`` that prunes exactly what
        its true distance prunes (both leave a negative limit), so a caller
        whose bounds only fall — the paper's α — takes the table at its first
        α and settles only the α-ball around the terminal.
        """
        labels = _Labels(len(self.node_ids), counters)
        heap = labels.seed(1, self.node_index[terminal])
        self._search(labels, 1, heap, _EMPTY, (radius, labels.no_limit[1]), (), budget, "dijkstra")
        return labels.cost[1]

    def exact_tree(
        self,
        terminals: Sequence[str],
        excluded: AbstractSet[int] = _EMPTY,
        max_terminals: int = 8,
        budget: "Optional[Budget]" = None,
        counters: Optional[SolverCounters] = None,
        lower_bounds: Optional[List[float]] = None,
        upper_bound: float = _INF,
    ) -> SteinerTree:
        """Minimum-cost Steiner tree over ``terminals``, skipping ``excluded`` edges.

        Same algorithm (and the same tie-breaking) as the seed
        ``exact_steiner_tree``.  With a ``budget``, the search polls it per
        pop and the DP per terminal subset, and the solve aborts with
        :class:`~repro.exceptions.DeadlineExceededError` once it expires — a
        partially run DP yields no usable tree, so there is no partial
        return at this level.  ``counters``, when given, receives what the
        solve did.

        ``upper_bound`` is a cost above which the caller has no use for the
        answer, ``lower_bounds`` what :meth:`terminal_distances` returns for
        the first terminal: distances to it no exclusion set can undercut.
        They only remove work: the tree returned is the unbounded solve's
        whenever that costs no more than ``upper_bound``, and otherwise
        :class:`~repro.exceptions.BoundExceededError` is raised.

        With three or more terminals, bounded or not, the DP is rooted at
        the first terminal.  Its singleton pass runs under the bound alone
        and stops once the other terminals settle.  If one does not, no tree
        is within the bound, and the solve ends there.  Otherwise the pass's
        paths to them are a tree, whose weight bounds the optimum when it is
        lower, and its settled distances, with its radius for every node it
        has not settled, prune every other pass from its first pop.  Only
        the other terminals' subsets are solved, read at the first
        terminal's node, where its own tree is empty: the seed's cost and
        equal-cost witness (``tests/test_steiner_differential.py`` argues it).
        """
        terminals = validate_terminals(self.graph, terminals)
        if len(terminals) > max_terminals:
            raise SteinerError(
                f"exact Steiner tree limited to {max_terminals} terminals; got {len(terminals)}"
            )
        if len(terminals) == 1:
            return SteinerTree(frozenset(), frozenset(terminals), 0.0)
        roots = [self.node_index[t] for t in terminals]
        labels = _Labels(len(self.node_ids), counters)
        bounded = upper_bound < _INF
        if bounded:
            labels.counters.bounded_branches += 1
        bound = upper_bound * _BOUND_SLACK
        zeros = labels.no_limit[1]
        # Per terminal, a lower bound on its distance to each node: the table
        # handed in (or zero), overwritten with the distances under
        # ``excluded`` as that terminal's own pass settles them.
        distances = [lower_bounds or zeros] + [zeros] * (len(roots) - 1)

        def far_for(subset: int) -> List[float]:
            # Completing a tree at ``v`` costs at least the distance from ``v``
            # to the farthest terminal still outside it — the root always is:
            # the one pruning rule.  ``v``'s limit is ``bound - far[v]``.
            outside = [d for p, d in enumerate(distances) if not subset >> p & 1 and d is not zeros]
            outside = outside or [zeros]
            return outside[0] if len(outside) == 1 else list(map(max, *outside))

        def tree_at_root(mask: int, rooted: bool) -> SteinerTree:
            if rooted:
                return self._tree_from_indexes(self._edges_of(labels, mask, roots[0]), terminals)
            if bounded:
                labels.counters.bounded_out_branches += 1
                raise BoundExceededError("no Steiner tree within the upper bound")
            raise DisconnectedTerminalsError()

        if len(roots) == 2:
            # A minimum-cost path, searched from the *second* terminal to the
            # first: that is the equal-cost witness the DP reads off the
            # second terminal's singleton table, so tie-breaks stay the seed's.
            limit = (bound, far_for(2)) if bounded else labels.no_limit
            return tree_at_root(2, self._search(
                labels, 2, labels.seed(2, roots[1]), excluded, limit, roots[:1], budget, "shortest-path"
            ))

        # The first terminal's pass, pruned by the bound alone, stops once
        # the others settle.  A terminal it cannot reach is farther than the
        # bound from it: no tree, before any other pass or subset runs.  (A
        # pass pruned by a distance table proves nothing of the kind.)
        first = labels.seed(1, roots[0])
        if not self._search(labels, 1, first, excluded, (bound, zeros), set(roots[1:]), budget, "dijkstra"):
            return tree_at_root(1, False)
        # Its paths to the other terminals form a tree: the optimum costs no more.
        edges = set().union(*(self._edges_of(labels, 1, root) for root in roots[1:]))
        bound = min(bound, _BOUND_SLACK * math.fsum(self.edge_costs[e] for e in edges))
        # Exact where settled, at least the radius it stopped at elsewhere: a
        # consistent table, so it prunes the other passes from their start
        # without moving a label they keep.
        reached, settled = labels.cost[1], labels.settled[1]
        table = [reached[settled[-1]]] * len(reached)
        for v in settled:
            table[v] = reached[v]
        distances[0] = list(map(max, table, lower_bounds)) if lower_bounds else table
        for position in range(1, len(roots)):
            # The other singleton passes run out to their limits; what they settle is exact.
            mask = 1 << position
            heap = labels.seed(mask, roots[position])
            self._search(labels, mask, heap, excluded, (bound, far_for(mask)), (), budget, "dijkstra")
            table, cost = list(distances[position]), labels.cost[mask]
            for v in labels.settled[mask]:
                table[v] = cost[v]
            distances[position] = table

        # Rooted at the first terminal: only the subsets with bit 0 clear.
        full_mask = (1 << len(roots)) - 2
        for subset in sorted(range(2, full_mask + 1, 2), key=lambda m: bin(m).count("1")):
            if subset & (subset - 1) == 0:
                continue
            if budget is not None:
                budget.check("dreyfus-wagner")
            cost, via_edge = labels.open(subset)
            far = far_for(subset)
            # Merge step: combine two disjoint terminal subsets at a node.
            merged: List[int] = []
            sub = (subset - 1) & subset
            while sub > 0:
                other = subset ^ sub
                if sub < other:  # consider each unordered split once
                    cost_a, cost_b = labels.cost[sub], labels.cost[other]
                    for v in min(labels.settled[sub], labels.settled[other], key=len):
                        total = cost_a[v] + cost_b[v]
                        if total <= bound - far[v] and total < cost[v]:
                            if cost[v] == _INF:
                                merged.append(v)
                            cost[v] = total
                            via_edge[v] = -1 - sub
                sub = (sub - 1) & subset
            # Grow step: extend the merged trees along shortest paths.  Only
            # the root's label of the full subset is ever read, so that pass
            # stops when the root settles.
            heap = [(cost[v], v) for v in merged]
            heapq.heapify(heap)
            targets = roots[:1] if subset == full_mask else ()
            rooted = self._search(
                labels, subset, heap, excluded, (bound, far), targets, budget, "dreyfus-wagner-grow"
            )
        return tree_at_root(full_mask, rooted)

    # ------------------------------------------------------------------
    # Approximate solver (Kou–Markowsky–Berman distance network)
    # ------------------------------------------------------------------
    def approximate_tree(
        self,
        terminals: Sequence[str],
        excluded: AbstractSet[int] = _EMPTY,
        budget: "Optional[Budget]" = None,
    ) -> SteinerTree:
        """2-approximate Steiner tree, skipping ``excluded`` edges."""
        terminals = validate_terminals(self.graph, terminals)
        if len(terminals) == 1:
            return SteinerTree(frozenset(), frozenset(terminals), 0.0)
        roots = [self.node_index[t] for t in terminals]
        labels = _Labels(len(self.node_ids))
        # Shortest paths from each terminal, as far as the other terminals.
        for position, root in enumerate(roots):
            others = set(roots) - {root}
            heap = labels.seed(1 << position, root)
            if not self._search(labels, 1 << position, heap, excluded, labels.no_limit, others, budget, "dijkstra"):
                raise DisconnectedTerminalsError()
        # Kruskal over the distance network, ties on the terminal ids as the
        # seed approximation's; each MST edge expands into its shortest path.
        pairs = sorted(
            (labels.cost[1 << i][roots[j]], terminals[i], terminals[j], i, j)
            for i in range(len(roots))
            for j in range(i + 1, len(roots))
        )
        component = list(range(len(roots)))
        expanded: Set[int] = set()
        for _, _, _, i, j in pairs:
            if component[i] != component[j]:
                joined = component[i]
                component = [component[j] if c == joined else c for c in component]
                expanded |= self._edges_of(labels, 1 << i, roots[j])
        pruned = prune_to_tree(self.graph, {self.edge_ids[e] for e in expanded}, terminals)
        return SteinerTree.from_edges(self.graph, pruned, terminals)

    # ------------------------------------------------------------------
    # Default dispatch (exact at small terminal counts, else approximate)
    # ------------------------------------------------------------------
    def default_tree(
        self,
        terminals: Sequence[str],
        excluded: AbstractSet[int] = _EMPTY,
        exact_terminal_limit: int = 5,
        budget: "Optional[Budget]" = None,
        counters: Optional[SolverCounters] = None,
        lower_bounds: Optional[List[float]] = None,
        upper_bound: float = _INF,
    ) -> SteinerTree:
        """Exact DP (the only taker of the bounds) for few terminals, else the approximation."""
        if len(set(terminals)) <= exact_terminal_limit:
            return self.exact_tree(
                terminals, excluded, exact_terminal_limit, budget, counters, lower_bounds, upper_bound
            )
        return self.approximate_tree(terminals, excluded, budget=budget)


def exact_steiner_tree(
    graph: SearchGraph, terminals: Sequence[str], max_terminals: int = 8
) -> SteinerTree:
    """One-shot :meth:`SteinerNetwork.exact_tree`: the Dreyfus–Wagner optimum over ``terminals``.

    Raises :class:`~repro.exceptions.DisconnectedTerminalsError` if they cannot
    be connected and :class:`~repro.exceptions.SteinerError` above
    ``max_terminals`` (the DP is exponential in them; use the approximation).
    """
    return SteinerNetwork(graph).exact_tree(terminals, max_terminals=max_terminals)


def approximate_steiner_tree(graph: SearchGraph, terminals: Sequence[str]) -> SteinerTree:
    """One-shot :meth:`SteinerNetwork.approximate_tree` (Kou–Markowsky–Berman, 2-approximate).

    Raises :class:`~repro.exceptions.DisconnectedTerminalsError` if the
    terminals are not all connected to each other in ``graph``.
    """
    return SteinerNetwork(graph).approximate_tree(terminals)


def prune_to_tree(graph: SearchGraph, edge_ids: Set[str], terminals: Sequence[str]) -> Set[str]:
    """Extract a spanning tree of the edge set and prune non-terminal leaves.

    (Unchanged seed logic; operates on edge-id strings so that equal-cost
    tie-breaks in the Kruskal sort match the seed implementation exactly.)
    """
    nodes: Set[str] = set(terminals)
    for edge_id in edge_ids:
        edge = graph.edge(edge_id)
        nodes.add(edge.u)
        nodes.add(edge.v)

    # Minimum spanning forest over the selected edges (Kruskal).
    parent: Dict[str, str] = {node: node for node in nodes}

    def find(node: str) -> str:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    selected: Set[str] = set()
    for edge_id in sorted(edge_ids, key=graph.edge_cost_by_id):
        edge = graph.edge(edge_id)
        root_u, root_v = find(edge.u), find(edge.v)
        if root_u != root_v:
            parent[root_u] = root_v
            selected.add(edge_id)

    # Iteratively remove non-terminal leaves.
    terminal_set = set(terminals)
    changed = True
    while changed:
        changed = False
        degree: Dict[str, int] = {}
        incident: Dict[str, List[str]] = {}
        for edge_id in selected:
            edge = graph.edge(edge_id)
            for endpoint in edge.endpoints():
                degree[endpoint] = degree.get(endpoint, 0) + 1
                incident.setdefault(endpoint, []).append(edge_id)
        for node, node_degree in degree.items():
            if node_degree == 1 and node not in terminal_set:
                selected.discard(incident[node][0])
                changed = True
                break
    return selected
