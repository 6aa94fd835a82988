"""Differential tests: the Steiner kernel and the top-k enumeration against oracles.

``tests/reference_steiner.py`` is the dict/frozenset Dreyfus–Wagner solver
the kernel replaced, kept verbatim.  On random connected graphs that
deliberately contain zero-cost edges and equal-cost alternatives the two must
agree *exactly* — same edge set, ``==`` on cost, same error — for single
solves under random exclusion sets.  A single solve under a random
``upper_bound`` is the unbounded tree or bounded out, on the snapshot and on
a view with some edges priced at zero.

With three or more terminals the enumeration is exact wherever the base solve
is, and ``tests/reference_trees.py`` — every minimal Steiner tree, by
brute force — is its witness: the costs are the k cheapest minimal trees'
(up to the rounding of two summation orders), every tree is minimal and none
repeats.  On graphs too large for brute force the enumeration must equal
itself with every bound taken away, tree for tree, in order: the bounds
only remove work.

With two terminals the enumeration is exact too, and
``tests/reference_paths.py`` — every simple path, by depth-first search —
is its witness: the costs are the k cheapest paths' (up to the same
rounding), each tree is a simple path between the terminals, and no tree
repeats.
"""

from __future__ import annotations

import heapq
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference_paths import simple_paths
from reference_steiner import ReferenceSteinerNetwork
from reference_trees import is_minimal_steiner_tree, steiner_trees

from repro.engine.context import SteinerNetworkCache
from repro.exceptions import BoundExceededError, DisconnectedTerminalsError
from repro.graph import Edge, EdgeKind, Node, NodeKind, SearchGraph
from repro.steiner import KBestSteiner, SteinerNetwork
from repro.steiner.network import _BOUND_SLACK, SolverCounters

#: Few distinct values, so equal-cost alternatives are the rule; 0.1 + 0.2 vs
#: 0.3 adds the ties that only exist up to rounding.
COSTS = (0.0, 0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.0, 1.5, 2.0)


def random_case(seed: int, nodes=(4, 16), terminal_counts=(2, 5)):
    """A connected graph (random spanning tree + extra, possibly parallel,
    edges), 2–5 terminals and the generator that drew them."""
    rng = random.Random(seed)
    # Shuffled numeric prefixes: sorted-id order differs from insertion order.
    names = [f"n{rng.randrange(1000):03d}_{i}" for i in range(rng.randint(*nodes))]
    graph = SearchGraph()
    for name in names:
        graph.add_node(Node(node_id=name, kind=NodeKind.RELATION, label=name, relation=name))
    order = names[:]
    rng.shuffle(order)
    pairs = [(order[rng.randrange(i)], order[i]) for i in range(1, len(order))]
    pairs += [tuple(rng.sample(names, 2)) for _ in range(rng.randint(0, 2 * len(names)))]
    for u, v in pairs:
        cost = rng.choice(COSTS) if rng.random() < 0.85 else rng.uniform(0.0, 3.0)
        graph.add_edge(graph.new_edge(u, v, EdgeKind.ASSOCIATION, fixed_cost=cost))
    low, high = terminal_counts
    terminals = rng.sample(names, rng.randint(low, min(high, len(names))))
    return rng, graph, terminals


def solve(network, terminals, excluded_ids):
    excluded = frozenset(network.edge_index[edge_id] for edge_id in excluded_ids)
    try:
        return network.exact_tree(terminals, excluded)
    except DisconnectedTerminalsError:
        return "disconnected"


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_single_solves_match_reference_under_exclusions(seed):
    rng, graph, terminals = random_case(seed)
    kernel, reference = SteinerNetwork(graph), ReferenceSteinerNetwork(graph)
    edge_ids = kernel.edge_ids
    assert reference.edge_ids == edge_ids
    exclusions = [frozenset()] + [
        # From a couple of edges up to most of them: the large sets are the
        # disconnected-by-exclusion cases.
        frozenset(rng.sample(edge_ids, rng.randint(1, len(edge_ids) - 1)))
        for _ in range(4)
    ]
    for excluded_ids in exclusions:
        # SteinerTree equality is edge set + terminals + exact cost.
        assert solve(kernel, terminals, excluded_ids) == solve(reference, terminals, excluded_ids)


def test_rooted_dp_keeps_the_seed_witness_on_tie_heavy_graphs():
    """The kernel's DP is rooted at the first terminal's node ``r``: it solves
    only the other terminals' subsets and reads the tree at ``r`` from all of
    them, ``R``.  The seed solved every subset and read the full set
    ``R ∪ {0}`` at ``r``.  The costs agree, since terminal 0's own tree at
    ``r`` is empty.  So do the witnesses, by induction on ``X ⊆ R``: the seed's
    label for ``X ∪ {0}`` at ``r`` is the rooted label for ``X`` there, same
    cost and same edges.  A merge sets it (growth cannot beat the split
    ``({0}, X)``, which costs exactly ``X``'s label at ``r``), and the seed
    visits each split ``{X1, X2}`` of ``X`` as ``(X1 ∪ {0}, X2)`` then
    ``(X1, X2 ∪ {0})`` just where the rooted DP visits ``(X1, X2)``, with
    ``({0}, X)`` last.  Its first split to reach the minimum is then
    ``(X1 ∪ {0}, X2)`` for the rooted DP's first, or ``({0}, X)`` when
    growth set the rooted label; both read the rooted witness's edges.
    That holds in exact arithmetic: 400 tie-heavy graphs, t = 3–5, each
    solved bare and under three random exclusion sets, hold the kernel to the
    seed oracle's edge set and cost through rounding too."""
    solved = 0
    for seed in range(400):
        rng, graph, terminals = random_case(seed, nodes=(6, 40), terminal_counts=(3, 5))
        kernel, reference = SteinerNetwork(graph), ReferenceSteinerNetwork(graph)
        edge_ids = kernel.edge_ids
        exclusions = [frozenset()] + [
            frozenset(rng.sample(edge_ids, rng.randint(1, max(1, len(edge_ids) // 2)))) for _ in range(3)
        ]
        for excluded_ids in exclusions:
            tree = solve(kernel, terminals, excluded_ids)
            assert tree == solve(reference, terminals, excluded_ids), (seed, sorted(excluded_ids))
            solved += tree != "disconnected"
    assert solved >= 1_200


def cost_clusters(costs):
    """Positions of ``costs`` (ascending) grouped into runs equal up to rounding."""
    clusters = []
    for position, cost in enumerate(costs):
        if clusters and math.isclose(cost, costs[clusters[-1][0]], rel_tol=1e-9, abs_tol=1e-12):
            clusters[-1].append(position)
        else:
            clusters.append([position])
    return clusters


@settings(max_examples=300, deadline=None, derandomize=True)
@example(28)  # 4 nodes, 6 edges, 3 terminals: exclusion-only branching lost the 2.108 tree
@given(st.integers(min_value=0, max_value=1_000_000))
def test_top_k_is_the_k_cheapest_minimal_steiner_trees(seed):
    _, graph, terminals = random_case(seed, nodes=(4, 10), terminal_counts=(3, 4))
    assume(len(graph.edges()) <= 16)
    expected = [tree.cost for tree in steiner_trees(graph, terminals)]
    for k in (1, 5, 20):
        trees = KBestSteiner().solve(graph, terminals, k)
        costs = [tree.cost for tree in trees]
        assert len(costs) == len(expected[:k])
        assert all(math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12) for got, want in zip(costs, expected))
        assert len({tree.edge_ids for tree in trees}) == len(trees)
        assert all(is_minimal_steiner_tree(graph, tree, terminals) for tree in trees)
        assert costs == sorted(costs)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_top_k_matches_reference_tree_for_tree(seed):
    """Three to five terminals: the trees are the brute force's, up to the
    order of trees whose costs tie (within rounding)."""
    rng, graph, terminals = random_case(seed, nodes=(4, 10), terminal_counts=(3, 5))
    assume(len(graph.edges()) <= 16)
    k = rng.randint(1, 20)
    trees = KBestSteiner().solve(graph, terminals, k)
    reference = steiner_trees(graph, terminals)
    assert len(trees) == len(reference[:k])
    taken = 0
    for cluster in cost_clusters([tree.cost for tree in reference]):
        chunk = trees[taken : taken + len(cluster)]
        got = {tree.edge_ids for tree in chunk}
        want = {reference[position].edge_ids for position in cluster}
        assert len(got) == len(chunk)
        # A cluster cut by k holds some of the tied trees, any of them.
        assert got == want if len(chunk) == len(cluster) else got <= want
        taken += len(chunk)


def test_bounded_top_k_matches_reference_on_larger_tie_heavy_graphs(monkeypatch):
    """15–60 nodes, t in {3, 4}, k <= 12: enough alternatives that most
    branches run under a bound and some are abandoned under it.  The
    reference is the same enumeration with every bound taken away: each
    branch solved to its optimum, however dear."""
    cases = [random_case(seed, nodes=(15, 60), terminal_counts=(3, 4)) for seed in range(40)]
    cases = [(graph, terminals, rng.randint(2, 12)) for rng, graph, terminals in cases]
    cache = SteinerNetworkCache()
    bounded = [KBestSteiner(network_cache=cache).solve(graph, terminals, k) for graph, terminals, k in cases]
    did = cache.solver
    assert did.bounded_out_branches > 0 and did.bounded_branches > did.base_solves // 2
    assert did.bounded_out_branches + did.disconnected_branches < did.base_solves

    default_tree = SteinerNetwork.default_tree

    def unbounded(self, terminals, excluded=frozenset(), *args, **kwargs):
        kwargs.pop("upper_bound", None)
        kwargs.pop("lower_bounds", None)
        return default_tree(self, terminals, excluded, *args, **kwargs)

    monkeypatch.setattr(SteinerNetwork, "default_tree", unbounded)
    for (graph, terminals, k), trees in zip(cases, bounded):
        assert KBestSteiner().solve(graph, terminals, k) == trees
        assert all(is_minimal_steiner_tree(graph, tree, terminals) for tree in trees)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_bounded_single_solve_is_the_unbounded_tree_or_bounded_out(seed):
    rng, graph, terminals = random_case(seed, nodes=(6, 30))
    network = SteinerNetwork(graph)
    table = network.terminal_distances(terminals[0])
    for excluded_ids in ([], rng.sample(network.edge_ids, rng.randint(1, 4))):
        excluded = frozenset(network.edge_index[edge_id] for edge_id in excluded_ids)
        unbounded = solve(network, terminals, excluded_ids)
        if unbounded == "disconnected":
            with pytest.raises(BoundExceededError):
                network.exact_tree(terminals, excluded, lower_bounds=table, upper_bound=rng.uniform(0, 9))
            continue
        for upper_bound in (unbounded.cost, unbounded.cost * rng.uniform(1.0, 3.0), unbounded.cost + 1e-3):
            for lower_bounds in (table, None):
                bounded = network.exact_tree(
                    terminals, excluded, lower_bounds=lower_bounds, upper_bound=upper_bound
                )
                assert bounded == unbounded
        if unbounded.cost > 1e-3:
            with pytest.raises(BoundExceededError):
                network.exact_tree(
                    terminals, excluded, lower_bounds=table,
                    upper_bound=unbounded.cost * rng.uniform(0.0, 0.999),
                )


@pytest.mark.parametrize("count", [3, 4, 5])
def test_bounded_solve_under_lengthened_singleton_distances(count):
    """A bounded solve's singleton passes prune by the distances they settle
    under its exclusions, which can be far longer than the exclusion-free
    ones.  Excluding the optimum's edges at its terminals lengthens them; the
    bounded solve is still the unbounded tree, on the snapshot and on the
    view a top-k branch solves on, with the optimum's other edges free."""
    lengthened = 0
    for seed in range(40):
        rng, graph, terminals = random_case(seed, nodes=(count + 4, 30), terminal_counts=(count, count))
        network = SteinerNetwork(graph)
        best = network.exact_tree(terminals)
        at_terminals = frozenset(
            network.edge_index[edge_id] for edge_id in best.edge_ids
            if {graph.edge(edge_id).u, graph.edge(edge_id).v} & set(terminals)
        )
        free = dict.fromkeys(
            (network.edge_index[edge_id] for edge_id in best.edge_ids), 0.0
        )
        for excluded in (at_terminals, at_terminals | {rng.randrange(len(network.edge_ids))}):
            excluded_ids = [network.edge_ids[i] for i in excluded]
            reduced = graph.copy(share_weights=True)
            for edge_id in excluded_ids:
                reduced.remove_edge(edge_id)
            if any(
                SteinerNetwork(reduced).terminal_distances(terminal) != network.terminal_distances(terminal)
                for terminal in terminals
            ):
                lengthened += 1
            for view in (network, network.repriced(graph, {i: 0.0 for i in free if i not in excluded})):
                unbounded = solve(view, terminals, excluded_ids)
                if unbounded == "disconnected":
                    with pytest.raises(BoundExceededError):
                        view.exact_tree(terminals, excluded, upper_bound=rng.uniform(0, 9))
                    continue
                for upper_bound in (unbounded.cost, unbounded.cost * rng.uniform(1.0, 3.0), unbounded.cost + 1e-3):
                    assert unbounded == view.exact_tree(terminals, excluded, upper_bound=upper_bound)
    assert lengthened >= 60  # of 80 (all 80 today)


def test_bound_equal_to_the_cost_survives_rounding():
    """The bound is a tree cost (``fsum``: 0.6); the search totals the same
    edges one by one (0.1 + 0.2 + 0.3 = 0.6000000000000001).  A tie with the
    bound is within it, whichever direction the path is walked in, and the
    equal-cost direct edge stays the loser of the tie-break it lost unbounded."""
    graph = SearchGraph()
    for name in "abcd":
        graph.add_node(Node(node_id=name, kind=NodeKind.RELATION, label=name, relation=name))
    for u, v, cost in (("a", "b", 0.1), ("b", "c", 0.2), ("c", "d", 0.3), ("a", "d", 0.1 + 0.2 + 0.3)):
        graph.add_edge(graph.new_edge(u, v, EdgeKind.ASSOCIATION, fixed_cost=cost))
    network = SteinerNetwork(graph)
    direct = frozenset({network.edge_index[network.edge_ids[-1]]})
    for terminals in (["a", "d"], ["d", "a"], ["a", "c", "d"]):
        table = network.terminal_distances(terminals[0])
        for excluded in (frozenset(), direct):
            unbounded = network.exact_tree(terminals, excluded)
            assert 0.6 <= unbounded.cost <= 0.6000000000000001
            for upper_bound in (0.6, unbounded.cost):
                assert unbounded == network.exact_tree(
                    terminals, excluded, lower_bounds=table, upper_bound=upper_bound
                )


def test_disconnected_by_exclusion_on_both_sides():
    """A bridge is the only way across: excluding it disconnects both solvers."""
    graph = SearchGraph()
    for name in "abcd":
        graph.add_node(Node(node_id=name, kind=NodeKind.RELATION, label=name, relation=name))
    bridge = None
    for u, v in (("a", "b"), ("b", "c"), ("c", "d")):
        edge = graph.new_edge(u, v, EdgeKind.ASSOCIATION, fixed_cost=1.0)
        graph.add_edge(edge)
        if (u, v) == ("b", "c"):
            bridge = edge.edge_id
    for network in (SteinerNetwork(graph), ReferenceSteinerNetwork(graph)):
        for terminals in (["a", "d"], ["a", "b", "d"]):
            assert solve(network, terminals, [bridge]) == "disconnected"
            assert solve(network, terminals, []).cost == 3.0


def is_simple_path(graph, tree, source, target):
    """Whether ``tree``'s edges walk from ``source`` to ``target`` visiting no node twice."""
    ends = {}
    for edge_id in tree.edge_ids:
        edge = graph.edge(edge_id)
        ends.setdefault(edge.u, []).append((edge_id, edge.v))
        ends.setdefault(edge.v, []).append((edge_id, edge.u))
    node, used, visited = source, set(), {source}
    while node != target:
        step = [(edge_id, other) for edge_id, other in ends.get(node, ()) if edge_id not in used]
        if len(step) != 1 or step[0][1] in visited:
            return False
        used.add(step[0][0])
        node = step[0][1]
        visited.add(node)
    return used == tree.edge_ids


@settings(max_examples=400, deadline=None, derandomize=True)
@example(1648)  # 4 nodes, 5 edges: exclusion-only branching missed the 3.5 path
@example(2074)  # a child's fsum undercut its parent: 0.6000000000000001 came before 0.6
@given(st.integers(min_value=400, max_value=4399))
def test_two_terminal_top_k_is_the_k_cheapest_simple_paths(seed):
    _, graph, terminals = random_case(seed, nodes=(4, 12), terminal_counts=(2, 2))
    assume(len(graph.edges()) <= 18)
    paths = simple_paths(graph, terminals[1], terminals[0])
    for k in (1, 5, 20):
        trees = KBestSteiner().solve(graph, terminals, k)
        costs = [tree.cost for tree in trees]
        # The search picks among near-ties by its left-to-right sum, a tree
        # totals with fsum: equal costs up to that rounding.
        expected = [cost for cost, _ in paths[:k]]
        assert len(costs) == len(expected)
        assert all(math.isclose(got, want, rel_tol=1e-9) for got, want in zip(costs, expected))
        assert all(is_simple_path(graph, tree, terminals[1], terminals[0]) for tree in trees)
        assert len({tree.edge_ids for tree in trees}) == len(trees)
        assert costs == sorted(costs)


def test_returned_list_ascends_in_cost():
    """A child is totalled with fsum; its parent was picked by a DP that sums
    in order, so the child can undercut the parent by a rounding.  With three
    or more terminals the list still ascends (seed 715 did not at k = 20)."""
    _, graph, terminals = random_case(715, terminal_counts=(3, 5))
    costs = [tree.cost for tree in KBestSteiner().solve(graph, terminals, 20)]
    assert len(costs) > 1 and costs == sorted(costs)


def first_pass_reach(view, root, excluded, limit):
    """Distances from ``root`` on ``view`` under ``excluded``, out to ``limit``."""
    distances, heap = {root: 0.0}, [(0.0, root)]
    while heap:
        dist, node = heapq.heappop(heap)
        if dist > distances[node]:
            continue
        for neighbor, edge_idx, cost in view.adjacency[node]:
            candidate = dist + cost
            if edge_idx not in excluded and candidate <= limit and candidate < distances.get(neighbor, math.inf):
                distances[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    return distances


def test_lawler_child_solves_match_reference_or_bound_out():
    """The solve a three-or-more-terminal Lawler child runs: the root inside
    a zero-priced included subtree, the other edges among its nodes and some
    random ones excluded, over the root and the terminals the subtree misses,
    under an upper bound below, at or above the optimum, or none.  Every
    solve is the reference's on a graph with those edges costing zero, or
    raises :class:`BoundExceededError`; a bound the first terminal's pass
    already proves too low settles nothing beyond that pass."""
    solved = bounded_out = proved_by_first_pass = 0
    for seed in range(60):
        rng, graph, terminals = random_case(seed, nodes=(8, 30), terminal_counts=(4, 6))
        network = SteinerNetwork(graph)
        root = network.node_index[terminals[0]]
        # A random subtree grown from the root: the included prefix.
        inside, included = {root}, []
        for _ in range(rng.randint(0, 4)):
            frontier = [
                (neighbor, edge_idx) for node in sorted(inside)
                for neighbor, edge_idx, _ in network.adjacency[node] if neighbor not in inside
            ]
            if not frontier:
                break
            neighbor, edge_idx = rng.choice(frontier)
            inside.add(neighbor)
            included.append(edge_idx)
        child = [terminals[0], *(t for t in terminals[1:] if network.node_index[t] not in inside)]
        if not 3 <= len(child) <= 5:
            continue
        internal = {
            edge_idx for node in inside for neighbor, edge_idx, _ in network.adjacency[node]
            if neighbor in inside and edge_idx not in included
        }
        view = network.repriced(graph, dict.fromkeys(included, 0.0))
        zeroed = graph.copy(share_weights=True)
        for edge_idx in included:
            edge = graph.edge(network.edge_ids[edge_idx])
            zeroed.replace_edge(Edge(edge.edge_id, edge.u, edge.v, edge.kind, edge.features, 0.0, edge.metadata))
        reference = ReferenceSteinerNetwork(zeroed)
        free = [i for i in range(len(network.edge_ids)) if i not in included and i not in internal]
        for extra in (frozenset(), frozenset(rng.sample(free, min(len(free), rng.randint(1, 4))))):
            excluded = frozenset(internal) | extra
            excluded_ids = [network.edge_ids[i] for i in excluded]
            unbounded = solve(view, child, excluded_ids)
            assert unbounded == solve(reference, child, excluded_ids)
            if unbounded == "disconnected":
                with pytest.raises(BoundExceededError):
                    view.exact_tree(child, excluded, upper_bound=rng.uniform(0, 9))
                continue
            solved += 1
            for upper_bound in (unbounded.cost, unbounded.cost * rng.uniform(1.0, 3.0), unbounded.cost + 1e-3):
                assert view.exact_tree(child, excluded, upper_bound=upper_bound) == unbounded
            if unbounded.cost <= 1e-3:
                continue
            upper_bound = unbounded.cost * rng.uniform(0.0, 0.999)
            counters = SolverCounters()
            with pytest.raises(BoundExceededError):
                view.exact_tree(child, excluded, counters=counters, upper_bound=upper_bound)
            assert (counters.bounded_branches, counters.bounded_out_branches) == (1, 1)
            bounded_out += 1
            reach = first_pass_reach(view, root, excluded, upper_bound * _BOUND_SLACK)
            if any(view.node_index[t] not in reach for t in child[1:]):
                proved_by_first_pass += 1
                assert counters.settled_labels == len(reach)
    assert solved >= 70 and bounded_out >= 70 and proved_by_first_pass >= 50
