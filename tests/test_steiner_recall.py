"""Differential test: a memoised top-k enumerator against a cache-less one.

A ``KBestSteiner`` that shares a ``SteinerNetworkCache`` recalls a complete
enumeration whenever the priced network, the terminals, ``k`` and the
expansion cap equal an earlier one's — whatever graph object asks and
whatever the version counters say.  On the tie-heavy random graphs of
``test_steiner_differential.py`` every answer it gives, recalled or
enumerated, must equal what ``KBestSteiner()`` enumerates from scratch on the
same graph: same trees, ``==`` on cost, same order.  Each step also says
which of the two it has to be, so a memo that never recalled, or one keyed
on too little, fails here rather than in a benchmark.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_steiner_differential import COSTS, random_case

from repro.engine import context
from repro.engine.context import SteinerNetworkCache
from repro.faults.budget import Budget
from repro.graph import Edge, EdgeKind, Node, NodeKind, SearchGraph
from repro.learning.overlays import OverlayWeightVector, graph_with_weights
from repro.steiner import KBestSteiner


def learnable_case(seed: int):
    """``random_case`` with every non-zero edge made learnable: its cost is
    the weight of a feature only it carries, so one ``weights.set`` moves
    exactly one entry of the cost vector.  Zero-cost edges stay fixed, as
    membership edges are in a query graph."""
    rng, drawn, terminals = random_case(seed, nodes=(6, 24), terminal_counts=(2, 4))
    graph = SearchGraph()
    for node in drawn.nodes():
        graph.add_node(node)
    features = {}
    for number, edge in enumerate(drawn.edges()):
        if edge.fixed_cost == 0.0:
            graph.add_edge(graph.new_edge(edge.u, edge.v, edge.kind, fixed_cost=0.0))
            continue
        feature = f"cost::{number}"
        graph.weights.set(feature, edge.fixed_cost)
        made = graph.new_edge(edge.u, edge.v, edge.kind, features={feature: 1.0})
        graph.add_edge(made)
        features[made.edge_id] = feature
    return rng, graph, terminals, features


class Asker:
    """Asks a shared-cache enumerator, checks the answer against a cache-less
    one and that it was obtained the way the step says."""

    def __init__(self) -> None:
        self.cache = SteinerNetworkCache()

    def __call__(self, recalled: bool, graph, terminals, k, max_expansions=200, budget=None):
        did = self.cache.solver
        recalls, base_solves = did.recalls, did.base_solves
        trees = KBestSteiner(max_expansions=max_expansions, network_cache=self.cache).solve(
            graph, terminals, k, budget=budget
        )
        assert trees == KBestSteiner(max_expansions=max_expansions).solve(graph, terminals, k)
        assert (did.recalls - recalls, did.base_solves > base_solves) == (int(recalled), not recalled)
        return trees


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_memoised_enumeration_equals_a_fresh_one_step_by_step(seed):
    rng, graph, terminals, features = learnable_case(seed)
    assume(features)
    k = rng.randint(2, 8)
    ask = Asker()
    first = ask(False, graph, terminals, k)
    ask(True, graph, terminals, k)

    # The version moves, no cost does: a feature no edge carries, and one an
    # edge does carry set away and back.
    graph.weights.set("carried::by-nobody", 3.0)
    ask(True, graph, terminals, k)
    edge_id, feature = rng.choice(sorted(features.items()))
    was = graph.weights.get(feature)
    graph.weights.set(feature, was + 0.25)
    graph.weights.set(feature, was)
    assert ask(True, graph, terminals, k) == first

    # One cost moves: a different network.  Back again: the first one.
    graph.weights.set(feature, was + 0.25)
    ask(False, graph, terminals, k)
    graph.weights.set(feature, was)
    assert ask(True, graph, terminals, k) == first

    # Everything else the enumeration reads is in the key too.
    ask(False, graph, terminals, k + 1)
    ask(True, graph, terminals, k + 1)
    ask(False, graph, terminals[::-1], k)
    ask(False, graph, terminals, k, max_expansions=2)
    ask(True, graph, terminals, k, max_expansions=2)

    # Other graph objects over the same topology: a twin whose overlay shadows
    # nothing this graph carries recalls, one that shadows an edge of the
    # best tree (any learnable edge, if that tree has none) does not.
    overlay = OverlayWeightVector(graph.weights)
    ask(True, graph_with_weights(graph, overlay), terminals, k)
    overlay.set("carried::by-nobody", 7.0)
    ask(True, graph_with_weights(graph, overlay), terminals, k)
    in_tree = sorted(first[0].edge_ids & features.keys()) if first else []
    shadowed = features[in_tree[0]] if in_tree else feature
    overlay.set(shadowed, graph.weights.get(shadowed) + 0.5)
    ask(False, graph_with_weights(graph, overlay), terminals, k)
    ask(True, graph, terminals, k)  # the base graph's own ranking is still there

    # Structure: an edge more, then an original edge fewer.
    u, v = rng.sample([node.node_id for node in graph.nodes()], 2)
    graph.add_edge(graph.new_edge(u, v, EdgeKind.ASSOCIATION, fixed_cost=0.1))
    ask(False, graph, terminals, k)
    graph.remove_edge(edge_id)
    ask(False, graph, terminals, k)
    ask(True, graph, terminals, k)


def hand_built(pairs):
    graph = SearchGraph()
    for name in "abcd":
        graph.add_node(Node(node_id=name, kind=NodeKind.RELATION, label=name, relation=name))
    for number, (u, v) in enumerate(pairs):
        graph.add_edge(Edge(edge_id=f"e{number}", u=u, v=v, kind=EdgeKind.ASSOCIATION, fixed_cost=1.0))
    return graph


def test_equal_edge_ids_and_costs_over_other_endpoints_do_not_recall():
    """Hand-built ids need not embed their endpoints: same nodes, same edge
    ids in the same order, same costs — and a different graph."""
    ask = Asker()
    square = hand_built([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    crossed = hand_built([("a", "b"), ("b", "d"), ("c", "d"), ("a", "c")])
    direct = ask(False, square, ["a", "d"], 3)
    assert direct[0].edge_ids == {"e3"}
    ask(False, crossed, ["a", "d"], 3)
    ask(True, hand_built([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]), ["a", "d"], 3)


def perturb(rng, graph):
    """Every cost re-drawn, one edge removed, one parallel edge added: the
    moves a feedback step and a registration make to a query graph."""
    edges = graph.edges()
    for edge in edges:
        graph.replace_edge(Edge(edge.edge_id, edge.u, edge.v, edge.kind, fixed_cost=rng.choice(COSTS)))
    graph.remove_edge(rng.choice(edges).edge_id)
    twin = rng.choice(graph.edges())
    graph.add_edge(graph.new_edge(twin.u, twin.v, EdgeKind.ASSOCIATION, fixed_cost=rng.choice(COSTS)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=1_000_000))
# A warm ``k - 1`` solve once cut paths tied at α: 2 of 6 at 1.4, 6 of 7.
@example(131)
@example(2092)
def test_warm_re_solve_equals_a_cold_one(seed):
    """Two terminals: a re-solve the memo cannot answer starts from the
    session's last list re-priced, and returns what a cache-less enumeration
    does — same trees, costs to the bit, same order.  ``k - 1`` after ``k``
    on one network makes the warm α exactly the last path's cost.  With a
    small cap some runs stop early: a warm run tries the same children in
    the same order as a cold one, its bound only screening some, so those
    agree too (a capped list is not the k shortest paths, but it is the same
    list whatever the cache held)."""
    rng, graph, terminals = random_case(seed, terminal_counts=(2, 2))
    cache = SteinerNetworkCache()
    k, cap = rng.randint(2, 12), rng.choice((2, 6, 200))

    def check(k):
        warm = KBestSteiner(max_expansions=cap, network_cache=cache).solve(graph, terminals, k)
        assert warm == KBestSteiner(max_expansions=cap).solve(graph, terminals, k)
        return warm

    first = check(k)
    check(k - 1)
    assert cache.solver.warm_starts == (len(first) >= k - 1)
    for _ in range(2):
        perturb(rng, graph)
        check(k)


@pytest.mark.parametrize("edges,costs,warm", [
    # e0 is gone: e1-e2 and e3-e4 are left, at 2 each.
    ([None, ("a", "b", 1.0), ("b", "d", 1.0), ("a", "c", 1.0), ("c", "d", 1.0)], [2.0, 2.0], True),
    # e0 now joins b and c: trusted at 0.1, it would put α at 2 (e3-e4) and cut 6.1.
    ([("b", "c", 0.1), ("a", "b", 5.0), ("b", "d", 5.0), ("a", "c", 1.0), ("c", "d", 1.0)], [2.0, 6.1], True),
    # e1-e2 now walks from d to c: trusted at 0.2, it would put α at 1.1 (e3-e4) and cut 1.2.
    ([("a", "b", 5.0), ("b", "c", 0.1), ("b", "d", 0.1), ("a", "c", 1.0), ("c", "d", 0.1)], [1.1, 1.2], False),
])
def test_stale_paths_are_not_trusted(edges, costs, warm):
    """The stored list's paths (a-d, a-b-d, a-c-d as e0, e1-e2, e3-e4) are
    re-checked on the new network: one whose edge is gone, or whose
    hand-built ids now join other nodes, is no path between the terminals."""

    def square(edges):
        graph = SearchGraph()
        for name in "abcd":
            graph.add_node(Node(node_id=name, kind=NodeKind.RELATION, label=name, relation=name))
        for number, edge in enumerate(edges):
            if edge is not None:
                u, v, cost = edge
                graph.add_edge(Edge(edge_id=f"e{number}", u=u, v=v, kind=EdgeKind.ASSOCIATION, fixed_cost=cost))
        return graph

    cache = SteinerNetworkCache()
    solver = KBestSteiner(network_cache=cache)
    before = square([("a", "d", 1.0), ("a", "b", 1.0), ("b", "d", 1.0), ("a", "c", 1.0), ("c", "d", 1.0)])
    assert [tree.cost for tree in solver.solve(before, ["a", "d"], 3)] == [1.0, 2.0, 2.0]
    after = square(edges)
    trees = solver.solve(after, ["a", "d"], 2)
    assert [tree.cost for tree in trees] == costs and trees == KBestSteiner().solve(after, ["a", "d"], 2)
    assert cache.solver.warm_starts == int(warm)


def expiring_clock(reads_allowed: int):
    """Reads 0.0 that many times, then far past any deadline; counts its reads."""
    reads = [0]

    def clock() -> float:
        reads[0] += 1
        return 0.0 if reads[0] <= reads_allowed else 1000.0

    return clock, reads


def test_truncated_enumeration_is_not_remembered_and_a_budget_recalls_in_full():
    _, graph, terminals = random_case(3, nodes=(30, 40), terminal_counts=(2, 2))
    ask = Asker()
    solver = KBestSteiner(network_cache=ask.cache)
    full = KBestSteiner().solve(graph, terminals, 6)
    assert len(full) == 6

    # Three clock reads — the budget's construction, the pre-solve check, one
    # expiry poll — and time is up: past the first tree, short of the sixth.
    clock, _ = expiring_clock(3)
    budget = Budget(deadline_s=100.0, clock=clock)
    partial = solver.solve(graph, terminals, 6, budget=budget)
    assert budget.truncated and 1 <= len(partial) < len(full)
    assert partial == full[: len(partial)]

    # Nothing was stored: the next reader enumerates, and gets all of it ...
    assert ask(False, graph, terminals, 6) == full
    # ... and then a budget, even one with no time left, recalls the whole list unticked.
    clock, reads = expiring_clock(1)
    budget = Budget(deadline_s=100.0, clock=clock)
    assert ask(True, graph, terminals, 6, budget=budget) == full
    assert reads == [1] and not budget.truncated


def test_memo_is_bounded_and_evicts_least_recently_used(monkeypatch):
    monkeypatch.setattr(context, "RANKING_MEMO_SIZE", 3)
    _, graph, terminals = random_case(3, nodes=(30, 40), terminal_counts=(2, 2))
    ask = Asker()
    for k in (1, 2, 3):
        ask(False, graph, terminals, k)
    ask(True, graph, terminals, 1)  # 1 is now the most recently used, 2 the least
    ask(False, graph, terminals, 4)  # evicts 2
    assert len(ask.cache._rankings) == 3
    ask(True, graph, terminals, 3)
    ask(True, graph, terminals, 1)
    ask(False, graph, terminals, 2)  # evicts 4
    ask(False, graph, terminals, 4)
    assert len(ask.cache._rankings) == 3


def grown(rng, graph):
    """A new expansion of ``graph``: a copy after one to three of a registration's
    moves — a new node on two old ones, an edge between old nodes, an edge
    re-priced, an edge removed — each cheap or dear, so that some land within
    α of both terminals and some do not."""
    graph = graph.copy()
    names = [node.node_id for node in graph.nodes()]
    for _ in range(rng.randint(1, 3)):
        move = rng.randrange(4)
        cost = rng.choice(COSTS) if rng.random() < 0.5 else rng.uniform(3.0, 9.0)
        if move == 0:
            name = f"new_{len(names)}"
            graph.add_node(Node(node_id=name, kind=NodeKind.RELATION, label=name, relation=name))
            for old in rng.sample(names, 2):
                graph.add_edge(graph.new_edge(name, old, EdgeKind.ASSOCIATION, fixed_cost=cost))
            names.append(name)
        elif move == 1:
            u, v = rng.sample(names, 2)
            graph.add_edge(graph.new_edge(u, v, EdgeKind.ASSOCIATION, fixed_cost=cost))
        elif move == 2:
            edge = rng.choice(graph.edges())
            graph.replace_edge(Edge(edge.edge_id, edge.u, edge.v, edge.kind, fixed_cost=cost))
        else:
            graph.remove_edge(rng.choice(graph.edges()).edge_id)
    return graph


def test_a_re_solve_after_a_registration_move_equals_a_cold_one():
    """Two terminals: after the moves a registration makes, a re-solve starts
    warm from the last list wherever k of its paths still walk, and returns
    what a cache-less enumeration does — same trees, costs to the bit, same
    order."""
    warm_starts = 0
    for seed in range(300):
        rng, graph, terminals = random_case(seed, nodes=(8, 30), terminal_counts=(2, 2))
        cache = SteinerNetworkCache()
        solver = KBestSteiner(network_cache=cache)
        k = rng.randint(2, 8)
        solver.solve(graph, terminals, k)
        for _ in range(2):
            graph = grown(rng, graph)
            assert solver.solve(graph, terminals, k) == KBestSteiner().solve(graph, terminals, k)
        warm_starts += cache.solver.warm_starts
    assert warm_starts >= 400  # 455 of the 600 re-solves


@pytest.mark.parametrize("k", [1, 2])
def test_each_terminal_order_gets_its_own_tie_order(k):
    """A view's keyword order is its terminal order, and a two-terminal search
    runs from the second terminal to the first, so which of two equal-cost
    paths comes first depends on the order: a-c-d for ("a", "d"), a-b-d for
    ("d", "a").  The cache's latest list is per terminal *set*: ranking both
    orders on one cache starts the second warm from the first's paths, and it
    must still return its own cold list."""
    square = hand_built_costed([("a", "b", 0.5), ("b", "d", 1.5), ("a", "c", 1.5), ("c", "d", 0.5)])
    cache = SteinerNetworkCache()
    solver = KBestSteiner(network_cache=cache)
    forward = solver.solve(square, ["a", "d"], k)
    backward = solver.solve(square, ["d", "a"], k)
    assert forward == KBestSteiner().solve(square, ["a", "d"], k)
    assert backward == KBestSteiner().solve(square, ["d", "a"], k)
    assert sorted(forward[0].edge_ids) == ["e2", "e3"] and sorted(backward[0].edge_ids) == ["e0", "e1"]
    assert cache.solver.warm_starts == 1


def hand_built_costed(edges):
    graph = SearchGraph()
    for name in "abcd":
        graph.add_node(Node(node_id=name, kind=NodeKind.RELATION, label=name, relation=name))
    for number, (u, v, cost) in enumerate(edges):
        graph.add_edge(Edge(edge_id=f"e{number}", u=u, v=v, kind=EdgeKind.ASSOCIATION, fixed_cost=cost))
    return graph
