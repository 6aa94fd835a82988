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

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_steiner_differential import random_case

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
