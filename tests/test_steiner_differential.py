"""Differential test: the array-indexed Steiner kernel against the reference oracle.

``tests/reference_steiner.py`` is the dict/frozenset Dreyfus–Wagner solver
the kernel replaced, kept verbatim.  On random connected graphs that
deliberately contain zero-cost edges and equal-cost alternatives the two must
agree *exactly* — same edge set, ``==`` on cost, same error — for single
solves under random exclusion sets, and the top-k enumeration over the
kernel must equal the enumeration over the oracle tree for tree, in order.
Nothing here compares costs approximately: tie order is part of the answer.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from reference_steiner import ReferenceSteinerNetwork, reference_solver

from repro.exceptions import DisconnectedTerminalsError
from repro.graph import Edge, EdgeKind, Node, NodeKind, SearchGraph
from repro.steiner import KBestSteiner, SteinerNetwork

#: Few distinct values, so equal-cost alternatives are the rule; 0.1 + 0.2 vs
#: 0.3 adds the ties that only exist up to rounding.
COSTS = (0.0, 0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.0, 1.5, 2.0)


def random_case(seed: int):
    """A connected graph (random spanning tree + extra, possibly parallel,
    edges), 2–5 terminals and the generator that drew them."""
    rng = random.Random(seed)
    # Shuffled numeric prefixes: sorted-id order differs from insertion order.
    names = [f"n{rng.randrange(1000):03d}_{i}" for i in range(rng.randint(4, 16))]
    graph = SearchGraph()
    for name in names:
        graph.add_node(Node(node_id=name, kind=NodeKind.RELATION, label=name, relation=name))
    order = names[:]
    rng.shuffle(order)
    pairs = [(order[rng.randrange(i)], order[i]) for i in range(1, len(order))]
    pairs += [tuple(rng.sample(names, 2)) for _ in range(rng.randint(0, 2 * len(names)))]
    for u, v in pairs:
        cost = rng.choice(COSTS) if rng.random() < 0.85 else rng.uniform(0.0, 3.0)
        graph.add_edge(Edge.create(u, v, EdgeKind.ASSOCIATION, fixed_cost=cost))
    terminals = rng.sample(names, rng.randint(2, min(5, len(names))))
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_top_k_matches_reference_tree_for_tree(seed):
    rng, graph, terminals = random_case(seed)
    k = rng.randint(1, 20)
    over_kernel = KBestSteiner().solve(graph, terminals, k)
    over_reference = KBestSteiner(solver=reference_solver).solve(graph, terminals, k)
    assert over_kernel == over_reference
    assert [tree.cost for tree in over_kernel] == sorted(tree.cost for tree in over_kernel)


def test_disconnected_by_exclusion_on_both_sides():
    """A bridge is the only way across: excluding it disconnects both solvers."""
    graph = SearchGraph()
    for name in "abcd":
        graph.add_node(Node(node_id=name, kind=NodeKind.RELATION, label=name, relation=name))
    bridge = None
    for u, v in (("a", "b"), ("b", "c"), ("c", "d")):
        edge = Edge.create(u, v, EdgeKind.ASSOCIATION, fixed_cost=1.0)
        graph.add_edge(edge)
        if (u, v) == ("b", "c"):
            bridge = edge.edge_id
    for network in (SteinerNetwork(graph), ReferenceSteinerNetwork(graph)):
        for terminals in (["a", "d"], ["a", "b", "d"]):
            assert solve(network, terminals, [bridge]) == "disconnected"
            assert solve(network, terminals, []).cost == 3.0
