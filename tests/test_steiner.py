"""Unit and property tests for the Steiner tree algorithms."""

from __future__ import annotations

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.context import SteinerNetworkCache
from repro.exceptions import SteinerError
from repro.graph import EdgeKind, Node, NodeKind, SearchGraph, edge_feature
from reference_paths import simple_paths
from reference_steiner import is_connected_tree, reference_solver
from reference_trees import is_minimal_steiner_tree
from repro.steiner.network import SolverCounters
from repro.steiner import (
    KBestSteiner,
    SteinerTree,
    approximate_steiner_tree,
    SteinerNetwork,
    exact_steiner_tree,
    k_best_steiner_trees,
    validate_terminals,
)


def build_weighted_graph(edges):
    """Build a SearchGraph from (u, v, cost) triples over generic nodes."""
    graph = SearchGraph()
    nodes = {u for u, _, _ in edges} | {v for _, v, _ in edges}
    for name in nodes:
        graph.add_node(Node(node_id=name, kind=NodeKind.RELATION, label=name, relation=name))
    for u, v, cost in edges:
        edge = graph.new_edge(u, v, EdgeKind.ASSOCIATION)
        edge.features = {edge_feature(edge.edge_id): 1.0}
        graph.weights.set(edge_feature(edge.edge_id), cost)
        graph.add_edge(edge)
    return graph


def build_fixed_cost_graph(edges):
    """A SearchGraph over (u, v, fixed cost) triples (nodes added in sorted
    order) plus the created edge ids, aligned with ``edges``."""
    graph = SearchGraph()
    for name in sorted({u for u, _, _ in edges} | {v for _, v, _ in edges}):
        graph.add_node(Node(node_id=name, kind=NodeKind.RELATION, label=name, relation=name))
    edge_ids = []
    for u, v, cost in edges:
        edge = graph.new_edge(u, v, EdgeKind.ASSOCIATION, fixed_cost=cost)
        graph.add_edge(edge)
        edge_ids.append(edge.edge_id)
    return graph, edge_ids


@pytest.fixture()
def diamond_graph() -> SearchGraph:
    """a-b-d and a-c-d paths plus an expensive direct a-d edge."""
    return build_weighted_graph(
        [
            ("a", "b", 1.0),
            ("b", "d", 1.0),
            ("a", "c", 2.0),
            ("c", "d", 2.0),
            ("a", "d", 5.0),
        ]
    )


class TestExactSteiner:
    def test_two_terminals_is_shortest_path(self, diamond_graph):
        tree = exact_steiner_tree(diamond_graph, ["a", "d"])
        assert tree.cost == pytest.approx(2.0)
        assert len(tree.edge_ids) == 2
        assert is_connected_tree(tree, diamond_graph)

    def test_single_terminal(self, diamond_graph):
        tree = exact_steiner_tree(diamond_graph, ["a"])
        assert tree.cost == 0.0
        assert tree.edge_ids == frozenset()

    def test_three_terminals(self, diamond_graph):
        tree = exact_steiner_tree(diamond_graph, ["a", "c", "d"])
        assert is_connected_tree(tree, diamond_graph)
        # best solution: a-b-d (2.0) + d-c (2.0) or a-c + c-d = 4.0 either way
        assert tree.cost == pytest.approx(4.0)

    def test_disconnected_terminals_raise(self):
        graph = build_weighted_graph([("a", "b", 1.0), ("c", "d", 1.0)])
        with pytest.raises(SteinerError):
            exact_steiner_tree(graph, ["a", "c"])

    def test_too_many_terminals_guard(self, diamond_graph):
        with pytest.raises(SteinerError):
            exact_steiner_tree(diamond_graph, ["a", "b", "c", "d"], max_terminals=2)

    def test_unknown_terminal(self, diamond_graph):
        with pytest.raises(SteinerError):
            exact_steiner_tree(diamond_graph, ["a", "zzz"])

    def test_validate_terminals_dedup(self, diamond_graph):
        assert validate_terminals(diamond_graph, ["a", "a", "b"]) == ("a", "b")
        with pytest.raises(SteinerError):
            validate_terminals(diamond_graph, [])


class TestTwoTerminalTieBreak:
    def test_equal_cost_witness_matches_dp_choice(self):
        """The 2-terminal fast path must pick the same equal-cost path as
        the Dreyfus–Wagner DP did in the seed implementation (whose witness
        is the Dijkstra tree rooted at the *second* terminal)."""
        edges = [
            ("A", "x", 1.0),
            ("x", "B", 3.0),
            ("A", "y1", 3.0),
            ("y1", "y2", 0.5),
            ("y2", "B", 0.5),
        ]
        graph = SearchGraph()
        nodes = {u for u, _, _ in edges} | {v for _, v, _ in edges}
        for name in sorted(nodes):
            graph.add_node(Node(node_id=name, kind=NodeKind.RELATION, label=name, relation=name))
        by_pair = {}
        for u, v, cost in edges:
            edge = graph.new_edge(u, v, EdgeKind.ASSOCIATION)
            edge.features = {edge_feature(edge.edge_id): 1.0}
            graph.weights.set(edge_feature(edge.edge_id), cost)
            graph.add_edge(edge)
            by_pair[(u, v)] = edge.edge_id
        tree = exact_steiner_tree(graph, ["A", "B"])
        assert tree.cost == pytest.approx(4.0)
        # Seed DP choice among the two cost-4 paths: the y-path.
        expected = {by_pair[("A", "y1")], by_pair[("y1", "y2")], by_pair[("y2", "B")]}
        assert tree.edge_ids == frozenset(expected)

    def test_three_terminal_equal_cost_witness_matches_dp_choice(self):
        """Four Steiner trees over {A, B, C} cost exactly 3.0 (the x-star,
        the y-star, and the A-m-B path joined to C through x or through the
        direct B-C edge); which one is returned is part of the answer, and it
        depends on the terminal *order* exactly as it did in the seed DP."""
        edges = [
            ("A", "x", 1.0), ("B", "x", 1.0), ("C", "x", 1.0),
            ("A", "y", 1.0), ("B", "y", 1.0), ("C", "y", 1.0),
            ("A", "m", 0.5), ("m", "B", 0.5), ("B", "C", 2.0),
        ]
        graph, edge_ids = build_fixed_cost_graph(edges)
        by_pair = {(u, v): edge_id for (u, v, _), edge_id in zip(edges, edge_ids)}
        for terminals, pairs in (
            (["A", "B", "C"], [("A", "m"), ("m", "B"), ("A", "x"), ("C", "x")]),
            (["B", "A", "C"], [("A", "m"), ("m", "B"), ("B", "C")]),
        ):
            tree = exact_steiner_tree(graph, terminals)
            assert tree.cost == 3.0
            assert tree.edge_ids == frozenset(by_pair[pair] for pair in pairs)
            assert tree == reference_solver(graph, terminals)


class TestApproximateSteiner:
    def test_matches_exact_on_small_graph(self, diamond_graph):
        exact = exact_steiner_tree(diamond_graph, ["a", "d"])
        approx = approximate_steiner_tree(diamond_graph, ["a", "d"])
        assert is_connected_tree(approx, diamond_graph)
        assert approx.cost >= exact.cost - 1e-9

    def test_disconnected_raise(self):
        graph = build_weighted_graph([("a", "b", 1.0), ("c", "d", 1.0)])
        with pytest.raises(SteinerError):
            approximate_steiner_tree(graph, ["a", "d"])

    def test_prunes_nonterminal_leaves(self):
        graph = build_weighted_graph(
            [("a", "b", 1.0), ("b", "c", 1.0), ("b", "x", 0.1)]
        )
        tree = approximate_steiner_tree(graph, ["a", "c"])
        nodes = tree.nodes(graph)
        assert "x" not in nodes

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_approximation_never_beats_exact_property(self, seed):
        rng = random.Random(seed)
        names = [f"n{i}" for i in range(8)]
        edges = []
        # random connected graph: chain + random extra edges
        for i in range(1, len(names)):
            edges.append((names[i - 1], names[i], rng.uniform(0.1, 3.0)))
        for _ in range(6):
            u, v = rng.sample(names, 2)
            edges.append((u, v, rng.uniform(0.1, 3.0)))
        graph = build_weighted_graph(edges)
        terminals = rng.sample(names, 3)
        exact = exact_steiner_tree(graph, terminals)
        approx = approximate_steiner_tree(graph, terminals)
        assert is_connected_tree(exact, graph)
        assert is_connected_tree(approx, graph)
        assert approx.cost >= exact.cost - 1e-9
        # KMB guarantee: at most 2x the optimum.
        assert approx.cost <= 2 * exact.cost + 1e-9


class TestTopK:
    def test_first_tree_is_optimal(self, diamond_graph):
        trees = k_best_steiner_trees(diamond_graph, ["a", "d"], 3)
        exact = exact_steiner_tree(diamond_graph, ["a", "d"])
        assert trees[0].cost == pytest.approx(exact.cost)

    def test_trees_are_distinct_and_sorted(self, diamond_graph):
        trees = k_best_steiner_trees(diamond_graph, ["a", "d"], 3)
        assert len(trees) == 3
        signatures = {t.edge_ids for t in trees}
        assert len(signatures) == 3
        costs = [t.cost for t in trees]
        assert costs == sorted(costs)
        # the three a-d interpretations: via b (2), via c (4), direct (5)
        assert costs == pytest.approx([2.0, 4.0, 5.0])

    def test_k_larger_than_alternatives(self, diamond_graph):
        trees = k_best_steiner_trees(diamond_graph, ["a", "d"], 50)
        assert 3 <= len(trees) <= 50

    def test_invalid_k(self, diamond_graph):
        with pytest.raises(ValueError):
            KBestSteiner().solve(diamond_graph, ["a", "d"], 0)

    def test_disconnected_returns_empty(self):
        graph = build_weighted_graph([("a", "b", 1.0), ("c", "d", 1.0)])
        assert KBestSteiner().solve(graph, ["a", "c"], 3) == []

    def test_default_solver_dispatch(self, diamond_graph):
        tree = SteinerNetwork(diamond_graph).default_tree(["a", "b", "c", "d"], exact_terminal_limit=3)
        assert is_connected_tree(tree, diamond_graph)


def _concurrent_case():
    rng = random.Random(5)
    names = [f"n{i:02d}" for i in range(40)]
    edges = [(names[rng.randrange(i)], names[i], rng.choice([0.5, 1.0, 1.0, 2.0])) for i in range(1, 40)]
    edges += [(*rng.sample(names, 2), rng.choice([0.5, 1.0, 1.0, 2.0])) for _ in range(60)]
    return build_weighted_graph(edges), [names[3], names[17], names[31], names[38]]


def _run_threads(workers, work):
    """``work(worker index)`` on ``workers`` threads under a 10 us switch interval."""
    import sys
    import threading

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(index,)) for index in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_solves_share_one_network_and_one_set_of_totals():
    """The read pool solves on one cached network from several threads: the
    DP tables are per call (same trees as a serial solve) and the counter
    totals are added under the cache's lock (no lost update).  Every
    thread-round asks for its own ``k``, so each is an enumeration that runs —
    twelve of them at once on the one shared snapshot — and none a recall."""
    graph, terminals = _concurrent_case()
    workers, rounds = 6, 2
    ks = {(worker, turn): 3 + worker * rounds + turn for worker in range(workers) for turn in range(rounds)}
    serial = {}
    expected = {name: 0 for name in vars(SolverCounters())}
    for k in ks.values():
        alone = SteinerNetworkCache()
        serial[k] = KBestSteiner(network_cache=alone).solve(graph, terminals, k)
        assert len(serial[k]) == k
        for name, count in vars(alone.solver).items():
            expected[name] += count
    # Bounds are on: the known-tree list and the distance tables are state of
    # one enumeration, nothing of theirs is written to the shared network.
    assert expected["bounded_branches"] > 0 and expected["bounded_out_branches"] > 0

    cache = SteinerNetworkCache()
    solver = KBestSteiner(network_cache=cache)
    results = {}

    def work(worker):
        for turn in range(rounds):
            k = ks[worker, turn]
            results[k] = solver.solve(graph, terminals, k)

    _run_threads(workers, work)
    assert results == serial
    assert vars(cache.solver) == expected and expected["recalls"] == 0
    assert cache.builds == 1


def test_concurrent_solves_of_one_key_recall_or_enumerate_the_same_list():
    """All threads ask the same question.  Whoever misses enumerates and
    stores (two may, that is fine); everyone else recalls; each call is one
    or the other, and all of them return the serial list."""
    graph, terminals = _concurrent_case()
    serial = KBestSteiner().solve(graph, terminals, 8)
    alone = SteinerNetworkCache()
    KBestSteiner(network_cache=alone).solve(graph, terminals, 8)
    per_enumeration = alone.solver.base_solves

    cache = SteinerNetworkCache()
    solver = KBestSteiner(network_cache=cache)
    workers, rounds = 6, 3
    results = []

    def work(worker):
        for _ in range(rounds):
            results.append(solver.solve(graph, terminals, 8))

    _run_threads(workers, work)
    assert len(results) == workers * rounds and all(trees == serial for trees in results)
    did = cache.solver
    enumerations, remainder = divmod(did.base_solves, per_enumeration)
    assert remainder == 0 and enumerations >= 1
    assert did.recalls + enumerations == workers * rounds
    assert did.recalls >= workers * (rounds - 1)  # a thread's later rounds follow its own store
    assert cache.builds == 1


def test_concurrent_two_terminal_solves_start_warm_from_one_shared_list():
    """Two terminals: the latest list per terminal set is read and replaced
    under the cache's lock.  Ranked at k = 20, then re-priced as feedback
    would, every enumeration the threads run starts warm (every list stored
    meanwhile has k paths too), and every answer is the cold one."""
    graph, terminals = _concurrent_case()
    terminals = [terminals[0], terminals[-1]]
    cache = SteinerNetworkCache()
    solver = KBestSteiner(network_cache=cache)
    assert len(solver.solve(graph, terminals, 20)) == 20
    rng = random.Random(11)
    for edge in graph.edges():
        graph.weights.set(edge_feature(edge.edge_id), rng.choice([0.5, 1.0, 1.0, 2.0]))
    cold = KBestSteiner().solve(graph, terminals, 8)
    workers, rounds = 6, 3
    results = []

    def work(worker):
        for _ in range(rounds):
            results.append(solver.solve(graph, terminals, 8))

    _run_threads(workers, work)
    assert len(results) == workers * rounds and all(trees == cold for trees in results)
    did = cache.solver
    assert did.warm_starts >= 1 and did.warm_starts + did.recalls == workers * rounds


class TestSteinerTreeObject:
    def test_recost_after_weight_change(self, diamond_graph):
        tree = exact_steiner_tree(diamond_graph, ["a", "d"])
        edge_id = next(iter(tree.edge_ids))
        diamond_graph.weights.set(edge_feature(edge_id), 10.0)
        recosted = tree.recost(diamond_graph)
        assert recosted.cost > tree.cost

    def test_cost_does_not_depend_on_summation_order(self):
        """Equal edge sets cost the same however they were built: a plain
        ``sum`` loses every 1.0 added after a 1e16 and keeps every one added
        before both, so its result follows the set's iteration order."""
        costs = [1e16] + [1.0] * 20 + [1e16] + [1.0] * 20
        names = [f"n{i:02d}" for i in range(len(costs) + 1)]
        graph, edge_ids = build_fixed_cost_graph(list(zip(names, names[1:], costs)))
        terminals = [names[0], names[-1]]
        forward = SteinerTree.from_edges(graph, edge_ids, terminals)
        backward = SteinerTree.from_edges(graph, reversed(edge_ids), terminals)
        assert forward.cost == backward.cost == math.fsum(costs) == 2e16 + 40
        # The kernel totals its trees the same way.
        assert exact_steiner_tree(graph, terminals) == forward
        assert exact_steiner_tree(graph, terminals[::-1]) == forward

    def test_ordering(self, diamond_graph):
        trees = k_best_steiner_trees(diamond_graph, ["a", "d"], 2)
        assert trees[0] < trees[1]


# ----------------------------------------------------------------------
# Golden grid: tie order and costs on a grown GBCO graph
# ----------------------------------------------------------------------
#: Ordered ``(cost.hex(), sha256("|".join(sorted(edge_ids)))[:12])`` per tree
#: on GBCO (seed 11, 10 rows) grown to 60 sources with growth seed 3.  The
#: three- and four-terminal lists are what the branching over the reference
#: oracle (tests/reference_steiner.py, fsum costs) produced.  The two-terminal
#: list is the k shortest simple paths; brute force (tests/reference_paths.py)
#: witnesses its costs in the test.  Equal costs sit next to each other in
#: every list, so a moved tie-break fails the comparison.
GOLDEN_GRID = {
 "t2_k20": [
  ["0x1.925299967eed0p-2", "90c92a3dc737"],
  ["0x1.17439cb80b39cp-1", "e0b2043c5805"],
  ["0x1.65edf9381a6b3p-1", "80d6c975d16d"],
  ["0x1.65edf9381a6b3p-1", "33e213c18331"],
  ["0x1.a85d6b470af62p-1", "62dedb63fb23"],
  ["0x1.a85d6b470af62p-1", "841733041f99"],
  ["0x1.b4084924e62e7p-1", "51a4029f023b"],
  ["0x1.b4084924e62e7p-1", "191b14d3e603"],
  ["0x1.cb18c06b6ea90p-1", "e79365e5b7c0"],
  ["0x1.cff7dfa00e27fp-1", "edf0b98edd67"],
  ["0x1.cff7dfa00e27fp-1", "bd98beda11d7"],
  ["0x1.e66992ebd99d6p-1", "bd59dcc55dcb"],
  ["0x1.ead5266f99bfap-1", "c644f10baab5"],
  ["0x1.eb1379f4ba3a2p-1", "6667608405e5"],
  ["0x1.f09f04bdae10fp-1", "ff584c29e687"],
  ["0x1.f09f04bdae10fp-1", "8fc5319c7957"],
  ["0x1.f677bb33d6b96p-1", "4b9a3ba7adec"],
  ["0x1.f677bb33d6b96p-1", "0ca9a126ad25"],
  ["0x1.003480951a6eep+0", "313345065d30"],
  ["0x1.030240646ba05p+0", "38aeb701dc41"]
 ],
 "t3_k10": [
  ["0x1.1f1c686660ab6p+0", "cad5055ea2e5"],
  ["0x1.253b67f59f368p+0", "7ce45a728603"],
  ["0x1.253b67f59f368p+0", "8e07385a80ad"],
  ["0x1.3d3c71ce2ad14p+0", "a46f516102f7"],
  ["0x1.3fc3c968da026p+0", "a948060dcfa8"],
  ["0x1.3fc3c968da026p+0", "d62851341d8e"],
  ["0x1.3fc3c968da026p+0", "6c4aa539872f"],
  ["0x1.435b715d695c6p+0", "f36f1feb6806"],
  ["0x1.435b715d695c6p+0", "ae16be10ea64"],
  ["0x1.4629905cc68d0p+0", "e2a3de959596"]
 ],
 "t4_k5": [
  ["0x1.cc909635a6cf3p+0", "42c5ff3601ca"],
  ["0x1.cc909635a6cf3p+0", "a2d6ee675e6d"],
  ["0x1.cc909635a6cf3p+0", "89b8f5bcc4f1"],
  ["0x1.e360acaaa4efap+0", "688becbd19de"],
  ["0x1.e97fac39e37acp+0", "c9f411584aeb"]
 ]
}

GOLDEN_KEYWORDS = ("insulin", "pathway", "expression", "publication")


@pytest.fixture(scope="module")
def grown_gbco_service():
    from repro.api import QService
    from repro.datasets import build_gbco
    from repro.datasets.synthetic import grow_catalog_and_graph

    service = QService(sources=list(build_gbco(seed=11, rows_per_relation=10).catalog))
    service.bootstrap_alignments()
    grow_catalog_and_graph(service.catalog, service.graph, target_source_count=60, seed=3)
    yield service
    service.close()


#: ``settled_labels`` of one enumeration per golden cell, plus 5 %.  The
#: two-terminal cell settles 4 948 since it enumerates simple paths.  The
#: three- and four-terminal cells settle 19 442 and 47 878 since they branch
#: on Lawler partitions (38 024 and 69 789 under exclusion-only branching,
#: 33 819 and 107 738 before the branch bounds).  Branches that run
#: unbounded again fail here by count, on any host, where a timing gate
#: would need a quiet one.
SETTLED_LABEL_CEILING = {"t2_k20": 5_240, "t3_k10": 20_420, "t4_k5": 50_280}


def golden_cell(service, terminal_count, k):
    """The query graph and terminals of one golden-grid cell."""
    from repro.api import QueryRequest

    info = service.create_view(
        QueryRequest(keywords=GOLDEN_KEYWORDS[:terminal_count], k=k), materialize=False
    )
    view = service.views.resolve(info.view_id).view
    view.prepare()
    return view.query_graph.graph, list(view.query_graph.terminals)


@pytest.mark.parametrize("terminal_count,k", [(2, 20), (3, 10), (4, 5)])
def test_golden_grid_trees_costs_and_tie_order(grown_gbco_service, terminal_count, k):
    cell = f"t{terminal_count}_k{k}"
    graph, terminals = golden_cell(grown_gbco_service, terminal_count, k)
    cache = SteinerNetworkCache()
    trees = KBestSteiner(network_cache=cache).solve(graph, terminals, k)
    produced = [
        [tree.cost.hex(), hashlib.sha256("|".join(sorted(tree.edge_ids)).encode()).hexdigest()[:12]]
        for tree in trees
    ]
    assert produced == GOLDEN_GRID[cell]
    did = cache.solver
    # A screened child is a branch bounded out without a search.
    assert 0 < did.bounded_out_branches < did.bounded_branches < did.base_solves + did.screened_children
    assert did.settled_labels <= SETTLED_LABEL_CEILING.get(cell, did.settled_labels)
    # Disjoint partitions find no tree twice.
    assert len({tree.edge_ids for tree in trees}) == len(trees)
    if terminal_count == 2:
        # Brute force witnesses the costs.
        paths = simple_paths(graph, terminals[1], terminals[0], max_cost=trees[-1].cost)
        assert len(paths) >= k
        assert all(math.isclose(tree.cost, cost, rel_tol=1e-9) for tree, (cost, _) in zip(trees, paths))
        assert did.nonminimal_optima == 0
    else:
        assert all(is_minimal_steiner_tree(graph, tree, terminals) for tree in trees)


def test_expansion_cap_counts_bounded_out_branches_too(grown_gbco_service):
    """``max_expansions`` is a count of branches tried, whatever became of
    them: under a cap the t3_k10 cell runs into, the enumeration solves
    exactly cap + 1 times, abandons some of those under a bound, and returns
    the trees emitted before the cap, a prefix of the uncapped list."""
    graph, terminals = golden_cell(grown_gbco_service, 3, 10)
    uncapped = KBestSteiner().solve(graph, terminals, 10)
    cache = SteinerNetworkCache()
    capped = KBestSteiner(max_expansions=40, network_cache=cache).solve(graph, terminals, 10)
    assert 0 < len(capped) < len(uncapped) and capped == uncapped[: len(capped)]
    did = cache.solver
    assert (did.base_solves, did.expansion_cap_hits) == (41, 1)
    assert did.bounded_out_branches > 0
