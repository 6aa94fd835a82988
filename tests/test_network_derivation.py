"""A topology is indexed once: networks derived per structure stamp.

The session's :class:`~repro.engine.context.SteinerNetworkCache` indexes a
graph's topology once per :attr:`SearchGraph.structure_stamp` and derives the
network of every other graph of that stamp — a weight move, a frozen snapshot
copy, a tenant overlay — by re-pricing only the edges whose features weigh
differently.  What it hands out must be a from-scratch build's to the bit
(tie order is part of the answer), whatever order the derivations come in.
"""

from __future__ import annotations

import random
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import FeedbackRequest, QService, QueryRequest, ServiceConfig
from repro.core.query_generation import QueryGenerator
from repro.datastore.csvio import source_from_dict, source_to_dict
from repro.engine.context import SteinerNetworkCache
from repro.graph import Edge, EdgeKind, Node, NodeKind, SearchGraph
from repro.graph.features import edge_feature
from repro.graph.nodes import make_relation_node
from repro.learning import AnnotationKind
from repro.learning.overlays import OverlayWeightVector, graph_with_weights
from repro.service import QServer
from repro.steiner import KBestSteiner, SteinerNetwork

SHARED = ("default", "matcher::a", "matcher::b", "relation::r")
#: Weights a move draws from: equal values, both zeros, negative sums that
#: the minimum edge cost clamps (ties), and a NaN-free spread.
VALUES = (0.0, -0.0, 0.25, 0.5, 1.0, 1.0, -2.0, 3.5)


def learnable_case(seed: int):
    """A connected graph of learnable edges over shared and per-edge features,
    some zero-cost membership edges, and two terminals."""
    rng = random.Random(seed)
    names = [f"n{rng.randrange(100):02d}_{i}" for i in range(rng.randint(3, 9))]
    graph = SearchGraph()
    for name in names:
        graph.add_node(Node(node_id=name, kind=NodeKind.RELATION, label=name, relation=name))
    order = names[:]
    rng.shuffle(order)
    pairs = [(order[rng.randrange(i)], order[i]) for i in range(1, len(order))]
    pairs += [tuple(rng.sample(names, 2)) for _ in range(rng.randint(0, 2 * len(names)))]
    for u, v in pairs:
        if rng.random() < 0.15:
            graph.add_edge(graph.new_edge(u, v, EdgeKind.MEMBERSHIP))
            continue
        edge_id = graph.new_edge_id(u, v, EdgeKind.ASSOCIATION)
        features = {name: rng.choice((1.0, 0.5, -1.0, 2.0)) for name in rng.sample(SHARED, rng.randint(0, 3))}
        if rng.random() < 0.6:
            features[edge_feature(edge_id)] = 1.0
        graph.add_edge(Edge(edge_id, u, v, EdgeKind.ASSOCIATION, features))
    return rng, graph, rng.sample(names, 2)


def carried(graph):
    """Every feature a learnable edge of ``graph`` carries, plus one none does."""
    names = {name for edge in graph.learnable_edges() for name in edge.features}
    return sorted(names) + ["matcher::absent"]


def shadow_of(rng, base, names):
    """An overlay's shadow: random weights, a copy of the base's value, the
    other zero where the base holds a zero, and features the base lacks."""
    shadow = {name: rng.choice(VALUES) for name in rng.sample(names, rng.randint(0, 3))}
    equal = rng.choice(names)
    shadow[equal] = base.get(equal)
    zero = next((name for name in names if name in base and base.get(name) == 0.0), None)
    if zero is not None:
        shadow[zero] = -0.0 if str(base.get(zero)) == "0.0" else 0.0
    return shadow


def assert_built_from_scratch(network, graph):
    scratch = SteinerNetwork(graph)
    assert network.priced_key() == scratch.priced_key()
    assert network.adjacency == scratch.adjacency
    assert network.graph is graph


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_derived_networks_are_built_networks_bit_for_bit(seed):
    """Plain moves of the live vector, frozen copies and overlays, requested in
    any order: every network the cache hands out prices, orders and connects
    like a fresh build of its graph, and every ranking equals a cache-less one."""
    rng, graph, terminals = learnable_case(seed)
    names = carried(graph)
    live = graph.weights
    for name in rng.sample(names, len(names) // 2):
        live.set(name, rng.choice(VALUES))
    cache = SteinerNetworkCache(maxsize=rng.choice((1, 16)))
    cached, cold = KBestSteiner(network_cache=cache), KBestSteiner()
    graphs = [graph]
    for _ in range(6):
        move = rng.choice(("plain", "frozen", "overlay"))
        if move == "plain":
            for name in rng.sample(names, rng.randint(1, 3)):
                value = rng.choice(VALUES + (live.get(name),))
                live.set(name, -0.0 if value == 0.0 and str(live.get(name)) == "0.0" else value)
        elif move == "frozen":
            frozen = live.copy()
            frozen.version = live.version  # as ReadSnapshot.capture does
            graphs.append(graph_with_weights(graph, frozen))
        else:
            base = rng.choice([g.weights for g in graphs])
            graphs.append(graph_with_weights(graph, OverlayWeightVector(base, shadow=shadow_of(rng, base, names))))
        for twin in rng.sample(graphs, len(graphs)):
            assert_built_from_scratch(cache.network(twin), twin)
            k = rng.choice((1, 3, 6))
            assert cached.solve(twin, terminals, k) == cold.solve(twin, terminals, k)
    assert cache.builds == 1


def test_every_structural_mutator_takes_a_new_stamp_and_copies_share_it():
    graph = SearchGraph()
    stamps = [graph.structure_stamp]

    def moved():
        assert graph.structure_stamp not in stamps
        stamps.append(graph.structure_stamp)

    a = graph.add_node(make_relation_node("s.a")).node_id
    moved()
    b = graph.add_node(make_relation_node("s.b")).node_id
    moved()
    edge = graph.add_edge(graph.new_edge(a, b, EdgeKind.ASSOCIATION, {"default": 1.0}))
    moved()
    graph.replace_edge(Edge(edge.edge_id, edge.u, edge.v, edge.kind, {"default": 2.0}))
    moved()
    graph.remove_edge(edge.edge_id)
    moved()
    graph.remove_node(b)
    moved()
    twin = graph.copy()
    assert twin.structure_stamp == graph.structure_stamp
    assert graph.copy(share_weights=False).structure_stamp == graph.structure_stamp
    # Re-adding what was removed is a new structure, not an old stamp back.
    graph.add_node(make_relation_node("s.b"))
    moved()


def test_a_graph_mutated_after_a_copy_gets_its_own_build():
    """Twins share a topology until one of them moves: from then on the moved
    graph's network is built from its own structure, never derived from the
    twin's, and the twin keeps deriving from the old one."""
    _, graph, terminals = learnable_case(11)
    cache = SteinerNetworkCache()
    twin = graph.copy()
    before = cache.network(twin)
    graph.replace_edge(next(
        Edge(e.edge_id, e.u, e.v, e.kind, {"default": 9.0}) for e in graph.learnable_edges()
    ))
    after = cache.network(graph)
    assert cache.builds == 2
    assert after.edge_costs != before.edge_costs
    assert_built_from_scratch(after, graph)
    graph.add_node(make_relation_node("late.node"))
    grown = cache.network(graph)
    assert cache.builds == 3 and len(grown.node_ids) == len(before.node_ids) + 1
    assert_built_from_scratch(grown, graph)
    twin.weights.set("default", 7.0)
    assert_built_from_scratch(cache.network(twin), twin)
    assert cache.builds == 3
    assert KBestSteiner(network_cache=cache).solve(twin, terminals, 4) == KBestSteiner().solve(twin, terminals, 4)


def test_a_served_session_indexes_each_expansion_once(gbco_dataset, monkeypatch):
    """Two views read by three tenants through the server, then base and
    tenant feedback, then every read again.  Snapshot copies, tenant twins and
    the learner's clones all share their view's stamp, so the session builds
    one network per expansion it solved, and the generator sees each tree once
    per expansion: a twin re-stamps the queries its view already generated."""
    solved, generated = set(), []
    solve, generate_all = KBestSteiner.solve, QueryGenerator.generate_all

    def recording_solve(solver, graph, *args, **kwargs):
        solved.add(graph.structure_stamp)
        return solve(solver, graph, *args, **kwargs)

    def recording_generate_all(generator, trees):
        generated.extend((generator.graph.structure_stamp, tree.edge_ids) for tree in trees)
        return generate_all(generator, trees)

    monkeypatch.setattr(KBestSteiner, "solve", recording_solve)
    monkeypatch.setattr(QueryGenerator, "generate_all", recording_generate_all)
    service = QService(
        sources=[source_from_dict(source_to_dict(source)) for source in gbco_dataset.catalog],
        config=ServiceConfig(top_k=5, top_y=1, write_queue_limit=16),
    )
    service.bootstrap_alignments()
    tenants = (None, "alice", "bob")
    with service, QServer(service, read_workers=2) as server:
        views = [
            server.query(QueryRequest(keywords=entry.keywords)).view_id
            for entry in gbco_dataset.query_log[2:4]
        ]

        def read_all():
            for view in views:
                for tenant in tenants:
                    assert server.query(QueryRequest(view=view, tenant=tenant)).answers

        read_all()
        for view, tenant in ((views[0], None), (views[1], "alice"), (views[0], "bob")):
            answers = server.query(QueryRequest(view=view, tenant=tenant)).answers
            server.feedback(FeedbackRequest(
                view=view, answer=answers[0], kind=AnnotationKind.VALID, tenant=tenant, replay=2,
            ))
        read_all()
        stats = service.stats()
    assert len(solved) == 2
    assert stats.steiner_cache_builds == len(solved)
    assert generated and len(generated) == len(set(generated))


def test_concurrent_derivations_hand_out_built_networks():
    """Read-pool threads derive networks for the twins of one topology at once:
    a topology's last prices are read and replaced under the cache's lock, so
    no thread is handed a network priced for another thread's vector."""
    rng, graph, _ = learnable_case(23)
    names = carried(graph)
    twins = [graph_with_weights(graph, OverlayWeightVector(graph.weights, shadow_of(rng, graph.weights, names)))
             for _ in range(6)]
    expected = {id(twin): SteinerNetwork(twin).priced_key() for twin in twins}
    cache, failures = SteinerNetworkCache(), []

    def work(worker):
        for turn in range(40):
            twin = twins[(worker + turn) % len(twins)]
            if cache.network(twin).priced_key() != expected[id(twin)]:
                failures.append((worker, turn))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(worker,)) for worker in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures and cache.builds == 1
