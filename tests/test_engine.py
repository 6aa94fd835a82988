"""Tests for the planned execution engine: planner, context, and parity.

The parity class is the PR's core guarantee: for every query the engine
must return *exactly* what the seed nested-join executor returns — values
(including dict order), costs, provenance and answer order — regardless of
the join order the planner picks.
"""

from __future__ import annotations

import pytest

from repro.api import QService, ServiceConfig
from repro.datastore.query import ConjunctiveQuery
from repro.engine import ExecutionContext, PlanExecutor, QueryPlanner, compile_predicates, ranked_union
from repro.exceptions import DisconnectedTerminalsError, SteinerError

from reference_executor import ReferenceExecutor
from test_storage_backends import executed_answers


def _answer_record(answer):
    """Full observable identity of one answer (values order included)."""
    provenance = answer.provenance
    assert provenance is not None
    return (
        tuple(answer.values.items()),
        answer.cost,
        provenance.query_id,
        provenance.query_cost,
        tuple(sorted(provenance.base_tuples)),
    )


def _assert_same_answers(engine_answers, reference_answers):
    assert [_answer_record(a) for a in engine_answers] == [
        _answer_record(a) for a in reference_answers
    ]


def make_join_query(cost: float = 1.0) -> ConjunctiveQuery:
    query = ConjunctiveQuery(cost=cost, provenance="q1")
    query.add_atom("go.term", "t")
    query.add_atom("interpro.interpro2go", "i2g")
    query.add_join("t", "acc", "i2g", "go_id")
    query.add_output("t", "name", "term_name")
    query.add_output("i2g", "entry_ac", "entry_ac")
    return query


class TestCompiledPredicates:
    def test_equals_precomputes_canonical_value(self):
        query = ConjunctiveQuery()
        query.add_atom("go.term", "t")
        query.add_selection("t", "acc", "  GO:0001  ")
        (compiled,) = compile_predicates(query.selections)
        assert compiled.canonical_value == "GO:0001"
        assert compiled.matches("GO:0001")
        assert not compiled.matches(None)

    def test_key_is_alias_independent(self):
        query = ConjunctiveQuery()
        query.add_atom("go.term", "a")
        query.add_atom("go.term", "b")
        query.add_selection("a", "name", "membrane")
        query.add_selection("b", "name", "membrane")
        first, second = compile_predicates(query.selections)
        assert first.key == second.key

    def test_key_distinguishes_values_with_equal_str(self):
        # 1.0 (float) canonicalizes to "1" but "1.0" (str) stays "1.0":
        # their scans must not share a cache slot.
        query = ConjunctiveQuery()
        query.add_atom("go.term", "a")
        query.add_atom("go.term", "b")
        query.add_selection("a", "acc", 1.0)
        query.add_selection("b", "acc", "1.0")
        first, second = compile_predicates(query.selections)
        assert first.key != second.key


class TestPlanner:
    def test_greedy_order_starts_from_smallest_atom(self, mini_catalog):
        # go.term has 3 rows, interpro.interpro2go has 2 — the planner must
        # start from the smaller relation even though it is listed second.
        query = make_join_query()
        plan = QueryPlanner(ExecutionContext(mini_catalog)).plan(query)
        assert [step.alias for step in plan.steps] == ["i2g", "t"]
        assert plan.steps[0].is_cross_product
        assert not plan.steps[1].is_cross_product

    def test_selection_shrinks_estimate_and_order(self, mini_catalog):
        query = make_join_query()
        query.add_selection("t", "acc", "GO:0001")
        plan = QueryPlanner(ExecutionContext(mini_catalog)).plan(query)
        # With the equals selection, t filters to 1 row and now leads.
        assert [step.alias for step in plan.steps] == ["t", "i2g"]
        assert plan.steps[0].estimated_rows == 1

    def test_disconnected_join_graph_falls_back_to_cross_product(self, mini_catalog):
        query = ConjunctiveQuery()
        query.add_atom("go.term", "t")
        query.add_atom("interpro.pub", "p")
        plan = QueryPlanner(ExecutionContext(mini_catalog)).plan(query)
        assert all(step.is_cross_product for step in plan.steps)

    def test_explain_is_printable(self, mini_catalog):
        plan = QueryPlanner(ExecutionContext(mini_catalog)).plan(make_join_query())
        text = plan.explain()
        assert "hash_join" in text or "scan" in text


class TestExecutionContext:
    @pytest.mark.memory_engine_internals
    def test_scan_and_join_index_caches_hit(self, mini_catalog):
        context = ExecutionContext(mini_catalog)
        executor = PlanExecutor(mini_catalog, context)
        executor.execute(make_join_query())
        built = context.statistics.join_indexes_built
        executor.execute(make_join_query())
        assert context.statistics.join_index_cache_hits > 0
        assert context.statistics.join_indexes_built == built
        assert context.statistics.scan_cache_hits > 0

    def test_table_mutation_invalidates_naturally(self, mini_catalog):
        context = ExecutionContext(mini_catalog)
        executor = PlanExecutor(mini_catalog, context)
        before = executor.execute(make_join_query())
        mini_catalog.relation("interpro.interpro2go").append(
            {"go_id": "GO:0003", "entry_ac": "IPR003"}
        )
        after = executor.execute(make_join_query())
        assert len(after) == len(before) + 1

    @pytest.mark.memory_engine_internals
    def test_equals_pushdown_uses_index_scan(self, mini_catalog):
        context = ExecutionContext(mini_catalog)
        executor = PlanExecutor(mini_catalog, context)
        query = make_join_query()
        query.add_selection("t", "acc", "GO:0002")
        answers = executor.execute(query)
        assert len(answers) == 1
        assert context.statistics.index_scans > 0

    def test_answers_replay_only_from_same_table_versions(self):
        # The context's one staleness rule: an entry replays while each table
        # it read is the same object at the same version.  A mutated table
        # misses, and so does a source re-registered under the same name,
        # whose fresh table's version counter coincides with the old one's.
        from repro.datastore import Catalog, DataSource

        def source(rows):
            return DataSource.build("s", {"r": ["a"]}, data={"r": rows})

        catalog = Catalog([source([{"a": "old1"}, {"a": "old2"}])])
        context = ExecutionContext(catalog)
        query = ConjunctiveQuery(provenance="q")
        query.add_atom("s.r", "r")
        query.add_output("r", "a", "a")
        answers = PlanExecutor(catalog, context).execute(query)
        reads = context.table_reads(query)
        context.remember_answers("key", reads, answers)
        assert context.recall_answers("key", context.table_reads(query)) is answers
        assert context.recall_answers("other key", reads) is None

        old_table = catalog.relation("s.r")  # alive, so only identity can tell
        old_table.append({"a": "old3"})
        assert context.recall_answers("key", context.table_reads(query)) is None

        catalog.remove_source("s")
        catalog.add_source(source([{"a": "new1"}, {"a": "new2"}]))
        replaced = context.table_reads(query)
        assert replaced[0][1] == reads[0][1]  # only the table object differs
        assert context.recall_answers("key", replaced) is None
        context.remember_answers("key", replaced, answers)
        assert context.recall_answers("key", replaced) is answers

    def test_answer_cache_holds_under_concurrent_readers(self, mini_catalog, monkeypatch):
        # The read pool shares one context: recalls, remembers and evictions
        # from more threads than cores, switching as often as the interpreter
        # allows, lose no entry, return no other key's list and keep the bound.
        import random
        import sys
        import threading

        from repro.engine import context as context_module

        # One key more than the cache holds: most recalls hit, and the entry
        # a recall just found is often the one another thread evicts next.
        monkeypatch.setattr(context_module, "ANSWER_CACHE_SIZE", 2)
        context = ExecutionContext(mini_catalog)
        query = make_join_query()
        reads = context.table_reads(query)
        lists = {f"k{i}": [i] for i in range(3)}
        keys = list(lists)
        errors = []

        def reader(offset):
            pick = random.Random(offset).choice
            try:
                for _ in range(10000):
                    key = pick(keys)
                    got = context.recall_answers(key, reads)
                    assert got is None or got is lists[key]
                    context.remember_answers(key, reads, lists[key])
                    context.join_index("go.term", (), ("acc",))
            except BaseException as exc:  # handed to the main thread's assert
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        held = [key for key in keys if context.recall_answers(key, reads) is not None]
        assert len(held) == 2

    def test_context_bound_to_other_catalog_rejected(self, mini_catalog, interpro_go_dataset):
        context = ExecutionContext(interpro_go_dataset.catalog)
        with pytest.raises(ValueError):
            PlanExecutor(mini_catalog, context)

    def test_replaced_table_with_coinciding_version_not_served_stale(self):
        from repro.datastore import Catalog, DataSource

        def source(rows):
            return DataSource.build("s", {"r": ["a"]}, data={"r": rows})

        catalog = Catalog([source([{"a": "old1"}, {"a": "old2"}])])
        executor = PlanExecutor(catalog)
        query = ConjunctiveQuery(provenance="q")
        query.add_atom("s.r", "r")
        query.add_output("r", "a", "a")
        assert [a["a"] for a in executed_answers(executor, query)] == ["old1", "old2"]
        # Replace the source: same relation name, same row count, so the
        # fresh Table's version counter coincides with the old one's.
        catalog.remove_source("s")
        catalog.add_source(source([{"a": "new1"}, {"a": "new2"}]))
        assert [a["a"] for a in executed_answers(executor, query)] == ["new1", "new2"]


class TestEngineParityHandcrafted:
    """Engine vs seed executor on handcrafted queries over the mini catalog."""

    def _queries(self, mini_catalog):
        queries = [make_join_query(cost=1.5)]

        keyword = make_join_query(cost=2.0)
        keyword.add_selection("t", "name", " plasma membrane ")
        queries.append(keyword)

        three_way = ConjunctiveQuery(cost=2.5, provenance="q3")
        three_way.add_atom("interpro.entry", "e")
        three_way.add_atom("interpro.entry2pub", "e2p")
        three_way.add_atom("interpro.pub", "p")
        three_way.add_join("e", "entry_ac", "e2p", "entry_ac")
        three_way.add_join("e2p", "pub_id", "p", "pub_id")
        three_way.add_output("e", "name", "entry_name")
        three_way.add_output("p", "title", "title")
        queries.append(three_way)

        cross = ConjunctiveQuery(cost=3.0, provenance="qx")
        cross.add_atom("go.term", "t")
        cross.add_atom("interpro.pub", "p")
        queries.append(cross)  # no join: cross product, no outputs

        empty = ConjunctiveQuery(cost=0.5, provenance="q0")
        empty.add_atom("go.term", "t")
        empty.add_atom("interpro.pub", "p")
        empty.add_join("t", "name", "p", "title")
        queries.append(empty)  # join over disjoint values: empty result
        return queries

    def test_execute_parity_including_order(self, mini_catalog):
        reference = ReferenceExecutor(mini_catalog)
        engine = PlanExecutor(mini_catalog)
        for query in self._queries(mini_catalog):
            _assert_same_answers(executed_answers(engine, query), reference.execute(query))

    def test_union_parity(self, mini_catalog):
        reference = ReferenceExecutor(mini_catalog)
        engine = PlanExecutor(mini_catalog)
        queries = self._queries(mini_catalog)
        _assert_same_answers(
            ranked_union(queries, engine.execute, mini_catalog), reference.execute_union(queries)
        )


class TestEngineParitySynthetic:
    """Engine vs seed executor over the synthetic InterPro–GO dataset.

    The queries come from real view refreshes (Steiner trees → conjunctive
    queries), so they exercise the planner on the shapes the system actually
    produces.
    """

    @pytest.fixture(scope="class")
    def system_and_queries(self, interpro_go_dataset):
        system = QService(
            sources=interpro_go_dataset.catalog.sources(),
            config=ServiceConfig(top_k=5, top_y=2),
        )
        system.bootstrap_alignments()
        queries = []
        for keywords in interpro_go_dataset.keyword_queries[:6]:
            view = system.view(system.create_view(list(keywords)).view_id)
            queries.extend(generated.query for generated in view.state.queries)
        return system, queries

    def test_view_queries_exist(self, system_and_queries):
        _, queries = system_and_queries
        assert len(queries) >= 5

    def test_execute_parity(self, system_and_queries):
        system, queries = system_and_queries
        reference = ReferenceExecutor(system.catalog)
        engine = PlanExecutor(system.catalog)
        for query in queries:
            _assert_same_answers(executed_answers(engine, query), reference.execute(query))

    def test_union_parity(self, system_and_queries):
        system, queries = system_and_queries
        reference = ReferenceExecutor(system.catalog)
        engine = PlanExecutor(system.catalog)
        _assert_same_answers(
            ranked_union(queries, engine.execute, system.catalog, limit=200),
            reference.execute_union(queries, limit=200),
        )


class TestTypedSteinerErrors:
    def test_disconnected_error_is_steiner_error(self):
        assert issubclass(DisconnectedTerminalsError, SteinerError)

    def test_both_solvers_raise_typed_error(self):
        from repro.graph import EdgeKind, Node, NodeKind, SearchGraph, edge_feature
        from repro.steiner import approximate_steiner_tree, exact_steiner_tree

        graph = SearchGraph()
        for name in ("a", "b", "c", "d"):
            graph.add_node(Node(node_id=name, kind=NodeKind.RELATION, label=name, relation=name))
        for u, v in (("a", "b"), ("c", "d")):
            edge = graph.new_edge(u, v, EdgeKind.ASSOCIATION)
            edge.features = {edge_feature(edge.edge_id): 1.0}
            graph.weights.set(edge_feature(edge.edge_id), 1.0)
            graph.add_edge(edge)

        with pytest.raises(DisconnectedTerminalsError):
            exact_steiner_tree(graph, ["a", "c"])
        with pytest.raises(DisconnectedTerminalsError):
            approximate_steiner_tree(graph, ["a", "c"])
        with pytest.raises(DisconnectedTerminalsError):
            exact_steiner_tree(graph, ["a", "b", "c"])
